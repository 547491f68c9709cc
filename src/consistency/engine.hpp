// The update engine: drives one trace through one infrastructure with the
// configured update methods and records every metric the paper's evaluation
// reports.
//
// The engine is a discrete-event program over the Simulator:
//  * the provider applies the UpdateTrace; on each update it pushes to
//    Push children, notifies Invalidation children and subscribed
//    SelfAdaptive children;
//  * every non-provider node does the same for *its* children whenever it
//    acquires a new version, so multicast trees propagate recursively;
//  * TTL-family nodes poll their parent on a timer; poll responses return
//    the parent's own cached version (this is what amplifies TTL
//    inconsistency with tree depth, Fig. 15);
//  * Invalidation-family nodes fetch from their parent at the first user
//    visit after a notice; fetches recurse upward when the parent itself is
//    invalid;
//  * SelfAdaptive nodes implement Algorithm 1: TTL until a poll returns no
//    update, then subscribe to invalidations; at the first visited fetch
//    they unsubscribe (the fetch request carries the switch notice) and
//    resume TTL.
//
// All transmissions pass through the sender's Uplink (serialization and
// queueing — the scalability mechanism of Figs. 19-20) and the latency
// model, and are accounted by the TrafficMeter.
//
// Execution: one exact discrete-event driver. Every event of a run — message
// deliveries, timers, visits, churn, time-series sample points — fires on
// the one Simulator passed in, at its exact sim time, and every random draw
// comes from the engine's own seeded streams. Observability (trace events, the profiler, time
// series) rides that same run and never changes its result. Parallelism is
// across runs (core::BatchRunner jobs, catalog object lanes), never inside
// one.
//
// Batched visits (DESIGN.md "Batched user visits", default for the pinned
// attachment): each server's user arrivals come from a per-server visit
// stream generated from per-user phases (trace::VisitStream, state
// independent of the horizon) and are walked in bulk instead of one event
// per visit; the walk keeps run-length records, not rows. The result is
// observationally identical to the per-visit path; only the sim.event*
// gauges (event counts) change.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdn/dns.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"
#include "cdn/provider.hpp"
#include "cdn/replica_recorder.hpp"
#include "cdn/user_log.hpp"
#include "net/sites.hpp"
#include "consistency/infrastructure.hpp"
#include "net/latency_model.hpp"
#include "net/traffic_meter.hpp"
#include "net/uplink.hpp"
#include "pubsub/pubsub.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/absence.hpp"
#include "trace/poll_log.hpp"
#include "util/rng.hpp"

namespace cdnsim::consistency {

enum class UserAttachment {
  kPinnedLocal,       // users_per_server users pinned to each server (Sec. 4)
  kSwitchEveryVisit,  // every visit goes to a uniformly random server (Fig. 24)
  kDnsCache,          // local-DNS cache + authoritative reassignment (Sec. 3.3)
};

struct EngineConfig {
  MethodConfig method;
  InfrastructureConfig infrastructure;

  // Packet sizes (paper default: every package 1 KB; Fig. 19 sweeps the
  // content/update packet size while light messages stay small).
  double update_packet_kb = 1.0;
  double light_packet_kb = 1.0;

  // Uplink bandwidths (KB/s). The provider's uplink is the contended
  // resource in unicast Push.
  double provider_uplink_kbps = 2500.0;  // 20 Mbit/s
  double server_uplink_kbps = 2500.0;

  net::LatencyConfig latency;

  // End users.
  std::size_t users_per_server = 5;
  sim::SimTime user_poll_period_s = 10.0;  // "end-user TTL"
  UserAttachment user_attachment = UserAttachment::kPinnedLocal;
  /// Users start their visit loops at a uniform time in [0, this].
  sim::SimTime user_start_window_s = 50.0;
  /// kDnsCache only: population size (the paper uses 200 PlanetLab users)
  /// and the local-DNS model; users are placed on world sites.
  std::size_t dns_user_count = 200;
  cdn::DnsConfig dns;
  net::PlacementConfig dns_user_placement;

  /// Batched user-visit processing: generate each server's arrivals from
  /// per-user phases and walk them in bulk instead of one simulator event
  /// per visit; only a blocked server (visits must fetch) fires one event
  /// per visit. User metrics are folded from the walk's run-length
  /// records, and user_logs() builds rows on demand.
  /// Effective only for kPinnedLocal without a poll log (other shapes fall
  /// back to the per-visit path). Observationally identical to the legacy
  /// path — same draws, same observations, same counters — except for the
  /// sim.event* gauges, which count the (far fewer) events actually fired.
  /// The equivalence is enforced by visit_batch_equivalence_test.
  bool visit_batching = true;

  /// Shift applied to all trace update times (the paper starts updates at
  /// t = 60 s, after users began visiting).
  sim::SimTime trace_offset_s = 60.0;
  /// Keep simulating this long past the last update so slow paths settle.
  sim::SimTime tail_s = 120.0;

  /// Origin-staleness model for the provider (Section 3.4.2); 0 = exact.
  cdn::ProviderConfig provider;

  /// Infrastructure churn: random server crashes during the run. A crashed
  /// server loses in-flight messages, answers nothing, and (with repair
  /// enabled) is cut out of the update topology, its children re-attaching
  /// per the Section 5.2 rule — failed supernodes trigger an election. With
  /// repair disabled, the topology is left broken while the node is down
  /// (the Section 1 criticism of multicast infrastructures). On return the
  /// node rejoins and fetches the current content from its parent.
  struct ChurnConfig {
    double failures_per_hour = 0.0;  // expected crashes per hour, whole CDN
    sim::SimTime downtime_mean_s = 120.0;
    bool repair_enabled = true;
  };
  ChurnConfig churn;

  /// Network fault injection: message loss / duplication / delay jitter,
  /// ISP-pair partitions and uplink brownouts (src/fault). Disabled by
  /// default; an enabled plan with all rates at zero is byte-identical to a
  /// disabled one (the injector draws from its own substream RNG and makes
  /// no draw for a zero rate). Dropped messages still pay the sender's
  /// uplink and are metered — they are sent, then lost in flight.
  fault::FaultPlan fault;

  /// Reliable delivery for hard-state messages (kPushUpdate, kInvalidation,
  /// kFetchResponse): each transmission expects a kAck from the receiver;
  /// missing acks trigger retransmissions with exponential backoff until the
  /// retry budget is exhausted, at which point the sender gives up and the
  /// destination's inconsistency window stays open. Fetch requests ride the
  /// same budget as a requester-driven RPC guard: a fetch that produces no
  /// response in time is re-issued, and on give-up the requester unwedges
  /// itself (fetch_in_flight cleared, waiting users failed). Off by
  /// default — the soft-state methods of the paper need no transport help.
  struct ReliableConfig {
    bool enabled = false;
    sim::SimTime ack_timeout_s = 2.0;  // first-attempt ack deadline
    double backoff_factor = 2.0;       // deadline multiplier per retry
    int max_retries = 4;               // retransmissions after the first send
  };
  ReliableConfig reliable;

  /// Pub/sub fan-out (DESIGN.md "Pub/sub fan-out and flow control"). Every
  /// relay sends updates through a pubsub::Topic pair (content pushes /
  /// invalidation notices); unicast is the depth-one case, one
  /// provider-rooted topic pair whose subscribers are all servers in id
  /// order. With `flow_window == 0` — the default — the topic walker is the
  /// plain in-order child loop. `flow_window > 0` enables per-subscriber
  /// credit windows on multicast and hybrid relays: a subscriber with
  /// `flow_window` unconfirmed deliveries stops receiving live fan-out (it
  /// is *lagging*) and instead tails the missed versions from the relay's
  /// bounded update log once a confirmation frees a credit. Confirmations
  /// come from reliable-delivery acks when `reliable.enabled`, otherwise
  /// from the sender-side arrival estimate of the (possibly lost)
  /// transmission. The knob is inert on unicast: the provider's topic is
  /// always walked without credits.
  struct PubSubConfig {
    /// Per-subscriber credit window (max unconfirmed deliveries);
    /// 0 disables flow control.
    std::uint32_t flow_window = 0;
    /// Retained entries per topic update log; catch-up past a trimmed
    /// entry skips ahead instead of reading.
    std::size_t log_capacity = pubsub::Topic::kDefaultLogCapacity;
    /// Unreliable transports only: delay before a subscriber whose
    /// catch-up transmission was lost re-tails the log (reliable mode
    /// spaces re-tails by its own retry budget instead).
    sim::SimTime catchup_retry_s = 2.0;
  };
  PubSubConfig pubsub;

  std::uint64_t seed = 1;

  /// Record every user observation into a per-server PollLog (needed by the
  /// Section 3 analysis pipeline; off by default to save memory).
  bool record_poll_log = false;
  /// Record per-user observation logs (needed for user-perspective metrics;
  /// disable for large measurement sweeps that only use the poll log).
  bool record_user_logs = true;
  /// Record Chrome trace events (version acquisitions, mode switches,
  /// churn) into the engine's TraceRecorder. Off by default: tracing
  /// allocates per event, unlike the always-on counters.
  bool record_trace_events = false;

  /// Dispatch/phase profiler (borrowed, must outlive the engine; never
  /// shared between jobs). When set, prepare() attaches it to the Simulator
  /// with the engine's event-tag table and every engine phase opens a
  /// ProfileScope. When null — the default — the only residue is one
  /// null-check per phase entry (the zero-cost contract).
  obs::Profiler* profiler = nullptr;

  /// Time-resolved telemetry (DESIGN.md "Time-resolved telemetry"). When
  /// timeseries_sample_s > 0 and `timeseries` is set (borrowed, must
  /// outlive the engine; never shared between jobs), the run records one
  /// row per sample_s of sim time — consistency state, engine/fault/
  /// reliable counter deltas, per-MessageKind traffic, uplink backlog —
  /// plus per-update propagation spans. Sampling rides the sim-time grid
  /// (run_before per grid point), so it observes the run without changing
  /// it. When null — the default — the only residue is one null-check in
  /// acquire_version (span hook).
  double timeseries_sample_s = 0;
  obs::TimeSeries* timeseries = nullptr;
};

class UpdateEngine {
 public:
  /// `absences` may be empty (no failures) or one schedule per server.
  /// `shared_provider_uplink` (optional, not owned, must outlive the
  /// engine) lets several engines on one Simulator contend for the same
  /// provider uplink — the multi-content scenario where one popular content
  /// congests the origin for everyone (Section 1's bottleneck argument).
  UpdateEngine(sim::Simulator& simulator, const topology::NodeRegistry& nodes,
               const trace::UpdateTrace& updates, EngineConfig config,
               std::vector<trace::AbsenceSchedule> absences = {},
               net::Uplink* shared_provider_uplink = nullptr);

  UpdateEngine(const UpdateEngine&) = delete;
  UpdateEngine& operator=(const UpdateEngine&) = delete;
  ~UpdateEngine();

  /// Schedules all initial events without running the simulator — used to
  /// co-schedule several engines (contents) on one Simulator; call
  /// Simulator::run() afterwards.
  void prepare();

  /// prepare() + run the simulation to completion.
  void run();

  // --- results (valid after run()) ---
  const Infrastructure& infrastructure() const { return infra_; }
  const net::TrafficMeter& meter() const { return meter_; }
  const cdn::ReplicaRecorder& recorder(topology::NodeId server) const;
  /// Per-user observation rows. On the batched path they are built on the
  /// first call (after run()) and cached; not safe to call concurrently.
  const cdn::UserPopulationLog& user_logs() const;
  const trace::PollLog& poll_log() const { return poll_log_; }
  std::size_t user_count() const { return users_.size(); }
  sim::SimTime end_time() const { return end_time_; }

  /// Total events fired on the engine's Simulator.
  std::uint64_t events_processed() const { return sim_->events_processed(); }
  /// Clock position after the run (the time of the last event).
  sim::SimTime final_time() const { return sim_->now(); }

  /// Per-server average inconsistency (Figs. 14a/15a/19/20).
  std::vector<double> server_avg_inconsistency() const;
  /// Per-user average first-seen inconsistency (Figs. 14b/15b), folded by
  /// publish_run_stats() like user_observed_inconsistency_fraction().
  std::vector<double> user_avg_inconsistency() const;
  /// Largest per-user average on each server (the paper plots per node).
  std::vector<double> per_server_max_user_inconsistency() const;
  /// Same, folding an already-computed user_avg_inconsistency() vector so
  /// result assembly scans the user logs once instead of twice.
  std::vector<double> per_server_max_user_inconsistency(
      const std::vector<double>& per_user) const;
  /// Fraction of user observations showing content older than previously
  /// seen by the same user (Fig. 24).
  double user_observed_inconsistency_fraction() const;
  /// Churn statistics (0 when churn is disabled).
  std::size_t failures_injected() const { return failures_injected_; }

  /// The distance the meter charges a message from `from` to `to`. Provider
  /// and tree-parent edges (either direction) are read from per-server
  /// caches, filled at construction and after every repair; any other pair
  /// is computed. Equal to nodes.distance_km(from, to) bit for bit.
  double edge_distance_km(topology::NodeId from, topology::NodeId to) const;
  /// Reliable transmissions whose state some queued event still references
  /// (a copy in flight, an ack, a retry deadline). Zero once the simulator
  /// has drained.
  std::size_t reliable_states_live() const;

  /// The engine's metric registry. Populated by publish_run_stats():
  /// counters and the per-server inconsistency histograms accumulate during
  /// the run and are folded in deterministically, then the end-of-run
  /// gauges (simulator queue stats, traffic totals, provider uplink) are
  /// set. run() publishes automatically; engines co-scheduled
  /// via prepare() + external Simulator::run() must call
  /// publish_run_stats() themselves before reading this.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Recorded trace events (empty unless config.record_trace_events).
  const obs::TraceRecorder& trace_events() const { return trace_; }
  /// Folds the run counters and user metrics, and copies simulator/meter/
  /// uplink end-of-run totals into metrics(). Idempotent; called by run().
  void publish_run_stats();

 private:
  struct ServerState;
  struct UserState;
  struct ReliableState;

  /// Plain counter mirror of the registry counters, accumulated during the
  /// run (an integer add per event instead of a registry lookup) and folded
  /// into metrics_ once by fold_stats().
  struct Counters {
    std::array<std::uint64_t, kUpdateMethodCount> acquired{};
    std::array<std::uint64_t, kUpdateMethodCount> polls{};
    std::array<std::uint64_t, kUpdateMethodCount> fetches{};
    std::array<std::uint64_t, kUpdateMethodCount> invalidations{};
    std::uint64_t mode_switches = 0;
    std::uint64_t visits = 0;
    std::uint64_t visits_unanswered = 0;
    std::uint64_t fault_dropped = 0;
    std::uint64_t fault_partition_dropped = 0;
    std::uint64_t fault_duplicated = 0;
    std::uint64_t fault_brownouts = 0;
    std::uint64_t reliable_retries = 0;
    std::uint64_t reliable_give_ups = 0;
    pubsub::FanoutStats pubsub;  // pub/sub walker counters
  };

  // message transport. The send functions are templates on the caller's
  // delivery closure, so a delivery is one closure stored inline in the
  // event queue (no type-erased action nested in another). They are
  // defined in engine.cpp, where every caller is.
  /// Outcome of one wire step: when the message arrives (injected jitter
  /// included), whether the injector dropped it, and when an injected
  /// duplicate arrives.
  struct Wire {
    sim::SimTime arrival = 0;
    bool lost = false;
    std::optional<sim::SimTime> duplicate;
  };
  /// The one wire step of every transmission: uplink reserve, latency
  /// draw, meter, injector verdict. Schedules nothing.
  Wire wire(topology::NodeId from, topology::NodeId to, net::MessageKind kind,
            double size_kb);
  template <typename F>
  void send(topology::NodeId from, topology::NodeId to, net::MessageKind kind,
            double size_kb, F on_delivery);
  /// Delivers the message and any injected duplicate; returns the wire
  /// outcome.
  template <typename F>
  Wire send_unreliable(topology::NodeId from, topology::NodeId to,
                       net::MessageKind kind, double size_kb, F on_delivery);
  /// Schedules a delivery at `arrival`: absence deferral and the departed
  /// guard for server destinations.
  template <typename F>
  void deliver_at(topology::NodeId to, net::MessageKind kind,
                  sim::SimTime arrival, F action);
  sim::SimTime draw_latency(topology::NodeId from, topology::NodeId to);
  net::Uplink& uplink_of(topology::NodeId node);
  const net::GeoPoint& location_of(topology::NodeId node) const;

  // reliable delivery (hard-state messages, see EngineConfig::reliable).
  // The per-message state lives in a slab (ReliableSlab) and the events of
  // one transmission share it through counted ReliableRef handles.
  class ReliableSlab;
  class ReliableRef;
  /// A new slab entry for one reliable message, not yet sent.
  ReliableRef new_reliable(topology::NodeId from, topology::NodeId to,
                           net::MessageKind kind, double size_kb,
                           sim::EventAction on_delivery);
  void reliable_attempt(const ReliableRef& ref, int attempt);
  void reliable_deadline(const ReliableRef& ref, int attempt);
  void reliable_deliver(const ReliableRef& ref);
  void send_ack(const ReliableRef& ref);
  void on_ack(ReliableState& st);

  // fault injection
  void record_injected_drop(bool partitioned, topology::NodeId to);
  void schedule_brownouts();

  // version bookkeeping. Server versions live in a flat per-server table
  // (versions_) rather than on ServerState: acquisition, propagation and
  // the visit walk read versions far more often than any other field, and
  // the flat table spares them the servers_ unique_ptr chase.
  trace::Version& version_of(topology::NodeId server) {
    return versions_[static_cast<std::size_t>(server)];
  }
  trace::Version version_of(topology::NodeId server) const {
    return versions_[static_cast<std::size_t>(server)];
  }
  trace::Version node_version(topology::NodeId node);  // provider = truth
  void acquire_version(ServerState& s, trace::Version v);
  void propagate_to_children(topology::NodeId node, trace::Version v);
  void notify_children(topology::NodeId node, trace::Version v);

  // pub/sub fan-out (the delivery path on every infrastructure; see
  // EngineConfig::PubSubConfig). Every node owns a content topic (kPush
  // children) and a notice topic (notice children), both in
  // infra_.children_of order; under unicast only the provider's topics
  // have subscribers.
  enum class PubsubChannel : std::uint8_t { kContent, kNotice };
  struct NodeTopics {
    pubsub::Topic content;
    pubsub::Topic notice;
    explicit NodeTopics(std::size_t log_capacity)
        : content(log_capacity), notice(log_capacity) {}
  };
  pubsub::Topic& topic_of(topology::NodeId node, PubsubChannel ch) {
    NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    return ch == PubsubChannel::kContent ? t.content : t.notice;
  }
  /// Rebuilds topics_ and parent_edges_ from the infrastructure. Called at
  /// construction and after every repair — the only times the topology or
  /// a node's method can change. Bumps pubsub_generation_ so in-flight
  /// confirmations of the old subscriber ids are dropped instead of
  /// misattributed.
  void rebuild_topics();
  /// Topic fan-out of `v` from `node` on channel `ch`.
  void pubsub_publish(topology::NodeId node, PubsubChannel ch,
                      trace::Version v);
  /// Transport of one (possibly catch-up) delivery to subscriber `sid`;
  /// under flow control it also arranges the settle of the credit.
  void pubsub_transmit(topology::NodeId relay, PubsubChannel ch,
                       pubsub::SubscriberId sid, trace::Version v,
                       bool catch_up);
  /// Confirmation (ok) / loss verdict (!ok) of a flow-controlled
  /// transmission; may trigger an immediate catch-up tail or arm a
  /// deferred one.
  void pubsub_settle(topology::NodeId relay, PubsubChannel ch,
                     pubsub::SubscriberId sid, trace::Version v, bool ok,
                     bool catch_up, std::uint64_t generation);
  /// Deferred re-tail after a lost catch-up (see PubSubConfig).
  void pubsub_retry_catch_up(topology::NodeId relay, PubsubChannel ch,
                             pubsub::SubscriberId sid,
                             std::uint64_t generation);
  /// Sends the tail of the relay's log to a subscriber that just took a
  /// credit for it (settle()/begin_catch_up() returned true).
  void pubsub_send_tail(topology::NodeId relay, PubsubChannel ch,
                        pubsub::SubscriberId sid);
  /// Meters one kSubscribe registration per (topic, subscriber) when flow
  /// control is on — the subscription traffic of the pub/sub layer.
  void meter_subscriptions();

  // provider side
  void on_provider_update(trace::Version v);
  void handle_poll_at_parent(topology::NodeId parent, topology::NodeId child);
  void handle_fetch_at_parent(topology::NodeId parent, topology::NodeId child);
  void answer_fetch(topology::NodeId parent, topology::NodeId child);

  // server side
  void start_server(ServerState& s);
  void poll_tick(ServerState& s);
  void on_poll_response(ServerState& s, trace::Version v, bool fresh);
  void on_invalidation(ServerState& s, trace::Version v);
  void on_fetch_response(ServerState& s, trace::Version v);
  void begin_fetch(ServerState& s);
  void issue_fetch_request(ServerState& s);
  void arm_fetch_guard(ServerState& s, int attempt);
  void give_up_fetch(ServerState& s);
  void switch_to_invalidation_mode(ServerState& s);
  void switch_to_ttl_mode(ServerState& s);
  void rate_adapt_tick(ServerState& s);
  sim::SimTime current_ttl(const ServerState& s) const;

  // observability
  void bind_metrics();
  void bind_profiler();
  void fold_stats();
  // Time series: column binding (constructor), one sample at
  // ts_->next_sample_time() covering events strictly before it, and the
  // end-of-run span fold. See run() for where samples interleave with
  // execution.
  void bind_timeseries();
  void sample_timeseries();
  void finish_timeseries();
  // Calls emit(user, row, repeat) for every user row in per-user
  // request-time order (batched: run-length records merged with the direct
  // rows) — the one merge walk behind the user-metric fold and
  // user_logs(). `repeat` rows share `row`'s outcome: the i-th is at
  // row.request_time advanced i times by `+= user_poll_period_s` (the
  // visit stream's own arithmetic); direct rows come with repeat 1.
  template <typename Emit>
  void walk_user_rows(Emit&& emit) const;
  void fold_user_metrics();  // once, from publish_run_stats()

  // churn
  void schedule_next_failure();
  void fail_node(ServerState& s);
  void restore_node(ServerState& s);
  void apply_repair(const RepairReport& report);
  void ensure_polling(ServerState& s);

  // users — legacy per-visit path
  void start_users();
  void user_visit(UserState& u);
  void serve_user(ServerState& s, UserState& u, sim::SimTime request_time,
                  bool redirected);
  void deliver_to_user(ServerState& s, UserState& u, sim::SimTime request_time,
                       sim::SimTime serve_time, bool redirected);

  // users — batched path (one trace::VisitStream per server). Pending
  // visits are walked in bulk before a server's user-visible state changes
  // (catch_up_visits), at time-series sample points and at the horizon;
  // each walk records its visits as run-length records bounded by stream
  // positions (walk_visits), split at absence-interval edges. While the
  // server is "blocked" (invalidation pending, visits must fetch) the exact
  // per-visit timing matters, so resync_visits arms a pump event at the
  // stream's next visit.
  bool visit_pump_needed(const ServerState& s) const;
  void catch_up_visits(ServerState& s);
  void catch_up_visits_until(ServerState& s, sim::SimTime upto);
  void walk_visits(ServerState& s, sim::SimTime until, bool answered);
  void resync_visits(ServerState& s);
  void schedule_visit_event(ServerState& s);
  void pump_visit(ServerState& s);
  void horizon_server(ServerState& s);

  /// Parent-side subscription bookkeeping for self-adaptive children
  /// (which children are in invalidation mode, and which were already sent
  /// the aggregated notice since subscribing).
  struct SubscriptionState {
    std::unordered_set<topology::NodeId> subscribers;
    std::unordered_set<topology::NodeId> notified;
  };
  SubscriptionState& subs_of(topology::NodeId node);

  sim::Simulator* sim_;
  const topology::NodeRegistry* nodes_;
  const trace::UpdateTrace* updates_;  // shifted by trace_offset_s
  std::unique_ptr<trace::UpdateTrace> shifted_updates_;
  EngineConfig config_;
  util::Rng rng_;
  std::unique_ptr<fault::Injector> injector_;
  Infrastructure infra_;
  /// Edge caches behind edge_distance_km(), index = server id: the
  /// provider-to-server distance (constructor), and the server's tree
  /// parent with the parent-to-server distance (rebuild_topics()).
  struct ParentEdge {
    topology::NodeId parent = topology::kProviderNode;
    double km = 0;
  };
  std::vector<double> provider_km_;
  std::vector<ParentEdge> parent_edges_;
  /// Owned by the engine until it dies; then handed to the queued events
  /// that still reference it, if its Simulator has not drained.
  std::unique_ptr<ReliableSlab> reliable_;
  net::LatencyModel latency_;
  net::TrafficMeter meter_;
  std::unique_ptr<cdn::Provider> provider_;
  std::unique_ptr<cdn::DnsSystem> dns_;
  net::Uplink provider_uplink_;
  net::Uplink* shared_provider_uplink_ = nullptr;
  std::vector<std::unique_ptr<ServerState>> servers_;
  /// Flat per-server version table (index = server id).
  std::vector<trace::Version> versions_;
  /// Per-node topic pair (index = node id + 1), rebuilt by
  /// rebuild_topics().
  std::vector<NodeTopics> topics_;
  /// Resolved once in the constructor: window 0 under unicast.
  pubsub::FlowController flow_{0};
  /// Bumped by rebuild_topics(); stale confirmations are dropped.
  std::uint64_t pubsub_generation_ = 0;
  std::vector<std::unique_ptr<UserState>> users_;
  /// Rows added one by one (batched path: pump visits and waiting users).
  std::unique_ptr<cdn::UserPopulationLog> direct_logs_;
  /// Batched path: the full rows, built by the first user_logs() call.
  mutable std::unique_ptr<cdn::UserPopulationLog> merged_logs_;
  std::vector<double> user_avg_inconsistency_;  // fold_user_metrics()
  double user_observed_inconsistency_fraction_ = 0;
  std::vector<trace::AbsenceSchedule> absences_;
  SubscriptionState provider_subs_;
  trace::PollLog poll_log_;
  sim::SimTime end_time_ = 0;
  std::size_t failures_injected_ = 0;
  bool ran_ = false;

  // Visit mode (resolved once in the constructor).
  bool visit_batching_ = false;

  // Observability. The registry is engine-owned (nothing shared between
  // batch jobs). Counters accumulate in counters_ and per-server
  // histograms during the run; fold_stats() moves them into the registry
  // (idempotent, deterministic order).
  Counters counters_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  bool stats_folded_ = false;

  // Time-resolved telemetry (ts_ null unless config.timeseries is bound;
  // the disabled hot-path residue is one null-check). Column ids are
  // resolved once in bind_timeseries(); sample_timeseries() stages into
  // them. ts_published_cursor_ counts trace updates with publish time
  // strictly before the current sample point.
  obs::TimeSeries* ts_ = nullptr;
  struct TsColumns {
    obs::SeriesId updates_published = 0;
    obs::SeriesId stale_replicas = 0;
    obs::SeriesId inflight_updates = 0;
    std::array<obs::SeriesId, kUpdateMethodCount> open_windows{};
    std::array<obs::SeriesId, kUpdateMethodCount> acquired{};
    std::array<obs::SeriesId, kUpdateMethodCount> polls{};
    std::array<obs::SeriesId, kUpdateMethodCount> fetches{};
    std::array<obs::SeriesId, kUpdateMethodCount> invalidations{};
    obs::SeriesId mode_switches = 0;
    obs::SeriesId visits = 0;
    obs::SeriesId visits_unanswered = 0;
    obs::SeriesId fault_dropped = 0;
    obs::SeriesId fault_partition_dropped = 0;
    obs::SeriesId fault_duplicated = 0;
    obs::SeriesId fault_brownouts = 0;
    obs::SeriesId reliable_retries = 0;
    obs::SeriesId reliable_give_ups = 0;
    obs::SeriesId pubsub_live = 0;
    obs::SeriesId pubsub_suppressed = 0;
    obs::SeriesId pubsub_catch_up_messages = 0;
    obs::SeriesId pubsub_catch_up_reads = 0;
    obs::SeriesId pubsub_skipped_ahead = 0;
    obs::SeriesId pubsub_lagging = 0;
    std::array<obs::SeriesId, net::kMessageKindCount> messages{};
    obs::SeriesId uplink_backlog = 0;
    obs::SeriesId uplink_brownout = 0;
  };
  TsColumns ts_cols_;
  trace::Version ts_published_cursor_ = 0;
  obs::SpanBuffer spans_;  // propagation-span applies, folded at the end

  // Dispatch/phase profiler: slots interned once in bind_profiler(), so a
  // phase entry costs one null-check plus (when enabled) one table walk.
  obs::Profiler* profiler_ = nullptr;
  std::vector<obs::ProfileSlot> tag_slots_;
  obs::ProfileSlot ps_send_ = 0;
  obs::ProfileSlot ps_version_ = 0;
  obs::ProfileSlot ps_timer_ = 0;
  obs::ProfileSlot ps_poll_ = 0;
  obs::ProfileSlot ps_fetch_ = 0;
  obs::ProfileSlot ps_invalidate_ = 0;
  obs::ProfileSlot ps_push_ = 0;
  obs::ProfileSlot ps_mode_switch_ = 0;
  obs::ProfileSlot ps_tree_build_ = 0;
  obs::ProfileSlot ps_repair_ = 0;
};

}  // namespace cdnsim::consistency

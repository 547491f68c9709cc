#include "consistency/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/visit_schedule.hpp"
#include "util/error.hpp"

namespace cdnsim::consistency {

using topology::kProviderNode;
using topology::NodeId;
using trace::Version;

namespace {

// Event tags for the dispatch profiler. Tag 0 is sim::kUntaggedEvent;
// message deliveries map one tag per MessageKind so the profile breaks the
// dispatch loop down by what actually fired.
constexpr sim::EventTag kTagProviderUpdate = 1;
constexpr sim::EventTag kTagPollTick = 2;
constexpr sim::EventTag kTagAdaptTick = 3;
constexpr sim::EventTag kTagUserVisit = 4;
constexpr sim::EventTag kTagChurn = 5;
constexpr sim::EventTag kTagHorizon = 6;
constexpr sim::EventTag kTagFault = 7;    // brownout transitions
constexpr sim::EventTag kTagRetry = 8;    // reliable-delivery deadlines
constexpr sim::EventTag kTagPubsubSettle = 9;  // flow-control confirmations
constexpr sim::EventTag kTagDeliveryBase = 10;
constexpr std::size_t kEngineTagCount =
    kTagDeliveryBase + net::kMessageKindCount;

sim::EventTag delivery_tag(net::MessageKind kind) {
  return static_cast<sim::EventTag>(kTagDeliveryBase +
                                    static_cast<std::size_t>(kind));
}

/// Hard-state messages covered by the reliable-delivery layer: content or
/// notices a receiver cannot recover by its own polling.
bool reliable_kind(net::MessageKind kind) {
  return kind == net::MessageKind::kPushUpdate ||
         kind == net::MessageKind::kInvalidation ||
         kind == net::MessageKind::kFetchResponse ||
         kind == net::MessageKind::kCatchUpUpdate ||
         kind == net::MessageKind::kCatchUpNotice;
}

// Buckets span the regimes the paper reports: sub-TTL (seconds), the
// 10-60 s server TTLs of Sections 4-5, and pathological minutes-long
// windows under churn.
const std::vector<double>& inconsistency_bounds() {
  static const std::vector<double> bounds = {0.5,  1.0,  2.0,  5.0,   10.0,
                                             20.0, 30.0, 60.0, 120.0, 300.0};
  return bounds;
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal state types
// ---------------------------------------------------------------------------

struct UpdateEngine::UserState {
  cdn::UserId id = 0;
  net::GeoPoint location;
  NodeId home_server = 0;
  // Sentinel -2: no previous server (kProviderNode is -1).
  NodeId last_server = -2;
  std::unique_ptr<sim::PeriodicTimer> visit_timer;  // legacy per-visit path
};

struct UpdateEngine::ServerState {
  NodeId id = 0;
  UpdateMethod method = UpdateMethod::kTtl;
  cdn::ReplicaRecorder recorder;
  net::Uplink uplink;

  std::unique_ptr<sim::PeriodicTimer> poll_timer;

  // Churn: a crashed server answers nothing and loses incoming messages.
  bool departed = false;

  // Invalidation / self-adaptive / rate-adaptive state.
  bool sa_in_invalidation_mode = false;
  Version invalid_known = 0;
  // Rate-adaptive controller window counters.
  std::uint64_t visits_in_window = 0;
  Version version_at_window_start = 0;
  std::unique_ptr<sim::PeriodicTimer> adapt_timer;
  bool fetch_in_flight = false;
  // Generation counter for the reliable fetch-RPC guard: bumped whenever a
  // (re)issued fetch arms a new deadline, so stale deadlines become no-ops.
  std::uint64_t fetch_epoch = 0;
  std::vector<NodeId> pending_child_fetches;
  struct PendingServe {
    UserState* user;
    sim::SimTime request_time;
    bool redirected;
  };
  std::vector<PendingServe> waiting_users;

  // Adaptive-TTL: origin time of the newest content we hold.
  sim::SimTime last_known_update_time = 0;

  const trace::AbsenceSchedule* absence = nullptr;

  // Batched-visit walk state: position in the precomputed arrival arrays
  // and the pending pump event (armed only while the server is blocked).
  std::size_t visit_cursor = 0;
  sim::EventHandle visit_event;
  // Arrival time of the first unwalked visit (+inf when the schedule is
  // exhausted or the server has no batched schedule). Maintained alongside
  // visit_cursor so the flush-before-every-state-mutation callers can skip
  // the whole walk when the window is empty.
  sim::SimTime next_visit_time = std::numeric_limits<sim::SimTime>::infinity();

  bool has_pending_visits_before(sim::SimTime t) const {
    return next_visit_time < t;
  }

  // Run-length user-log records from the bulk visit walk: schedule entries
  // [begin, end) all share one (version, answered) outcome. Recording one
  // run per walk instead of one row per visit keeps the hot walk free of
  // scattered per-user appends; walk_user_rows() expands them, after the
  // run, into the user-metric fold and (on demand) UserObservation rows.
  struct VisitLogRun {
    std::uint32_t begin;
    std::uint32_t end;
    Version version;
    bool answered;
  };
  std::vector<VisitLogRun> visit_log_runs;

  // Per-server inconsistency-window histogram; fold_stats() merges these in
  // ascending server order, so the floating-point sum is a pure function of
  // per-server contents.
  obs::Histogram inconsistency;

  // Parent-side subscription state for this node's notice-receiving
  // children.
  SubscriptionState subs;

  ServerState(Version final_version, double uplink_kbps)
      : recorder(final_version),
        uplink(uplink_kbps),
        inconsistency(inconsistency_bounds()) {}

  bool absent_at(sim::SimTime t) const { return absence && absence->absent_at(t); }
  bool invalidation_active() const {
    return method == UpdateMethod::kInvalidation ||
           ((method == UpdateMethod::kSelfAdaptive ||
             method == UpdateMethod::kRateAdaptive) &&
            sa_in_invalidation_mode);
  }
};

// One in-flight reliable message. Shared between the delivery events (which
// may fire more than once: retransmissions, injected duplicates) and the
// retry deadlines; `delivered` makes the receiver-side action at-most-once
// and `acked` stops the retransmission chain.
struct UpdateEngine::ReliableState {
  NodeId from = 0;
  NodeId to = 0;
  net::MessageKind kind = net::MessageKind::kPushUpdate;
  double size_kb = 0;
  sim::EventAction action;
  bool delivered = false;
  bool acked = false;

  // Flow-controlled pub/sub transmissions: which subscriber credit this
  // message holds. The first of {ack, give-up} settles it (pubsub_settled
  // makes the settle at-most-once — retransmitted copies ack repeatedly).
  struct PubsubRef {
    PubsubChannel channel = PubsubChannel::kContent;
    pubsub::SubscriberId subscriber = 0;
    trace::Version version = 0;
    bool catch_up = false;
    std::uint64_t generation = 0;
    bool settled = false;
  };
  std::optional<PubsubRef> pubsub;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

UpdateEngine::UpdateEngine(sim::Simulator& simulator,
                           const topology::NodeRegistry& nodes,
                           const trace::UpdateTrace& updates, EngineConfig config,
                           std::vector<trace::AbsenceSchedule> absences,
                           net::Uplink* shared_provider_uplink)
    : sim_(&simulator),
      nodes_(&nodes),
      updates_(nullptr),
      config_(config),
      rng_(config.seed),
      infra_(),
      latency_(config.latency),
      provider_uplink_(config.provider_uplink_kbps),
      shared_provider_uplink_(shared_provider_uplink),
      absences_(std::move(absences)) {
  CDNSIM_EXPECTS(config_.trace_offset_s >= 0, "trace offset must be >= 0");
  CDNSIM_EXPECTS(config_.user_poll_period_s > 0, "user poll period must be > 0");
  CDNSIM_EXPECTS(absences_.empty() || absences_.size() == nodes.server_count(),
                 "absence schedules must be empty or one per server");

  visit_batching_ = config_.visit_batching &&
                    config_.user_attachment == UserAttachment::kPinnedLocal &&
                    !config_.record_poll_log;

  // Shift the trace so update v happens at update_time(v) + offset; all
  // engine-internal times use the shifted trace.
  std::vector<sim::SimTime> shifted;
  shifted.reserve(updates.times().size());
  for (sim::SimTime t : updates.times()) shifted.push_back(t + config_.trace_offset_s);
  shifted_updates_ = std::make_unique<trace::UpdateTrace>(std::move(shifted));
  updates_ = shifted_updates_.get();

  bind_profiler();

  util::Rng infra_rng = rng_.fork(0x1f7a);
  {
    obs::ProfileScope scope(profiler_, ps_tree_build_);
    infra_ = build_infrastructure(nodes, config_.infrastructure, config_.method,
                                  infra_rng);
  }

  provider_ = std::make_unique<cdn::Provider>(*updates_, config_.provider,
                                              rng_.fork(0x9807));

  // Prime the latency model's pairwise propagation cache with the fixed
  // node-site set: every message the engine sends travels between two of
  // these points, so the hot path becomes a matrix read instead of a
  // haversine. Site index = node id + 1 (provider kProviderNode = -1 -> 0).
  std::vector<net::GeoPoint> sites;
  sites.reserve(nodes.server_count() + 1);
  sites.push_back(nodes.location(kProviderNode));
  for (NodeId id : nodes.server_ids()) sites.push_back(nodes.location(id));
  if (sites.size() <= net::LatencyModel::kMaxPrimedSites) latency_.prime(sites);

  // The injector draws from substream_seed(seed, kFaultStream) — stateless,
  // so constructing it here perturbs neither rng_ nor any fork above.
  if (config_.fault.enabled) {
    injector_ =
        std::make_unique<fault::Injector>(config_.fault, nodes, config_.seed);
  }

  CDNSIM_EXPECTS(!config_.reliable.enabled ||
                     (config_.reliable.ack_timeout_s > 0 &&
                      config_.reliable.backoff_factor >= 1.0 &&
                      config_.reliable.max_retries >= 0),
                 "reliable delivery needs ack_timeout_s > 0, "
                 "backoff_factor >= 1 and max_retries >= 0");

  CDNSIM_EXPECTS(config_.pubsub.log_capacity > 0 &&
                     config_.pubsub.catchup_retry_s > 0,
                 "pubsub needs log_capacity > 0 and catchup_retry_s > 0");
  // flow_window is inert on unicast: the provider-rooted topic is walked
  // without credits, exactly like a flow-off relay.
  flow_ = pubsub::FlowController(
      config_.infrastructure.kind == InfrastructureKind::kUnicast
          ? 0
          : config_.pubsub.flow_window);

  bind_metrics();
  bind_timeseries();

  const Version final_version = updates_->update_count();
  servers_.reserve(nodes.server_count());
  for (NodeId id : nodes.server_ids()) {
    auto s = std::make_unique<ServerState>(final_version, config_.server_uplink_kbps);
    s->id = id;
    s->method = infra_.method_of(id);
    if (!absences_.empty()) s->absence = &absences_[static_cast<std::size_t>(id)];
    servers_.push_back(std::move(s));
  }
  versions_.assign(servers_.size(), 0);
  rebuild_topics();

  end_time_ = updates_->duration() + config_.tail_s;
}

UpdateEngine::~UpdateEngine() = default;

UpdateEngine::SubscriptionState& UpdateEngine::subs_of(NodeId node) {
  if (node == kProviderNode) return provider_subs_;
  return servers_[static_cast<std::size_t>(node)]->subs;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

static std::size_t method_index(UpdateMethod m) {
  return static_cast<std::size_t>(m);
}

void UpdateEngine::bind_metrics() {
  // Every slot is registered up front, even for methods this run never
  // assigns: the exported key set is then a function of nothing but the
  // code version, so outputs diff cleanly across configurations. Values
  // accumulate in counters_ / per-server histograms during the run and land
  // here in fold_stats().
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    metrics_.counter("engine.updates_acquired." + suffix);
    metrics_.counter("engine.polls." + suffix);
    metrics_.counter("engine.fetches." + suffix);
    metrics_.counter("engine.invalidations." + suffix);
  }
  metrics_.counter("engine.mode_switches");
  metrics_.counter("engine.user_visits");
  metrics_.counter("engine.user_visits_unanswered");
  metrics_.counter("fault.messages_dropped");
  metrics_.counter("fault.partition_dropped");
  metrics_.counter("fault.messages_duplicated");
  metrics_.counter("fault.brownout_transitions");
  metrics_.counter("reliable.retries");
  metrics_.counter("reliable.give_ups");
  metrics_.counter("pubsub.live_deliveries");
  metrics_.counter("pubsub.suppressed_deliveries");
  metrics_.counter("pubsub.catch_up_messages");
  metrics_.counter("pubsub.catch_up_reads");
  metrics_.counter("pubsub.skipped_ahead");
  metrics_.counter("pubsub.lagging_enter");
  metrics_.counter("pubsub.lagging_exit");
  metrics_.histogram("engine.inconsistency_window_s", inconsistency_bounds());
}

void UpdateEngine::bind_profiler() {
  profiler_ = config_.profiler;
  if (profiler_ == nullptr) return;
  ps_send_ = profiler_->intern("engine.send");
  ps_version_ = profiler_->intern("engine.version");
  ps_timer_ = profiler_->intern("sim.timer");
  ps_poll_ = profiler_->intern("engine.poll");
  ps_fetch_ = profiler_->intern("engine.fetch");
  ps_invalidate_ = profiler_->intern("engine.invalidate");
  ps_push_ = profiler_->intern("engine.push");
  ps_mode_switch_ = profiler_->intern("engine.mode_switch");
  ps_tree_build_ = profiler_->intern("topology.build_tree");
  ps_repair_ = profiler_->intern("topology.repair");

  tag_slots_.assign(kEngineTagCount, 0);
  tag_slots_[sim::kUntaggedEvent] = profiler_->intern("sim.untagged");
  tag_slots_[kTagProviderUpdate] = profiler_->intern("sim.provider_update");
  tag_slots_[kTagPollTick] = profiler_->intern("sim.poll_tick");
  tag_slots_[kTagAdaptTick] = profiler_->intern("sim.adapt_tick");
  tag_slots_[kTagUserVisit] = profiler_->intern("sim.user_visit");
  tag_slots_[kTagChurn] = profiler_->intern("sim.churn");
  tag_slots_[kTagHorizon] = profiler_->intern("sim.horizon");
  tag_slots_[kTagFault] = profiler_->intern("sim.fault");
  tag_slots_[kTagRetry] = profiler_->intern("sim.retry");
  tag_slots_[kTagPubsubSettle] = profiler_->intern("sim.pubsub_settle");
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    tag_slots_[kTagDeliveryBase + k] = profiler_->intern(
        "deliver." + std::string(to_string(static_cast<net::MessageKind>(k))));
  }
}

void UpdateEngine::bind_timeseries() {
  if (config_.timeseries == nullptr || config_.timeseries_sample_s <= 0) {
    return;
  }
  ts_ = config_.timeseries;
  CDNSIM_EXPECTS(ts_->column_count() == 0 && ts_->row_count() == 0,
                 "a TimeSeries may not be shared between engines");
  // Columns are bound in a fixed order so the layout is a function of the
  // code version alone — merged catalog series and cross-run diffs line up
  // without name lookups. Delta columns are named exactly like the
  // registry slots they telescope to, so check_obs.py can reconcile them.
  TsColumns& c = ts_cols_;
  c.updates_published = ts_->add_delta("consistency.updates_published");
  c.stale_replicas = ts_->add_gauge("consistency.stale_replicas");
  c.inflight_updates = ts_->add_gauge("consistency.inflight_updates");
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    c.open_windows[m] = ts_->add_gauge("consistency.open_windows." + suffix);
    c.acquired[m] = ts_->add_delta("engine.updates_acquired." + suffix);
    c.polls[m] = ts_->add_delta("engine.polls." + suffix);
    c.fetches[m] = ts_->add_delta("engine.fetches." + suffix);
    c.invalidations[m] = ts_->add_delta("engine.invalidations." + suffix);
  }
  c.mode_switches = ts_->add_delta("engine.mode_switches");
  c.visits = ts_->add_delta("engine.user_visits");
  c.visits_unanswered = ts_->add_delta("engine.user_visits_unanswered");
  c.fault_dropped = ts_->add_delta("fault.messages_dropped");
  c.fault_partition_dropped = ts_->add_delta("fault.partition_dropped");
  c.fault_duplicated = ts_->add_delta("fault.messages_duplicated");
  c.fault_brownouts = ts_->add_delta("fault.brownout_transitions");
  c.reliable_retries = ts_->add_delta("reliable.retries");
  c.reliable_give_ups = ts_->add_delta("reliable.give_ups");
  c.pubsub_live = ts_->add_delta("pubsub.live_deliveries");
  c.pubsub_suppressed = ts_->add_delta("pubsub.suppressed_deliveries");
  c.pubsub_catch_up_messages = ts_->add_delta("pubsub.catch_up_messages");
  c.pubsub_catch_up_reads = ts_->add_delta("pubsub.catch_up_reads");
  c.pubsub_skipped_ahead = ts_->add_delta("pubsub.skipped_ahead");
  c.pubsub_lagging = ts_->add_gauge("pubsub.lagging_subscribers");
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    c.messages[k] = ts_->add_delta(
        "net.messages." +
        std::string(to_string(static_cast<net::MessageKind>(k))));
  }
  c.uplink_backlog = ts_->add_gauge("net.provider_uplink.backlog_s");
  c.uplink_brownout = ts_->add_gauge("net.provider_uplink.brownout");
}

// Records one row at ts_->next_sample_time(). The caller (run()) guarantees
// every event with time strictly before that point has fired and no later
// one has — so everything staged here is a pure function of the simulated
// history up to the grid point.
void UpdateEngine::sample_timeseries() {
  const double t = ts_->next_sample_time();
  const TsColumns& c = ts_cols_;

  // Unblocked servers fire no visit events: walk every backlog up to t so
  // the visit counters cover exactly the visits before t. No state change
  // lies between the last event and t, so each visit sees its own state.
  for (auto& s : servers_) catch_up_visits_until(*s, t);

  // Consistency state. `latest` counts trace updates published strictly
  // before t; a replica is stale (its inconsistency window open) while its
  // version trails it.
  const Version total_updates = updates_->update_count();
  while (ts_published_cursor_ < total_updates &&
         updates_->update_time(ts_published_cursor_ + 1) < t) {
    ++ts_published_cursor_;
  }
  const Version latest = ts_published_cursor_;
  ts_->stage(c.updates_published, static_cast<double>(latest));
  std::uint64_t stale = 0;
  std::array<std::uint64_t, kUpdateMethodCount> stale_by_method{};
  Version min_version = latest;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const Version v = versions_[i];
    min_version = std::min(min_version, v);
    if (v < latest) {
      ++stale;
      ++stale_by_method[method_index(servers_[i]->method)];
    }
  }
  ts_->stage(c.stale_replicas, static_cast<double>(stale));
  ts_->stage(c.inflight_updates, static_cast<double>(latest - min_version));
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    ts_->stage(c.open_windows[m], static_cast<double>(stale_by_method[m]));
  }

  // Engine/fault/reliable activity: stage the cumulative counters; the
  // delta columns emit per-interval differences.
  const Counters& lc = counters_;
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    ts_->stage(c.acquired[m], static_cast<double>(lc.acquired[m]));
    ts_->stage(c.polls[m], static_cast<double>(lc.polls[m]));
    ts_->stage(c.fetches[m], static_cast<double>(lc.fetches[m]));
    ts_->stage(c.invalidations[m], static_cast<double>(lc.invalidations[m]));
  }
  ts_->stage(c.mode_switches, static_cast<double>(lc.mode_switches));
  ts_->stage(c.visits, static_cast<double>(lc.visits));
  ts_->stage(c.visits_unanswered, static_cast<double>(lc.visits_unanswered));
  ts_->stage(c.fault_dropped, static_cast<double>(lc.fault_dropped));
  ts_->stage(c.fault_partition_dropped,
             static_cast<double>(lc.fault_partition_dropped));
  ts_->stage(c.fault_duplicated, static_cast<double>(lc.fault_duplicated));
  ts_->stage(c.fault_brownouts, static_cast<double>(lc.fault_brownouts));
  ts_->stage(c.reliable_retries, static_cast<double>(lc.reliable_retries));
  ts_->stage(c.reliable_give_ups, static_cast<double>(lc.reliable_give_ups));
  ts_->stage(c.pubsub_live, static_cast<double>(lc.pubsub.live_deliveries));
  ts_->stage(c.pubsub_suppressed,
             static_cast<double>(lc.pubsub.suppressed_deliveries));
  ts_->stage(c.pubsub_catch_up_messages,
             static_cast<double>(lc.pubsub.catch_up_messages));
  ts_->stage(c.pubsub_catch_up_reads,
             static_cast<double>(lc.pubsub.catch_up_reads));
  ts_->stage(c.pubsub_skipped_ahead,
             static_cast<double>(lc.pubsub.skipped_ahead));
  ts_->stage(c.pubsub_lagging,
             static_cast<double>(lc.pubsub.lagging_enter -
                                 lc.pubsub.lagging_exit));

  // Transport: per-kind message counts.
  const auto& kinds = meter_.kind_counts();
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    ts_->stage(c.messages[k], static_cast<double>(kinds[k]));
  }
  const net::Uplink& pu = shared_provider_uplink_ != nullptr
                              ? *shared_provider_uplink_
                              : provider_uplink_;
  ts_->stage(c.uplink_backlog, pu.backlog(t));
  ts_->stage(c.uplink_brownout, pu.bandwidth_scale() < 1.0 ? 1.0 : 0.0);

  ts_->take_sample();
}

void UpdateEngine::finish_timeseries() {
  if (ts_ == nullptr) return;
  for (Version v = 1; v <= updates_->update_count(); ++v) {
    ts_->span_publish(static_cast<std::uint64_t>(v), updates_->update_time(v));
  }
  ts_->fold_spans(spans_);
  ts_->set_replica_count(servers_.size());
}

void UpdateEngine::fold_stats() {
  const Counters& total = counters_;
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    metrics_.counter("engine.updates_acquired." + suffix).inc(total.acquired[m]);
    metrics_.counter("engine.polls." + suffix).inc(total.polls[m]);
    metrics_.counter("engine.fetches." + suffix).inc(total.fetches[m]);
    metrics_.counter("engine.invalidations." + suffix).inc(total.invalidations[m]);
  }
  metrics_.counter("engine.mode_switches").inc(total.mode_switches);
  metrics_.counter("engine.user_visits").inc(total.visits);
  metrics_.counter("engine.user_visits_unanswered").inc(total.visits_unanswered);
  metrics_.counter("fault.messages_dropped").inc(total.fault_dropped);
  metrics_.counter("fault.partition_dropped").inc(total.fault_partition_dropped);
  metrics_.counter("fault.messages_duplicated").inc(total.fault_duplicated);
  metrics_.counter("fault.brownout_transitions").inc(total.fault_brownouts);
  metrics_.counter("reliable.retries").inc(total.reliable_retries);
  metrics_.counter("reliable.give_ups").inc(total.reliable_give_ups);
  metrics_.counter("pubsub.live_deliveries").inc(total.pubsub.live_deliveries);
  metrics_.counter("pubsub.suppressed_deliveries")
      .inc(total.pubsub.suppressed_deliveries);
  metrics_.counter("pubsub.catch_up_messages")
      .inc(total.pubsub.catch_up_messages);
  metrics_.counter("pubsub.catch_up_reads").inc(total.pubsub.catch_up_reads);
  metrics_.counter("pubsub.skipped_ahead").inc(total.pubsub.skipped_ahead);
  metrics_.counter("pubsub.lagging_enter").inc(total.pubsub.lagging_enter);
  metrics_.counter("pubsub.lagging_exit").inc(total.pubsub.lagging_exit);

  // Per-server histograms fold in ascending server order, so the bucket
  // counts and the floating-point sum are independent of event interleaving.
  obs::Histogram& hist =
      metrics_.histogram("engine.inconsistency_window_s", inconsistency_bounds());
  for (const auto& s : servers_) hist.merge_from(s->inconsistency);
}

template <typename Emit>
void UpdateEngine::walk_user_rows(Emit&& emit) const {
  if (!visit_batching_) {
    for (const auto& u : users_) {
      for (const auto& row : direct_logs_->log(u->id).observations()) {
        emit(u->id, row);
      }
    }
    return;
  }
  const std::size_t ups = config_.users_per_server;
  std::vector<const std::vector<cdn::UserObservation>*> direct(ups);
  std::vector<std::size_t> cursor(ups);
  for (const auto& sp : servers_) {
    const ServerState& s = *sp;
    const trace::VisitSchedule::PerServer& plan =
        visit_plan_->servers[static_cast<std::size_t>(s.id)];
    const auto base =
        static_cast<cdn::UserId>(static_cast<std::size_t>(s.id) * ups);
    for (std::size_t k = 0; k < ups; ++k) {
      direct[k] = &direct_logs_->log(base + static_cast<cdn::UserId>(k))
                       .observations();
      cursor[k] = 0;
    }
    // Direct rows (pump visits, waiting users served or abandoned) merge
    // by request time. Blocked servers run in pump mode, so a direct row
    // and a run row never share a request time — per-user row order stays
    // exactly the strictly-increasing sequence the per-visit path produced.
    const auto emit_direct_before = [&](std::size_t k, sim::SimTime t) {
      const std::vector<cdn::UserObservation>& rows = *direct[k];
      std::size_t& di = cursor[k];
      while (di < rows.size() && rows[di].request_time < t) {
        emit(static_cast<cdn::UserId>(base + k), rows[di++]);
      }
    };
    cdn::UserObservation row;
    row.server = s.id;
    row.redirected = false;
    for (const auto& r : s.visit_log_runs) {
      row.version = r.version;
      row.answered = r.answered;
      for (std::uint32_t j = r.begin; j < r.end; ++j) {
        const std::size_t k = plan.users[j] - base;
        row.request_time = row.serve_time = plan.times[j];
        emit_direct_before(k, row.request_time);
        emit(static_cast<cdn::UserId>(base + k), row);
      }
    }
    for (std::size_t k = 0; k < ups; ++k) {
      emit_direct_before(k, std::numeric_limits<sim::SimTime>::infinity());
    }
  }
}

void UpdateEngine::fold_user_metrics() {
  struct Accumulator {
    Version next_needed = 1;  // first version this user has not yet seen
    Version max_seen = 0;
    std::size_t count = 0;
    double sum = 0;
  };
  std::vector<Accumulator> acc(users_.size());
  const Version final_version = updates_->update_count();
  std::uint64_t total = 0;
  std::uint64_t stale = 0;
  walk_user_rows([&](cdn::UserId user, const cdn::UserObservation& obs) {
    if (!obs.answered) return;
    Accumulator& a = acc[static_cast<std::size_t>(user)];
    ++total;
    if (obs.version < a.max_seen) ++stale;
    a.max_seen = std::max(a.max_seen, obs.version);
    // First serve time at which the user saw version >= v.
    while (a.next_needed <= obs.version && a.next_needed <= final_version) {
      a.sum += obs.serve_time - updates_->update_time(a.next_needed);
      ++a.next_needed;
      ++a.count;
    }
  });
  user_avg_inconsistency_.clear();
  user_avg_inconsistency_.reserve(acc.size());
  for (const Accumulator& a : acc) {
    user_avg_inconsistency_.push_back(
        a.count == 0 ? 0.0 : a.sum / static_cast<double>(a.count));
  }
  user_observed_inconsistency_fraction_ =
      total == 0 ? 0.0
                 : static_cast<double>(stale) / static_cast<double>(total);
}

void UpdateEngine::publish_run_stats() {
  if (!stats_folded_) {
    stats_folded_ = true;
    fold_stats();
    fold_user_metrics();
  }

  const sim::EventQueue::Stats& qs = sim_->queue_stats();
  metrics_.gauge("sim.events_scheduled").set(static_cast<double>(qs.pushes));
  metrics_.gauge("sim.events_fired")
      .set(static_cast<double>(sim_->events_processed()));
  metrics_.gauge("sim.events_cancelled")
      .set(static_cast<double>(qs.cancellations));
  metrics_.gauge("sim.queue_compactions")
      .set(static_cast<double>(qs.compactions));
  metrics_.gauge("sim.queue_peak_depth").set(static_cast<double>(qs.peak_live));
  metrics_.gauge("sim.end_time_s").set(sim_->now());

  const net::TrafficTotals& t = meter_.totals();
  metrics_.gauge("net.cost_km_kb").set(t.cost_km_kb);
  metrics_.gauge("net.load_km_update").set(t.load_km_update);
  metrics_.gauge("net.load_km_light").set(t.load_km_light);
  metrics_.gauge("net.messages_update")
      .set(static_cast<double>(t.update_messages));
  metrics_.gauge("net.messages_light")
      .set(static_cast<double>(t.light_messages));
  const auto& kinds = meter_.kind_counts();
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    metrics_
        .gauge("net.messages." +
               std::string(to_string(static_cast<net::MessageKind>(k))))
        .set(static_cast<double>(kinds[k]));
  }

  const net::Uplink& pu = shared_provider_uplink_ != nullptr
                              ? *shared_provider_uplink_
                              : provider_uplink_;
  metrics_.gauge("net.provider_uplink.kb_sent").set(pu.total_kb_sent());
  metrics_.gauge("net.provider_uplink.reservations")
      .set(static_cast<double>(pu.reservations()));
  metrics_.gauge("net.provider_uplink.max_backlog_s").set(pu.max_backlog_s());

  metrics_.gauge("engine.failures_injected")
      .set(static_cast<double>(failures_injected_));

  // Pub/sub gauges: relay-tree membership and the end-of-run lagging
  // residue (stranded subscribers that never confirmed the log head).
  // Unicast servers register with no relay — the provider's topic is the
  // server list itself — so they count no subscription.
  std::uint64_t subscriptions = 0;
  if (config_.infrastructure.kind != InfrastructureKind::kUnicast) {
    for (const NodeTopics& t : topics_) {
      subscriptions += t.content.size() + t.notice.size();
    }
  }
  metrics_.gauge("pubsub.subscriptions").set(static_cast<double>(subscriptions));
  metrics_.gauge("pubsub.lagging_subscribers")
      .set(static_cast<double>(counters_.pubsub.lagging_enter -
                               counters_.pubsub.lagging_exit));
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

net::Uplink& UpdateEngine::uplink_of(NodeId node) {
  if (node == kProviderNode) {
    return shared_provider_uplink_ != nullptr ? *shared_provider_uplink_
                                              : provider_uplink_;
  }
  return servers_[static_cast<std::size_t>(node)]->uplink;
}

const net::GeoPoint& UpdateEngine::location_of(NodeId node) const {
  return nodes_->location(node);
}

// Primed-site index of a node (see the prime() call in the constructor).
static std::size_t site_index(NodeId node) {
  return static_cast<std::size_t>(node + 1);
}

sim::SimTime UpdateEngine::draw_latency(NodeId from, NodeId to) {
  if (latency_.primed()) {
    return latency_.one_way_between(site_index(from), site_index(to),
                                    nodes_->crosses_isp(from, to), rng_);
  }
  // Unprimed fallback (site set above kMaxPrimedSites).
  return latency_.one_way(location_of(from), location_of(to),
                          nodes_->crosses_isp(from, to), rng_);
}

// Deliveries to an absent server are deferred until it returns
// (retransmission by the reliable transport); deliveries to a *crashed*
// server are lost — the node resynchronises when it rejoins.
void UpdateEngine::deliver_at(NodeId to, net::MessageKind kind,
                              sim::SimTime arrival, sim::EventAction action) {
  if (to == kProviderNode) {
    sim_->at(arrival, delivery_tag(kind), std::move(action));
    return;
  }
  const ServerState& dest = *servers_[static_cast<std::size_t>(to)];
  if (dest.absence) {
    const sim::SimTime available = dest.absence->available_from(arrival);
    if (available > arrival) arrival = available + 0.001;
  }
  sim_->at(arrival, delivery_tag(kind),
           [this, to, action = std::move(action)]() mutable {
             if (servers_[static_cast<std::size_t>(to)]->departed) return;
             action();
           });
}

void UpdateEngine::record_injected_drop(bool partitioned, NodeId to) {
  ++(partitioned ? counters_.fault_partition_dropped
                 : counters_.fault_dropped);
  if (config_.record_trace_events) {
    trace_.instant(partitioned ? "partition_drop" : "drop", "fault",
                   sim_->now(), to);
  }
}

// The one wire step every transmission takes: uplink serialization and
// queueing, the latency draw, the meter, then the injector's verdict. A
// dropped message has already paid the uplink and the meter: it was sent,
// then lost in flight. What happens on arrival is the caller's policy.
UpdateEngine::Wire UpdateEngine::wire(NodeId from, NodeId to,
                                      net::MessageKind kind, double size_kb) {
  obs::ProfileScope scope(profiler_, ps_send_);
  const sim::SimTime now = sim_->now();
  const sim::SimTime depart = uplink_of(from).reserve(now, size_kb);
  const sim::SimTime delay = draw_latency(from, to);
  meter_.record(kind, from, nodes_->distance_km(from, to), size_kb);
  Wire w;
  w.arrival = depart + delay;
  if (fault::Injector* injector = injector_.get()) {
    const fault::Injector::Decision d = injector->decide(from, to, now);
    if (d.drop) {
      record_injected_drop(d.partitioned, to);
      w.lost = true;
      return w;
    }
    w.arrival += d.extra_delay_s;
    if (d.duplicate) w.duplicate = w.arrival + d.duplicate_extra_delay_s;
  }
  return w;
}

void UpdateEngine::send(NodeId from, NodeId to, net::MessageKind kind,
                        double size_kb, sim::EventAction on_delivery) {
  if (config_.reliable.enabled && reliable_kind(kind)) {
    send_reliable(from, to, kind, size_kb, std::move(on_delivery));
    return;
  }
  send_unreliable(from, to, kind, size_kb, std::move(on_delivery));
}

UpdateEngine::Wire UpdateEngine::send_unreliable(NodeId from, NodeId to,
                                                 net::MessageKind kind,
                                                 double size_kb,
                                                 sim::EventAction on_delivery) {
  const Wire w = wire(from, to, kind, size_kb);
  if (w.lost) return w;
  if (w.duplicate) {
    ++counters_.fault_duplicated;
    // EventAction is move-only; both copies run the same shared action
    // (at-least-once delivery of an unreliable network).
    auto shared = std::make_shared<sim::EventAction>(std::move(on_delivery));
    deliver_at(to, kind, w.arrival, [shared] { (*shared)(); });
    deliver_at(to, kind, *w.duplicate, [shared] { (*shared)(); });
    return w;
  }
  deliver_at(to, kind, w.arrival, std::move(on_delivery));
  return w;
}

// ---------------------------------------------------------------------------
// Reliable delivery
// ---------------------------------------------------------------------------

void UpdateEngine::send_reliable(NodeId from, NodeId to, net::MessageKind kind,
                                 double size_kb, sim::EventAction on_delivery) {
  auto st = std::make_shared<ReliableState>();
  st->from = from;
  st->to = to;
  st->kind = kind;
  st->size_kb = size_kb;
  st->action = std::move(on_delivery);
  reliable_attempt(st, 0);
}

void UpdateEngine::reliable_attempt(const std::shared_ptr<ReliableState>& st,
                                    int attempt) {
  const sim::SimTime now = sim_->now();
  const Wire w = wire(st->from, st->to, st->kind, st->size_kb);
  if (w.duplicate) {
    ++counters_.fault_duplicated;
    deliver_at(st->to, st->kind, *w.duplicate,
               [this, st] { reliable_deliver(st); });
  }
  if (!w.lost) {
    deliver_at(st->to, st->kind, w.arrival,
               [this, st] { reliable_deliver(st); });
  }

  // Arm the retransmission deadline regardless of the fate of this copy —
  // the sender cannot know the message was lost, only that no ack came back.
  const sim::SimTime deadline =
      config_.reliable.ack_timeout_s *
      std::pow(config_.reliable.backoff_factor, attempt);
  sim_->at(now + deadline, kTagRetry, [this, st, attempt] {
    if (st->acked) return;
    // A crashed sender retransmits nothing; churn resync covers its state.
    if (st->from != kProviderNode &&
        servers_[static_cast<std::size_t>(st->from)]->departed) {
      return;
    }
    if (attempt >= config_.reliable.max_retries) {
      ++counters_.reliable_give_ups;
      if (config_.record_trace_events) {
        trace_.instant("give_up", "fault", sim_->now(), st->to);
      }
      // A flow-controlled pub/sub transmission settles as lost: its credit
      // frees and the subscriber re-tails the log (unless a late ack
      // already settled it).
      if (st->pubsub.has_value() && !st->pubsub->settled) {
        st->pubsub->settled = true;
        pubsub_settle(st->from, st->pubsub->channel, st->pubsub->subscriber,
                      st->pubsub->version, /*ok=*/false, st->pubsub->catch_up,
                      st->pubsub->generation);
      }
      return;
    }
    ++counters_.reliable_retries;
    reliable_attempt(st, attempt + 1);
  });
}

void UpdateEngine::reliable_deliver(const std::shared_ptr<ReliableState>& st) {
  if (!st->delivered) {
    st->delivered = true;
    st->action();
  }
  // Every delivered copy acks (retransmissions included): a lost ack causes
  // a spurious retransmission, which the delivered flag absorbs.
  send_ack(st);
}

void UpdateEngine::send_ack(const std::shared_ptr<ReliableState>& st) {
  // The ack travels to -> from; st->to is the sender here.
  const Wire w = wire(st->to, st->from, net::MessageKind::kAck,
                      config_.light_packet_kb);
  if (w.lost) return;
  // A duplicated ack is indistinguishable from one: setting `acked` twice
  // is harmless, so the duplicate is neither scheduled nor counted.
  deliver_at(st->from, net::MessageKind::kAck, w.arrival,
             [this, st] { on_ack(st); });
}

// ---------------------------------------------------------------------------
// Fault schedule (brownouts)
// ---------------------------------------------------------------------------

void UpdateEngine::schedule_brownouts() {
  if (injector_ == nullptr) return;
  for (const fault::Brownout& b : injector_->plan().brownouts) {
    sim_->at(b.start, kTagFault, [this, b] {
      uplink_of(b.node).set_bandwidth_scale(b.bandwidth_factor);
      ++counters_.fault_brownouts;
      if (config_.record_trace_events) {
        trace_.instant("brownout_start", "fault", sim_->now(), b.node);
      }
    });
    sim_->at(b.end, kTagFault, [this, b] {
      uplink_of(b.node).set_bandwidth_scale(1.0);
      ++counters_.fault_brownouts;
      if (config_.record_trace_events) {
        trace_.instant("brownout_end", "fault", sim_->now(), b.node);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Version bookkeeping and propagation
// ---------------------------------------------------------------------------

Version UpdateEngine::node_version(NodeId node) {
  if (node == kProviderNode) {
    return provider_->true_version_at(sim_->now());
  }
  return version_of(node);
}

void UpdateEngine::acquire_version(ServerState& s, Version v) {
  if (v <= version_of(s.id)) return;
  obs::ProfileScope scope(profiler_, ps_version_);
  // Pending visits observed the pre-update content; flush them before the
  // version moves (no-op while the server pumps per-visit events).
  catch_up_visits(s);
  const sim::SimTime now = sim_->now();
  version_of(s.id) = v;
  s.recorder.on_version(v, now);
  s.last_known_update_time = updates_->update_time(v);
  ++counters_.acquired[method_index(s.method)];
  // The inconsistency window for version v at this replica: origin update
  // time to local acquisition (sim time on both ends — deterministic).
  s.inconsistency.observe(now - s.last_known_update_time);
  if (ts_ != nullptr) {
    // Propagation span: the same publish->apply latency, rolled up at
    // report time.
    spans_.record(static_cast<std::uint64_t>(v),
                  now - s.last_known_update_time);
  }
  if (config_.record_trace_events) {
    trace_.complete("v" + std::to_string(v),
                    std::string(to_string(s.method)),
                    s.last_known_update_time, now, s.id);
  }
  propagate_to_children(s.id, v);
  resync_visits(s);
}

/// Sends invalidation notices for version v to this node's notice topic
/// (plain Invalidation children always; subscribed self-adaptive children
/// once per subscription).
void UpdateEngine::notify_children(NodeId node, Version v) {
  obs::ProfileScope scope(profiler_, ps_invalidate_);
  pubsub_publish(node, PubsubChannel::kNotice, v);
}

void UpdateEngine::propagate_to_children(NodeId node, Version v) {
  obs::ProfileScope scope(profiler_, ps_push_);
  pubsub_publish(node, PubsubChannel::kContent, v);
  notify_children(node, v);
}

// ---------------------------------------------------------------------------
// Pub/sub fan-out (the delivery path on every infrastructure)
// ---------------------------------------------------------------------------

// One topic walk per (relay, channel) publish. Unicast is the depth-one
// case: the provider is the only relay and every server subscribes to it.
// With flow control off the walk is the plain in-order child loop, one
// send per subscriber. With flow control on, each transmission holds one
// of the subscriber's credits and is settled by an ack (reliable mode) or
// by the sender's own arrival estimate (unreliable mode); subscribers out
// of credits are suppressed and later tail the missed versions from the
// topic log.
void UpdateEngine::pubsub_publish(NodeId node, PubsubChannel ch, Version v) {
  pubsub::Topic& topic = topic_of(node, ch);
  if (topic.empty()) return;
  SubscriptionState* subs =
      ch == PubsubChannel::kNotice ? &subs_of(node) : nullptr;
  auto allowed = [&](const pubsub::Subscriber& s) {
    if (!s.gated) return true;
    if (subs->subscribers.count(s.node) == 0 ||
        subs->notified.count(s.node) != 0) {
      return false;
    }
    subs->notified.insert(s.node);
    return true;
  };
  pubsub::Fanout fanout(topic, &flow_, counters_.pubsub);
  fanout.publish(static_cast<pubsub::SequenceNumber>(v), sim_->now(), allowed,
                 [&](pubsub::SubscriberId sid, pubsub::Subscriber&) {
                   pubsub_transmit(node, ch, sid, v, /*catch_up=*/false);
                 });
}

// Transport of one delivery (live or catch-up). Under flow control the
// subscriber's credit was taken by the walker; this function moves the
// bytes and arranges the settle that will release it.
void UpdateEngine::pubsub_transmit(NodeId relay, PubsubChannel ch,
                                   pubsub::SubscriberId sid, Version v,
                                   bool catch_up) {
  const NodeId to = topic_of(relay, ch).at(sid).node;
  ServerState& child = *servers_[static_cast<std::size_t>(to)];
  const bool content = ch == PubsubChannel::kContent;
  const net::MessageKind kind =
      content ? (catch_up ? net::MessageKind::kCatchUpUpdate
                          : net::MessageKind::kPushUpdate)
              : (catch_up ? net::MessageKind::kCatchUpNotice
                          : net::MessageKind::kInvalidation);
  const double size_kb =
      content ? config_.update_packet_kb : config_.light_packet_kb;
  sim::EventAction action;
  if (content) {
    action = [this, &child, v] { acquire_version(child, v); };
  } else {
    action = [this, &child, v] { on_invalidation(child, v); };
  }
  if (!flow_.enabled()) {
    send(relay, to, kind, size_kb, std::move(action));
    return;
  }
  if (config_.reliable.enabled) {
    auto st = std::make_shared<ReliableState>();
    st->from = relay;
    st->to = to;
    st->kind = kind;
    st->size_kb = size_kb;
    st->action = std::move(action);
    st->pubsub = ReliableState::PubsubRef{ch,       sid,
                                          v,        catch_up,
                                          pubsub_generation_, false};
    reliable_attempt(st, 0);
    return;
  }
  // Unreliable transport: nothing confirms receipt, so the sender settles
  // the credit at the nominal arrival instant of its own transmission (an
  // optimistic transport-level estimate); a copy lost to the injector
  // settles as lost at the same instant.
  const Wire w = send_unreliable(relay, to, kind, size_kb, std::move(action));
  const bool ok = !w.lost;
  const std::uint64_t gen = pubsub_generation_;
  sim_->at(w.arrival, kTagPubsubSettle,
           [this, relay, ch, sid, v, ok, catch_up, gen] {
             pubsub_settle(relay, ch, sid, v, ok, catch_up, gen);
           });
}

void UpdateEngine::pubsub_settle(NodeId relay, PubsubChannel ch,
                                 pubsub::SubscriberId sid, Version v, bool ok,
                                 bool catch_up, std::uint64_t generation) {
  if (generation != pubsub_generation_) return;  // topology was rebuilt
  pubsub::Topic& topic = topic_of(relay, ch);
  pubsub::Fanout fanout(topic, &flow_, counters_.pubsub);
  if (fanout.settle(sid, static_cast<pubsub::SequenceNumber>(v), ok,
                    catch_up)) {
    pubsub_send_tail(relay, ch, sid);
    return;
  }
  if (ok || sim_->now() >= end_time_) return;
  // The transmission was lost and the subscriber still trails the log.
  // Reliable transports spaced this loss out by their whole retry budget,
  // so they may re-tail immediately; unreliable ones re-arm on a timer —
  // an immediate re-tail would retry as fast as the link round-trips.
  if (config_.reliable.enabled) {
    if (fanout.begin_catch_up(sid)) pubsub_send_tail(relay, ch, sid);
    return;
  }
  const std::uint64_t gen = pubsub_generation_;
  sim_->at(sim_->now() + config_.pubsub.catchup_retry_s, kTagPubsubSettle,
           [this, relay, ch, sid, gen] {
             pubsub_retry_catch_up(relay, ch, sid, gen);
           });
}

void UpdateEngine::pubsub_retry_catch_up(NodeId relay, PubsubChannel ch,
                                         pubsub::SubscriberId sid,
                                         std::uint64_t generation) {
  if (generation != pubsub_generation_) return;
  if (sim_->now() >= end_time_) return;
  if (relay != kProviderNode &&
      servers_[static_cast<std::size_t>(relay)]->departed) {
    return;
  }
  pubsub::Topic& topic = topic_of(relay, ch);
  pubsub::Fanout fanout(topic, &flow_, counters_.pubsub);
  if (fanout.begin_catch_up(sid)) pubsub_send_tail(relay, ch, sid);
}

void UpdateEngine::pubsub_send_tail(NodeId relay, PubsubChannel ch,
                                    pubsub::SubscriberId sid) {
  const pubsub::Topic& topic = topic_of(relay, ch);
  const auto head = static_cast<Version>(topic.log().last_seq());
  pubsub_transmit(relay, ch, sid, head, /*catch_up=*/true);
}

void UpdateEngine::on_ack(const std::shared_ptr<ReliableState>& st) {
  st->acked = true;
  if (st->pubsub.has_value() && !st->pubsub->settled) {
    st->pubsub->settled = true;
    pubsub_settle(st->from, st->pubsub->channel, st->pubsub->subscriber,
                  st->pubsub->version, /*ok=*/true, st->pubsub->catch_up,
                  st->pubsub->generation);
  }
}

// Topics mirror infra_.children_of order, partitioned by delivery role:
// kPush children subscribe to the content topic, notice-receiving children
// to the notice topic (self-/rate-adaptive ones gated on their
// subscription). A notice topic keeps plain and gated children interleaved
// in children_of order, so the send — and uplink/RNG — sequence follows the
// topology alone. Under unicast this yields the provider-rooted topic whose
// subscribers are all servers in id order.
void UpdateEngine::rebuild_topics() {
  // In-flight confirmations refer to the ids of the topics being replaced;
  // bumping the generation drops them instead of misattributing credits.
  ++pubsub_generation_;
  topics_.assign(servers_.size() + 1, NodeTopics(config_.pubsub.log_capacity));
  for (NodeId node = kProviderNode;
       node < static_cast<NodeId>(servers_.size()); ++node) {
    NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    for (NodeId c : infra_.children_of(node)) {
      switch (infra_.method_of(c)) {
        case UpdateMethod::kPush:
          t.content.add(c, /*gated=*/false);
          break;
        case UpdateMethod::kInvalidation:
          t.notice.add(c, /*gated=*/false);
          break;
        case UpdateMethod::kSelfAdaptive:
        case UpdateMethod::kRateAdaptive:
          t.notice.add(c, /*gated=*/true);
          break;
        default:
          break;  // TTL-family children pull; nothing to deliver
      }
    }
  }
}

void UpdateEngine::meter_subscriptions() {
  if (!flow_.enabled()) return;
  // Registration is control traffic from subscriber to relay, metered like
  // tree maintenance (no uplink or latency modeled — subscriptions are
  // established before the run starts). Runs once from prepare().
  for (NodeId node = kProviderNode;
       node < static_cast<NodeId>(servers_.size()); ++node) {
    const NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    const auto register_subs = [&](const pubsub::Topic& topic) {
      for (const pubsub::Subscriber& s : topic.subscribers()) {
        meter_.record(net::MessageKind::kSubscribe, s.node,
                      nodes_->distance_km(s.node, node),
                      config_.light_packet_kb);
      }
    };
    register_subs(t.content);
    register_subs(t.notice);
  }
}

void UpdateEngine::on_provider_update(Version v) {
  propagate_to_children(kProviderNode, v);
}

// ---------------------------------------------------------------------------
// Parent-side request handling
// ---------------------------------------------------------------------------

void UpdateEngine::handle_poll_at_parent(NodeId parent, NodeId child) {
  obs::ProfileScope scope(profiler_, ps_poll_);
  ServerState& child_state = *servers_[static_cast<std::size_t>(child)];
  // Compares against the child's live version (an idealization — the
  // request does not carry it — that the golden pins depend on).
  const Version child_version = version_of(child_state.id);
  Version v;
  if (parent == kProviderNode) {
    // Origin staleness (Section 3.4.2) is visible to pollers.
    v = provider_->served_version_at(sim_->now());
  } else {
    v = version_of(parent);
  }
  const bool fresh = v > child_version;
  const net::MessageKind kind = fresh ? net::MessageKind::kPollResponseFresh
                                      : net::MessageKind::kPollResponseNoop;
  const double size = fresh ? config_.update_packet_kb : config_.light_packet_kb;
  send(parent, child, kind, size,
       [this, &child_state, v, fresh] { on_poll_response(child_state, v, fresh); });
}

void UpdateEngine::handle_fetch_at_parent(NodeId parent, NodeId child) {
  obs::ProfileScope scope(profiler_, ps_fetch_);
  SubscriptionState& subs = subs_of(parent);
  if (infra_.method_of(child) == UpdateMethod::kRateAdaptive) {
    // Rate-adaptive children stay subscribed across fetches; clearing the
    // notified flag re-arms the aggregated notice for the next update.
    subs.notified.erase(child);
  } else {
    // A fetch request from a self-adaptive child carries its switch-back
    // notice: unsubscribe it.
    subs.subscribers.erase(child);
    subs.notified.erase(child);
  }

  if (parent != kProviderNode) {
    ServerState& p = *servers_[static_cast<std::size_t>(parent)];
    if (p.invalidation_active() && p.invalid_known > version_of(p.id)) {
      // Parent is itself invalid: fetch upward first, answer the child when
      // content arrives (recursive invalidation in a multicast tree).
      p.pending_child_fetches.push_back(child);
      if (!p.fetch_in_flight) begin_fetch(p);
      return;
    }
  }
  answer_fetch(parent, child);
}

void UpdateEngine::answer_fetch(NodeId parent, NodeId child) {
  obs::ProfileScope scope(profiler_, ps_fetch_);
  const Version v = node_version(parent);
  ServerState& child_state = *servers_[static_cast<std::size_t>(child)];
  send(parent, child, net::MessageKind::kFetchResponse, config_.update_packet_kb,
       [this, &child_state, v] { on_fetch_response(child_state, v); });
}

// ---------------------------------------------------------------------------
// Server-side behaviour
// ---------------------------------------------------------------------------

sim::SimTime UpdateEngine::current_ttl(const ServerState& s) const {
  if (s.method == UpdateMethod::kAdaptiveTtl) {
    const double age =
        std::max(0.0, sim_->now() - s.last_known_update_time);
    return std::clamp(config_.method.adaptive_factor * age,
                      config_.method.adaptive_min_ttl_s,
                      config_.method.adaptive_max_ttl_s);
  }
  return config_.method.server_ttl_s;
}

void UpdateEngine::start_server(ServerState& s) {
  if (!uses_polling(s.method)) return;
  ServerState* sp = &s;
  s.poll_timer = std::make_unique<sim::PeriodicTimer>(
      *sim_, config_.method.server_ttl_s, [this, sp] { poll_tick(*sp); },
      kTagPollTick);
  s.poll_timer->attach_profiler(profiler_, ps_timer_);
  // Servers start with uniformly random phase in [0, TTL) — the paper's
  // assumption behind E[I] = TTL/2 (Section 3.4.1).
  s.poll_timer->start_after(rng_.uniform(0.0, config_.method.server_ttl_s));
  if (s.method == UpdateMethod::kRateAdaptive) {
    s.adapt_timer = std::make_unique<sim::PeriodicTimer>(
        *sim_, config_.method.rate_window_s,
        [this, sp] { rate_adapt_tick(*sp); }, kTagAdaptTick);
    s.adapt_timer->attach_profiler(profiler_, ps_timer_);
    s.adapt_timer->start();
  }
}

/// Rate-adaptive controller (Section 6 future work): once per window,
/// compare the replica's visits to the updates it observed and pick the
/// cheaper mode — TTL polling when visitors keep pace with updates,
/// invalidation subscription otherwise.
void UpdateEngine::rate_adapt_tick(ServerState& s) {
  if (sim_->now() >= end_time_) {
    s.adapt_timer->stop();
    return;
  }
  // The controller reads visits_in_window: count the backlog first.
  catch_up_visits(s);
  const auto updates = static_cast<double>(
      std::max<Version>(version_of(s.id), s.invalid_known) -
      s.version_at_window_start);
  const auto visits = static_cast<double>(s.visits_in_window);
  s.version_at_window_start = std::max<Version>(version_of(s.id), s.invalid_known);
  s.visits_in_window = 0;
  if (s.departed) return;

  const bool want_ttl =
      updates > 0 && visits >= config_.method.rate_hysteresis * updates;
  if (want_ttl && s.sa_in_invalidation_mode) {
    switch_to_ttl_mode(s);
  } else if (!want_ttl && !s.sa_in_invalidation_mode) {
    switch_to_invalidation_mode(s);
  }
}

/// Leaves invalidation mode: notifies the parent (unsubscribe), resumes the
/// poll timer, and repairs any known staleness immediately.
void UpdateEngine::switch_to_ttl_mode(ServerState& s) {
  obs::ProfileScope scope(profiler_, ps_mode_switch_);
  catch_up_visits(s);
  s.sa_in_invalidation_mode = false;
  ++counters_.mode_switches;
  if (config_.record_trace_events) {
    trace_.instant("switch_to_ttl", std::string(to_string(s.method)),
                   sim_->now(), s.id);
  }
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kSwitchNotice, config_.light_packet_kb,
       [this, parent, self] {
         SubscriptionState& subs = subs_of(parent);
         subs.subscribers.erase(self);
         subs.notified.erase(self);
       });
  if (s.poll_timer) s.poll_timer->start_after(rng_.uniform(
      0.0, config_.method.server_ttl_s));
  if (s.invalid_known > version_of(s.id) && !s.fetch_in_flight) begin_fetch(s);
  resync_visits(s);
}

void UpdateEngine::poll_tick(ServerState& s) {
  obs::ProfileScope scope(profiler_, ps_poll_);
  if (sim_->now() >= end_time_) {
    s.poll_timer->stop();
    return;
  }
  if (s.method == UpdateMethod::kAdaptiveTtl) {
    s.poll_timer->set_period(current_ttl(s));
  }
  if (s.departed) return;                      // crashed: no activity at all
  if (s.absent_at(sim_->now())) return;  // overloaded: poll skipped
  ++counters_.polls[method_index(s.method)];
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kPollRequest, config_.light_packet_kb,
       [this, parent, self] { handle_poll_at_parent(parent, self); });
}

void UpdateEngine::on_poll_response(ServerState& s, Version v, bool fresh) {
  obs::ProfileScope scope(profiler_, ps_poll_);
  if (fresh) {
    acquire_version(s, v);
    return;
  }
  // No update during a whole TTL: Algorithm 1 switches to Invalidation.
  if (s.method == UpdateMethod::kSelfAdaptive && !s.sa_in_invalidation_mode) {
    switch_to_invalidation_mode(s);
  }
}

void UpdateEngine::switch_to_invalidation_mode(ServerState& s) {
  obs::ProfileScope scope(profiler_, ps_mode_switch_);
  catch_up_visits(s);
  s.sa_in_invalidation_mode = true;
  ++counters_.mode_switches;
  if (config_.record_trace_events) {
    trace_.instant("switch_to_invalidation", std::string(to_string(s.method)),
                   sim_->now(), s.id);
  }
  if (s.poll_timer) s.poll_timer->stop();
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kSwitchNotice, config_.light_packet_kb,
       [this, parent, self] {
         SubscriptionState& subs = subs_of(parent);
         subs.subscribers.insert(self);
         subs.notified.erase(self);
         // If the parent is already ahead of the child, the child missed an
         // update that happened during its last TTL window; notify at once
         // so the next visit repairs it. Compares the child's live version
         // (the idealization the golden pins depend on).
         ServerState& child = *servers_[static_cast<std::size_t>(self)];
         const Version pv = node_version(parent);
         if (pv > version_of(self)) {
           subs.notified.insert(self);
           send(parent, self, net::MessageKind::kInvalidation,
                config_.light_packet_kb,
                [this, &child, pv] { on_invalidation(child, pv); });
         }
       });
  resync_visits(s);
}

void UpdateEngine::on_invalidation(ServerState& s, Version v) {
  obs::ProfileScope scope(profiler_, ps_invalidate_);
  // Visits before this notice saw valid content: flush them before the
  // server turns blocked.
  catch_up_visits(s);
  ++counters_.invalidations[method_index(s.method)];
  s.invalid_known = std::max(s.invalid_known, v);
  // Invalidation notices flood down to notice-receiving children (multicast
  // invalidation propagates the notice immediately, content on demand).
  notify_children(s.id, v);
  resync_visits(s);
}

void UpdateEngine::begin_fetch(ServerState& s) {
  obs::ProfileScope scope(profiler_, ps_fetch_);
  CDNSIM_EXPECTS(!s.fetch_in_flight, "fetch already in flight");
  s.fetch_in_flight = true;
  ++counters_.fetches[method_index(s.method)];
  issue_fetch_request(s);
  // Fetch is a request/response RPC: the requester guards the whole exchange
  // (a lost kFetchRequest has no sender-side ack to trigger retransmission).
  if (config_.reliable.enabled) arm_fetch_guard(s, 0);
}

void UpdateEngine::issue_fetch_request(ServerState& s) {
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kFetchRequest, config_.light_packet_kb,
       [this, parent, self] { handle_fetch_at_parent(parent, self); });
}

void UpdateEngine::arm_fetch_guard(ServerState& s, int attempt) {
  ++s.fetch_epoch;
  const std::uint64_t epoch = s.fetch_epoch;
  // 2x the one-way ack timeout: the guard covers a round trip plus the
  // response transmission.
  const sim::SimTime deadline =
      2.0 * config_.reliable.ack_timeout_s *
      std::pow(config_.reliable.backoff_factor, attempt);
  ServerState* sp = &s;
  sim_->at(sim_->now() + deadline, kTagRetry, [this, sp, epoch, attempt] {
    ServerState& srv = *sp;
    if (srv.fetch_epoch != epoch || !srv.fetch_in_flight || srv.departed) {
      return;
    }
    if (attempt >= config_.reliable.max_retries) {
      give_up_fetch(srv);
      return;
    }
    ++counters_.reliable_retries;
    issue_fetch_request(srv);
    arm_fetch_guard(srv, attempt + 1);
  });
}

void UpdateEngine::give_up_fetch(ServerState& s) {
  ++counters_.reliable_give_ups;
  const sim::SimTime now = sim_->now();
  if (config_.record_trace_events) {
    trace_.instant("give_up", "fault", now, s.id);
  }
  s.fetch_in_flight = false;
  // Users caught waiting on the abandoned fetch see a failed request, the
  // same observable outcome as a server crash mid-fetch. (No visit hooks:
  // the server stays blocked — invalid_known still ahead — so the pump
  // keeps firing, and the next pump visit re-triggers the fetch.)
  for (const auto& w : s.waiting_users) {
    cdn::UserObservation obs;
    obs.request_time = w.request_time;
    obs.serve_time = now;
    obs.server = s.id;
    obs.redirected = w.redirected;
    obs.answered = false;
    if (config_.record_user_logs) direct_logs_->log(w.user->id).add(obs);
  }
  s.waiting_users.clear();
  s.pending_child_fetches.clear();
}

void UpdateEngine::on_fetch_response(ServerState& s, Version v) {
  obs::ProfileScope scope(profiler_, ps_fetch_);
  s.fetch_in_flight = false;
  acquire_version(s, v);
  if (s.invalidation_active() && s.invalid_known > version_of(s.id)) {
    // A newer invalidation raced past our fetch; fetch again.
    begin_fetch(s);
    return;
  }
  // Self-adaptive: first visited fetch after an invalidation switches the
  // method back to TTL (the fetch request carried the switch notice).
  if (s.method == UpdateMethod::kSelfAdaptive && s.sa_in_invalidation_mode) {
    s.sa_in_invalidation_mode = false;
    if (s.poll_timer) s.poll_timer->start_after(config_.method.server_ttl_s);
  }
  const sim::SimTime now = sim_->now();
  // Serve users that were waiting on this fetch.
  auto waiting = std::move(s.waiting_users);
  s.waiting_users.clear();
  for (const auto& w : waiting) {
    deliver_to_user(s, *w.user, w.request_time, now, w.redirected);
  }
  // Answer children whose fetches were queued behind ours.
  auto pending = std::move(s.pending_child_fetches);
  s.pending_child_fetches.clear();
  for (NodeId c : pending) answer_fetch(s.id, c);
  // acquire_version resynced already; the mode switch-back above cannot
  // change blockedness (it only happens with no staleness left), so this is
  // a harmless safety net.
  resync_visits(s);
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

void UpdateEngine::schedule_next_failure() {
  if (config_.churn.failures_per_hour <= 0) return;
  const sim::SimTime gap =
      rng_.exponential(3600.0 / config_.churn.failures_per_hour);
  const sim::SimTime when = sim_->now() + gap;
  if (when >= end_time_) return;
  sim_->at(when, kTagChurn, [this] {
    // Pick a random live server; skip the round if everything is down.
    std::vector<ServerState*> live;
    for (auto& s : servers_) {
      if (!s->departed) live.push_back(s.get());
    }
    if (!live.empty()) fail_node(*live[rng_.index(live.size())]);
    schedule_next_failure();
  });
}

void UpdateEngine::fail_node(ServerState& s) {
  CDNSIM_EXPECTS(!s.departed, "server already failed");
  // Visits before the crash saw the live server.
  catch_up_visits(s);
  ++failures_injected_;
  s.departed = true;
  if (config_.record_trace_events) {
    trace_.instant("fail", "churn", sim_->now(), s.id);
  }
  if (s.poll_timer) s.poll_timer->stop();
  // Users caught waiting on a fetch see a failed request.
  for (const auto& w : s.waiting_users) {
    cdn::UserObservation obs;
    obs.request_time = w.request_time;
    obs.serve_time = sim_->now();
    obs.server = s.id;
    obs.redirected = w.redirected;
    obs.answered = false;
    if (config_.record_user_logs) direct_logs_->log(w.user->id).add(obs);
  }
  s.waiting_users.clear();
  s.pending_child_fetches.clear();
  s.fetch_in_flight = false;

  if (config_.churn.repair_enabled) {
    const RepairReport report = infra_.fail_server(s.id, rng_);
    apply_repair(report);
  }
  // Schedule the node's return.
  const sim::SimTime downtime =
      std::max(1.0, rng_.exponential(config_.churn.downtime_mean_s));
  ServerState* sp = &s;
  sim_->at(sim_->now() + downtime, kTagChurn, [this, sp] { restore_node(*sp); });
  resync_visits(s);
}

void UpdateEngine::restore_node(ServerState& s) {
  // Visits during the outage were unanswered; count them before the flip.
  catch_up_visits(s);
  s.departed = false;
  if (config_.record_trace_events) {
    trace_.instant("restore", "churn", sim_->now(), s.id);
  }
  if (config_.churn.repair_enabled) {
    const RepairReport report = infra_.restore_server(s.id, rng_);
    apply_repair(report);
  }
  s.method = infra_.method_of(s.id);
  s.sa_in_invalidation_mode = false;
  s.fetch_in_flight = false;
  ensure_polling(s);
  // Anti-entropy on rejoin: fetch the current content from the parent so
  // push-based subtrees do not stay permanently behind.
  begin_fetch(s);
  resync_visits(s);
}

void UpdateEngine::apply_repair(const RepairReport& report) {
  obs::ProfileScope scope(profiler_, ps_repair_);
  // Every caller just mutated infra_ (fail/restore re-parenting, method
  // flips, supernode promotion), so the topics are stale.
  rebuild_topics();
  for (const RepairEdge& edge : report.new_edges) {
    meter_.record(net::MessageKind::kTreeMaintenance, edge.child,
                  nodes_->distance_km(edge.child, edge.new_parent),
                  config_.light_packet_kb);
    ServerState& child = *servers_[static_cast<std::size_t>(edge.child)];
    // Re-parenting can change the child's method (and with it blockedness).
    catch_up_visits(child);
    child.method = infra_.method_of(child.id);
    // A fetch aimed at the failed parent would never complete: re-issue it
    // toward the new parent.
    if (child.fetch_in_flight) {
      child.fetch_in_flight = false;
      begin_fetch(child);
    }
    // Self-adaptive children in invalidation mode re-subscribe at the new
    // parent (their old subscription died with the failed node).
    if (child.method == UpdateMethod::kSelfAdaptive &&
        child.sa_in_invalidation_mode) {
      SubscriptionState& subs = subs_of(edge.new_parent);
      subs.subscribers.insert(child.id);
      subs.notified.erase(child.id);
    }
    // Push children may have lost updates between crash and repair: the new
    // parent brings them up to date.
    if (child.method == UpdateMethod::kPush && !child.departed) {
      const Version v = node_version(edge.new_parent);
      if (v > version_of(child.id)) {
        ServerState* cp = &child;
        send(edge.new_parent, child.id, net::MessageKind::kPushUpdate,
             config_.update_packet_kb, [this, cp, v] { acquire_version(*cp, v); });
      }
    }
    resync_visits(child);
  }
  if (report.promoted_supernode) {
    ServerState& sn =
        *servers_[static_cast<std::size_t>(*report.promoted_supernode)];
    catch_up_visits(sn);
    sn.method = UpdateMethod::kPush;
    sn.sa_in_invalidation_mode = false;
    ensure_polling(sn);  // stops the poll timer (Push does not poll)
    if (!sn.departed && !sn.fetch_in_flight) begin_fetch(sn);
    resync_visits(sn);
  }
}

void UpdateEngine::ensure_polling(ServerState& s) {
  if (!uses_polling(s.method)) {
    if (s.poll_timer) s.poll_timer->stop();
    if (s.adapt_timer) s.adapt_timer->stop();
    return;
  }
  ServerState* sp = &s;
  if (!s.poll_timer) {
    s.poll_timer = std::make_unique<sim::PeriodicTimer>(
        *sim_, config_.method.server_ttl_s, [this, sp] { poll_tick(*sp); },
        kTagPollTick);
    s.poll_timer->attach_profiler(profiler_, ps_timer_);
  }
  s.poll_timer->set_period(config_.method.server_ttl_s);
  s.poll_timer->start_after(rng_.uniform(0.0, config_.method.server_ttl_s));
  if (s.method == UpdateMethod::kRateAdaptive) {
    if (!s.adapt_timer) {
      s.adapt_timer = std::make_unique<sim::PeriodicTimer>(
          *sim_, config_.method.rate_window_s,
          [this, sp] { rate_adapt_tick(*sp); }, kTagAdaptTick);
      s.adapt_timer->attach_profiler(profiler_, ps_timer_);
    }
    if (!s.adapt_timer->running()) s.adapt_timer->start();
  }
}

// ---------------------------------------------------------------------------
// Users — legacy per-visit path
// ---------------------------------------------------------------------------

void UpdateEngine::start_users() {
  const bool dns_mode = config_.user_attachment == UserAttachment::kDnsCache;
  const std::size_t total_users =
      dns_mode ? config_.dns_user_count : config_.users_per_server * servers_.size();
  direct_logs_ = std::make_unique<cdn::UserPopulationLog>(total_users);
  users_.reserve(total_users);

  std::vector<net::Placement> dns_placements;
  if (dns_mode) {
    util::Rng placement_rng = rng_.fork(0xd5u);
    dns_placements =
        net::place_nodes(total_users, config_.dns_user_placement, placement_rng);
    dns_ = std::make_unique<cdn::DnsSystem>(*nodes_, config_.dns, rng_.fork(0xd50));
  }

  for (std::size_t i = 0; i < total_users; ++i) {
    auto u = std::make_unique<UserState>();
    u->id = static_cast<cdn::UserId>(i);
    if (dns_mode) {
      u->location = dns_placements[i].location;
      u->home_server = 0;  // unused; resolution happens per visit
      const cdn::UserId registered = dns_->register_user(u->location);
      CDNSIM_EXPECTS(registered == u->id, "DNS user ids must match engine ids");
    } else {
      u->home_server = static_cast<NodeId>(i / config_.users_per_server);
      u->location = nodes_->location(u->home_server);
    }
    if (!visit_batching_) {
      UserState* up = u.get();
      u->visit_timer = std::make_unique<sim::PeriodicTimer>(
          *sim_, config_.user_poll_period_s, [this, up] { user_visit(*up); },
          kTagUserVisit);
      u->visit_timer->attach_profiler(profiler_, ps_timer_);
      u->visit_timer->start_after(rng_.uniform(0.0, config_.user_start_window_s));
    }
    users_.push_back(std::move(u));
  }

  if (visit_batching_) {
    // build_visit_schedule draws the per-user phases in user-id order —
    // exactly the draws the timer setup above would have made, so the
    // engine RNG advances identically on both paths.
    visit_plan_ = std::make_unique<trace::VisitSchedule>(trace::build_visit_schedule(
        servers_.size(), config_.users_per_server, config_.user_poll_period_s,
        config_.user_start_window_s, end_time_, rng_));
    // No server starts blocked, so none needs a visit event yet.
    for (auto& s : servers_) {
      const auto& times =
          visit_plan_->servers[static_cast<std::size_t>(s->id)].times;
      s->next_visit_time =
          times.empty() ? std::numeric_limits<sim::SimTime>::infinity()
                        : times.front();
    }
  }
}

void UpdateEngine::user_visit(UserState& u) {
  if (sim_->now() >= end_time_) {
    u.visit_timer->stop();
    return;
  }
  NodeId target = u.home_server;
  if (config_.user_attachment == UserAttachment::kSwitchEveryVisit) {
    target = static_cast<NodeId>(rng_.index(servers_.size()));
  } else if (config_.user_attachment == UserAttachment::kDnsCache) {
    target = dns_->resolve(u.id, sim_->now()).server;
  }
  ++counters_.visits;
  const bool redirected = u.last_server != -2 && target != u.last_server;
  u.last_server = target;
  ServerState& s = *servers_[static_cast<std::size_t>(target)];
  if (s.departed || s.absent_at(sim_->now())) {
    ++counters_.visits_unanswered;
    cdn::UserObservation obs;
    obs.request_time = obs.serve_time = sim_->now();
    obs.server = target;
    obs.version = 0;
    obs.redirected = redirected;
    obs.answered = false;
    if (config_.record_user_logs) direct_logs_->log(u.id).add(obs);
    if (config_.record_poll_log) {
      poll_log_.add({target, sim_->now(), 0, /*answered=*/false});
    }
    return;
  }
  serve_user(s, u, sim_->now(), redirected);
}

void UpdateEngine::serve_user(ServerState& s, UserState& u, sim::SimTime request_time,
                              bool redirected) {
  if (s.method == UpdateMethod::kRateAdaptive) ++s.visits_in_window;
  if (s.invalidation_active() && s.invalid_known > version_of(s.id)) {
    // Content is invalid: fetch before serving (Invalidation semantics).
    s.waiting_users.push_back({&u, request_time, redirected});
    if (!s.fetch_in_flight) begin_fetch(s);
    return;
  }
  deliver_to_user(s, u, request_time, sim_->now(), redirected);
}

void UpdateEngine::deliver_to_user(ServerState& s, UserState& u,
                                   sim::SimTime request_time, sim::SimTime serve_time,
                                   bool redirected) {
  cdn::UserObservation obs;
  obs.request_time = request_time;
  obs.serve_time = serve_time;
  obs.server = s.id;
  obs.version = version_of(s.id);
  obs.redirected = redirected;
  obs.answered = true;
  if (config_.record_user_logs) direct_logs_->log(u.id).add(obs);
  if (config_.record_poll_log) {
    poll_log_.add({s.id, serve_time, version_of(s.id), /*answered=*/true});
  }
}

// ---------------------------------------------------------------------------
// Users — batched path
// ---------------------------------------------------------------------------

// A "blocked" server must see visits at their exact arrival times: each one
// joins waiting_users and may trigger a fetch, so bulk processing would
// change behaviour. Everywhere else a pinned-local visit is a pure read.
bool UpdateEngine::visit_pump_needed(const ServerState& s) const {
  return !s.departed && s.invalidation_active() &&
         s.invalid_known > version_of(s.id);
}

void UpdateEngine::catch_up_visits(ServerState& s) {
  // Hot-path early-out: callers flush before *every* state mutation and
  // most flushes find an empty window (ROADMAP hot spot #1).
  // next_visit_time mirrors plan.times[visit_cursor] (+inf when exhausted
  // or unbatched), so the empty case is one comparison instead of a plan
  // chase into the walk.
  if (!s.has_pending_visits_before(sim_->now())) return;
  catch_up_visits_until(s, sim_->now());
}

// Bulk-processes the server's pending visits strictly before `upto`.
// Callers invoke this immediately BEFORE any mutation of user-visible
// server state (version, invalid_known, departed, method), so every visit
// in the backlog is evaluated against the state that held when it arrived.
void UpdateEngine::catch_up_visits_until(ServerState& s, sim::SimTime upto) {
  if (!visit_batching_) return;
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  std::size_t i = s.visit_cursor;
  const std::size_t n = plan.times.size();
  if (i >= n || plan.times[i] >= upto) return;
  // A blocked server runs in pump mode, which keeps the cursor current —
  // so the early return above always fires first for it. (Order matters:
  // this guard must come after that return, not before.)
  CDNSIM_EXPECTS(!visit_pump_needed(s),
                 "bulk visit walk while the server is blocked");
  const bool rate_adaptive = s.method == UpdateMethod::kRateAdaptive;
  const bool record_logs = config_.record_user_logs;
  Counters& c = counters_;
  // The server's user-visible state cannot change inside one walk — every
  // caller flushes the backlog *before* mutating — so the branch structure
  // is hoisted out of the per-visit loop. Users are pinned (plan.users[i]
  // IS the user id) and a bulk visit is a pure read, so the common path
  // below never touches UserState at all.
  if (!s.departed && s.absence == nullptr) {
    // Fast path: every pending visit is answered with the same version, so
    // the whole window collapses to a range scan plus (when logging) one
    // run-length record — no per-visit work at all.
    const std::size_t begin = i;
    // Linear, not lower_bound: the cursor advances a handful of entries per
    // call, so a sequential scan beats a binary search over the whole tail.
    while (i < n && plan.times[i] < upto) ++i;
    if (record_logs && i > begin) {
      s.visit_log_runs.push_back({static_cast<std::uint32_t>(begin),
                                  static_cast<std::uint32_t>(i),
                                  version_of(s.id), true});
    }
    const std::uint64_t count = i - begin;
    c.visits += count;
    if (rate_adaptive) s.visits_in_window += count;
  } else {
    std::uint64_t visits = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t in_window = 0;
    const Version version = version_of(s.id);
    // Coalesce the walk into maximal same-outcome runs (answered flips only
    // at absence-window edges, so runs are long).
    std::size_t run_begin = i;
    bool run_answered = false;
    const auto flush_run = [&](std::size_t end) {
      if (!record_logs || end == run_begin) return;
      s.visit_log_runs.push_back({static_cast<std::uint32_t>(run_begin),
                                  static_cast<std::uint32_t>(end),
                                  run_answered ? version : 0, run_answered});
    };
    while (i < n && plan.times[i] < upto) {
      const sim::SimTime t = plan.times[i];
      ++visits;
      const bool answered = !(s.departed || s.absent_at(t));
      if (i != run_begin && answered != run_answered) {
        flush_run(i);
        run_begin = i;
      }
      run_answered = answered;
      if (!answered) {
        ++unanswered;
      } else if (rate_adaptive) {
        ++in_window;
      }
      ++i;
    }
    flush_run(i);
    c.visits += visits;
    c.visits_unanswered += unanswered;
    s.visits_in_window += in_window;
  }
  s.visit_cursor = i;
  s.next_visit_time =
      i < n ? plan.times[i] : std::numeric_limits<sim::SimTime>::infinity();
}

// Called immediately AFTER any state mutation that may change blockedness:
// arms the pump event when the server became blocked, drops it when it
// became unblocked (a pending visit event exists exactly while pumping).
void UpdateEngine::resync_visits(ServerState& s) {
  if (!visit_batching_) return;
  if (visit_pump_needed(s) == s.visit_event.pending()) return;
  schedule_visit_event(s);
}

void UpdateEngine::schedule_visit_event(ServerState& s) {
  s.visit_event.cancel();
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  if (s.visit_cursor >= plan.times.size() || !visit_pump_needed(s)) return;
  // Blocked: the next visit must fire at its exact arrival time.
  ServerState* sp = &s;
  s.visit_event = sim_->at(plan.times[s.visit_cursor], kTagUserVisit,
                           [this, sp] { pump_visit(*sp); });
}

// One visit at its exact arrival time — the blocked-server slow path,
// mirroring the legacy user_visit() for a pinned user.
void UpdateEngine::pump_visit(ServerState& s) {
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  CDNSIM_EXPECTS(s.visit_cursor < plan.times.size(), "pump past the schedule");
  const sim::SimTime now = sim_->now();
  // Pinned attachment: batched visits never redirect, so last_server (a
  // legacy-path concern) is left untouched.
  UserState& u = *users_[plan.users[s.visit_cursor]];
  ++s.visit_cursor;
  s.next_visit_time = s.visit_cursor < plan.times.size()
                          ? plan.times[s.visit_cursor]
                          : std::numeric_limits<sim::SimTime>::infinity();
  ++counters_.visits;
  if (s.departed || s.absent_at(now)) {
    ++counters_.visits_unanswered;
    if (config_.record_user_logs) {
      cdn::UserObservation obs;
      obs.request_time = obs.serve_time = now;
      obs.server = s.id;
      obs.version = 0;
      obs.redirected = false;
      obs.answered = false;
      direct_logs_->log(u.id).add(obs);
    }
  } else {
    serve_user(s, u, now, false);
  }
  schedule_visit_event(s);
}

// Horizon handling for one server: stop periodic activity and flush the
// tail of the visit schedule (every scheduled visit is < end_time_).
void UpdateEngine::horizon_server(ServerState& s) {
  if (s.poll_timer) s.poll_timer->stop();
  if (s.adapt_timer) s.adapt_timer->stop();
  if (!visit_batching_) return;
  catch_up_visits_until(s, end_time_);
  s.visit_event.cancel();
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

void UpdateEngine::run() {
  prepare();
  if (ts_ == nullptr) {
    sim_->run();
  } else {
    // Grid-driven execution: run strictly up to each sample point, record
    // the row, repeat. The loop's final row lands on the first grid point
    // strictly after the last event, so the delta columns' totals cover
    // the whole run (check_obs.py reconciles them against the registry).
    for (;;) {
      sim_->run_before(ts_->next_sample_time());
      sample_timeseries();
      if (sim_->drained()) break;
    }
  }
  finish_timeseries();
  publish_run_stats();
}

void UpdateEngine::prepare() {
  CDNSIM_EXPECTS(!ran_, "UpdateEngine may only be prepared/run once");
  ran_ = true;

  // Last engine prepared on a shared Simulator wins the profiler slot;
  // profiled runs use one engine per simulator (BatchRunner jobs).
  if (profiler_ != nullptr) sim_->attach_profiler(profiler_, tag_slots_);

  meter_subscriptions();
  for (auto& s : servers_) start_server(*s);
  start_users();

  for (Version v = 1; v <= updates_->update_count(); ++v) {
    const sim::SimTime t = updates_->update_time(v);
    sim_->at(t, kTagProviderUpdate, [this, v] { on_provider_update(v); });
  }

  schedule_next_failure();
  schedule_brownouts();

  // Stop all periodic activity at the horizon; in-flight messages drain.
  sim_->at(end_time_, kTagHorizon, [this] {
    for (auto& s : servers_) horizon_server(*s);
    for (auto& u : users_) {
      if (u->visit_timer) u->visit_timer->stop();
    }
  });
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

const cdn::ReplicaRecorder& UpdateEngine::recorder(NodeId server) const {
  CDNSIM_EXPECTS(server >= 0 && static_cast<std::size_t>(server) < servers_.size(),
                 "unknown server id");
  return servers_[static_cast<std::size_t>(server)]->recorder;
}

std::vector<double> UpdateEngine::server_avg_inconsistency() const {
  std::vector<double> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    out.push_back(s->recorder.average_inconsistency(*updates_));
  }
  return out;
}

const cdn::UserPopulationLog& UpdateEngine::user_logs() const {
  if (!visit_batching_) return *direct_logs_;
  CDNSIM_EXPECTS(stats_folded_,
                 "user_logs() is valid after run() or publish_run_stats()");
  if (merged_logs_ == nullptr) {
    auto logs = std::make_unique<cdn::UserPopulationLog>(users_.size());
    walk_user_rows([&](cdn::UserId user, const cdn::UserObservation& obs) {
      logs->log(user).add(obs);
    });
    merged_logs_ = std::move(logs);
  }
  return *merged_logs_;
}

std::vector<double> UpdateEngine::user_avg_inconsistency() const {
  CDNSIM_EXPECTS(stats_folded_, "user metrics are folded by publish_run_stats()");
  return user_avg_inconsistency_;
}

std::vector<double> UpdateEngine::per_server_max_user_inconsistency() const {
  return per_server_max_user_inconsistency(user_avg_inconsistency());
}

std::vector<double> UpdateEngine::per_server_max_user_inconsistency(
    const std::vector<double>& per_user) const {
  std::vector<double> out(servers_.size(), 0.0);
  for (std::size_t i = 0; i < per_user.size(); ++i) {
    const std::size_t server = i / config_.users_per_server;
    out[server] = std::max(out[server], per_user[i]);
  }
  return out;
}

double UpdateEngine::user_observed_inconsistency_fraction() const {
  CDNSIM_EXPECTS(stats_folded_, "user metrics are folded by publish_run_stats()");
  return user_observed_inconsistency_fraction_;
}

}  // namespace cdnsim::consistency

// Extension experiment: topic fan-out at scale (ROADMAP item 2).
//
// The paper's HAT infrastructure could only be measured at ~170 servers.
// This sweep drives the pub/sub layer itself — pubsub::Topic /
// pubsub::UpdateLog / pubsub::Fanout / pubsub::FlowController over a
// net::Uplink transport in a discrete-event sim — to 10^3..10^6
// subscribers per topic, the regime where the engine's nearest-neighbour
// tree construction cannot follow but the delivery layer's own
// bottlenecks appear:
//
//  * fan-out latency: one relay serializes every copy through its uplink,
//    so the last subscriber's delivery lag grows linearly with the
//    subscriber count — past the knee (wave time > update gap) the
//    backlog compounds across updates;
//  * ack-implosion: reliable delivery (Push+retry) adds one ack per copy
//    plus retries, roughly doubling the message count exactly where the
//    uplink is already the binding resource;
//  * backpressure: with a credit window, subscribers whose previous copy
//    has not settled stop receiving live pushes (suppressed, marked
//    lagging) and instead tail the topic's UpdateLog on drain — stranded
//    replicas become bounded-staleness catch-up and every cursor still
//    reaches the head.
//
// Grid: subscribers x {Push, Invalidation, Push+retry} x flow {off, on}.
// Push fans out full content packets, Invalidation only small notices,
// Push+retry adds per-copy loss with ack-timeout retries and give-ups.
//
// Determinism: each cell is one single-threaded sim; --jobs parallelizes
// whole cells (results land in submission order), so the artifacts are
// byte-identical for every worker count — tier1.sh cmp's the --small
// artifacts across --jobs.
//
// Scale note: flow-off copies need no event each — nothing reacts to a
// fire-and-forget arrival, so their bookkeeping happens inline at publish
// time and only retry chains and flow-on settles occupy the event queue.
// That keeps the 10^6-subscriber acceptance run's queue bounded by the
// credit window instead of the raw copy count.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_obs.hpp"
#include "core/batch_runner.hpp"
#include "net/uplink.hpp"
#include "obs/metrics.hpp"
#include "pubsub/pubsub.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cdnsim;

struct CellConfig {
  std::string label;
  std::size_t subscribers = 0;
  double packet_kb = 1.0;  // per fan-out copy (content or notice)
  bool reliable = false;   // acks, per-copy loss, timeout retries
  double loss = 0.0;
  std::uint32_t flow_window = 0;  // 0 = flow control off
  std::size_t updates = 6;
  double gap_s = 10.0;
  double uplink_kbps = 2500.0;
  double ack_timeout_s = 1.0;
  std::size_t max_retries = 2;
  double catchup_retry_s = 2.0;
  std::size_t log_capacity = pubsub::Topic::kDefaultLogCapacity;
  std::uint64_t seed = 42;
};

struct CellResult {
  pubsub::FanoutStats stats;
  std::uint64_t messages = 0;  // fan-out copies (live + catch-up + retries)
  std::uint64_t acks = 0;
  std::uint64_t retries = 0;
  std::uint64_t give_ups = 0;
  // Delivery lag in integer microseconds.
  std::uint64_t delivery_sum_us = 0;
  std::uint64_t delivery_count = 0;
  std::uint64_t delivery_max_us = 0;
  double wave_span_mean_s = 0;  // publish -> last live arrival, per update
  double converged_fraction = 0;
  double sim_end_s = 0;
  std::uint64_t events = 0;
};

// One grid cell: a single relay's topic driven through the real pub/sub
// walker over a FIFO uplink. Mirrors the engine's delivery path — reserve
// the relay uplink, arrive after the per-subscriber delay, settle the
// credit (sender-side for lossless transports, via the ack for reliable
// ones), tail the log head when the walker says so.
class Cell {
 public:
  explicit Cell(const CellConfig& c)
      : c_(c),
        uplink_(c.uplink_kbps),
        topic_(c.log_capacity),
        flow_(c.flow_window),
        fanout_(topic_, &flow_, result_.stats),
        rng_(c.seed),
        publish_time_(c.updates + 1, 0),
        last_live_arrival_(c.updates + 1, 0),
        received_(c.subscribers, 0) {
    for (std::size_t i = 0; i < c.subscribers; ++i) {
      topic_.add(static_cast<std::int32_t>(i), /*gated=*/false);
    }
  }

  CellResult run() {
    for (std::size_t k = 1; k <= c_.updates; ++k) {
      const double t = static_cast<double>(k) * c_.gap_s;
      publish_time_[k] = t;
      sim_.at(t, [this, k, t] { publish(k, t); });
    }
    sim_.run();
    finish();
    return result_;
  }

 private:
  using SubscriberId = pubsub::SubscriberId;
  using SequenceNumber = pubsub::SequenceNumber;

  void publish(std::size_t k, double t) {
    const auto seq = static_cast<SequenceNumber>(k);
    fanout_.publish(
        seq, t, [](const pubsub::Subscriber&) { return true; },
        [this, seq](SubscriberId id, pubsub::Subscriber&) {
          attempt(id, seq, /*catch_up=*/false, 0);
        });
  }

  void attempt(SubscriberId id, SequenceNumber seq, bool catch_up,
               std::size_t try_index) {
    ++result_.messages;
    const bool lost = c_.reliable && rng_.chance(c_.loss);
    const double depart = uplink_.reserve(sim_.now(), c_.packet_kb);
    const double arrival = depart + delay_of(id);
    if (lost) {
      const double deadline =
          depart + c_.ack_timeout_s * static_cast<double>(1u << try_index);
      if (try_index < c_.max_retries) {
        ++result_.retries;
        sim_.at(deadline, [this, id, seq, catch_up, try_index] {
          attempt(id, seq, catch_up, try_index + 1);
        });
      } else {
        ++result_.give_ups;
        sim_.at(deadline, [this, id, seq, catch_up] {
          settle(id, seq, false, catch_up);
        });
      }
      return;
    }
    if (c_.reliable) ++result_.acks;
    if (flow_.enabled()) {
      // The credit releases when the sender learns of the delivery: at the
      // ack's return for reliable transports, at the nominal arrival for
      // fire-and-forget ones (the engine's sender-side settle).
      const double settle_at =
          c_.reliable ? arrival + delay_of(id) : arrival;
      sim_.at(settle_at, [this, id, seq, catch_up, arrival] {
        record_delivery(id, seq, catch_up, arrival);
        settle(id, seq, true, catch_up);
      });
    } else {
      // Fire-and-forget: nothing reacts to the arrival, so the
      // bookkeeping needs no event.
      record_delivery(id, seq, catch_up, arrival);
    }
  }

  void settle(SubscriberId id, SequenceNumber seq, bool ok, bool catch_up) {
    if (!flow_.enabled()) return;
    if (fanout_.settle(id, seq, ok, catch_up)) {
      attempt(id, topic_.log().last_seq(), /*catch_up=*/true, 0);
    } else if (!ok) {
      // Credit released but the subscriber still trails the head: re-arm
      // the catch-up (the engine's reliable path does this too, the retry
      // backoff having already spaced the attempts out).
      sim_.after(c_.catchup_retry_s, [this, id] {
        if (fanout_.begin_catch_up(id)) {
          attempt(id, topic_.log().last_seq(), /*catch_up=*/true, 0);
        }
      });
    }
  }

  void record_delivery(SubscriberId id, SequenceNumber seq, bool catch_up,
                       double arrival) {
    received_[id] = std::max(received_[id], seq);
    // Delivery lag measured against the version's publish instant: for a
    // catch-up copy this *is* the subscriber's staleness at confirm time.
    const double published =
        seq <= c_.updates ? publish_time_[seq] : 0;
    const auto us = static_cast<std::uint64_t>((arrival - published) * 1e6);
    result_.delivery_sum_us += us;
    ++result_.delivery_count;
    result_.delivery_max_us = std::max(result_.delivery_max_us, us);
    if (!catch_up && seq <= c_.updates) {
      last_live_arrival_[seq] = std::max(last_live_arrival_[seq], arrival);
    }
  }

  void finish() {
    double span_sum = 0;
    std::size_t span_n = 0;
    for (std::size_t k = 1; k <= c_.updates; ++k) {
      if (last_live_arrival_[k] > 0) {
        span_sum += last_live_arrival_[k] - publish_time_[k];
        ++span_n;
      }
    }
    result_.wave_span_mean_s =
        span_n > 0 ? span_sum / static_cast<double>(span_n) : 0;
    std::size_t converged = 0;
    for (std::size_t i = 0; i < c_.subscribers; ++i) {
      if (received_[i] == c_.updates) ++converged;
    }
    result_.converged_fraction =
        static_cast<double>(converged) / static_cast<double>(c_.subscribers);
    result_.sim_end_s = sim_.now();
    result_.events = sim_.events_processed();
  }

  // Per-subscriber propagation delay, a pure function of the id (no RNG,
  // so the loss stream's draw order is untouched by the grid shape).
  static double delay_of(SubscriberId id) {
    return 0.02 + 0.06 * static_cast<double>((id * 2654435761u) % 997) / 997.0;
  }

  CellConfig c_;
  sim::Simulator sim_;
  net::Uplink uplink_;
  pubsub::Topic topic_;
  pubsub::FlowController flow_;
  CellResult result_;
  pubsub::Fanout fanout_;
  util::Rng rng_;
  std::vector<double> publish_time_;
  std::vector<double> last_live_arrival_;
  std::vector<SequenceNumber> received_;
};

core::SimulationResult to_sim_result(const CellConfig& c,
                                     const CellResult& r) {
  core::SimulationResult out;
  obs::MetricsRegistry& m = out.metrics;
  m.counter("pubsub.live_deliveries").inc(r.stats.live_deliveries);
  m.counter("pubsub.suppressed_deliveries").inc(r.stats.suppressed_deliveries);
  m.counter("pubsub.catch_up_messages").inc(r.stats.catch_up_messages);
  m.counter("pubsub.catch_up_reads").inc(r.stats.catch_up_reads);
  m.counter("pubsub.skipped_ahead").inc(r.stats.skipped_ahead);
  m.counter("pubsub.lagging_enter").inc(r.stats.lagging_enter);
  m.counter("pubsub.lagging_exit").inc(r.stats.lagging_exit);
  m.gauge("pubsub.lagging_subscribers")
      .set(static_cast<double>(r.stats.lagging_enter - r.stats.lagging_exit));
  m.gauge("pubsub.subscriptions").set(static_cast<double>(c.subscribers));
  m.counter("fanout.messages").inc(r.messages);
  m.counter("fanout.acks").inc(r.acks);
  m.counter("reliable.retries").inc(r.retries);
  m.counter("reliable.give_ups").inc(r.give_ups);
  const double mean_s =
      r.delivery_count > 0 ? static_cast<double>(r.delivery_sum_us) /
                                 static_cast<double>(r.delivery_count) / 1e6
                           : 0;
  m.gauge("fanout.delivery_latency_mean_s").set(mean_s);
  m.gauge("fanout.delivery_latency_max_s")
      .set(static_cast<double>(r.delivery_max_us) / 1e6);
  m.gauge("fanout.wave_span_mean_s").set(r.wave_span_mean_s);
  m.gauge("fanout.converged_fraction").set(r.converged_fraction);
  out.avg_server_inconsistency_s = mean_s;
  out.converged_server_fraction = r.converged_fraction;
  out.traffic.update_messages = r.messages;
  out.traffic.light_messages = r.acks;
  out.events_processed = r.events;
  out.simulated_time_s = r.sim_end_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdnsim;
  const bench::Flags flags(argc, argv);
  bench::banner(
      "Extension: pub/sub fan-out at scale — subscribers x system x flow");

  // --subscribers pins a single count (the 10^6 acceptance run); default
  // grids keep the congestion knee (wave time vs --gap) inside the sweep.
  std::vector<std::size_t> grid =
      flags.small() ? std::vector<std::size_t>{1000, 3000}
                    : std::vector<std::size_t>{1000, 10000, 100000};
  if (const int pinned = flags.get_int("subscribers", 0); pinned > 0) {
    grid = {static_cast<std::size_t>(pinned)};
  }
  const auto window =
      static_cast<std::uint32_t>(flags.get_int("flow-window", 1));
  const double gap_s = flags.get("gap", flags.small() ? 0.5 : 10.0);
  const auto updates = static_cast<std::size_t>(flags.get_int("updates", 6));
  const double loss = flags.get("loss", 0.25);
  const double uplink = flags.get("uplink", 2500.0);
  const double packet = flags.get("packet", 1.0);
  const double light = flags.get("light", 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  struct SystemRow {
    const char* name;
    double packet_kb;
    bool reliable;
  };
  const std::vector<SystemRow> systems{
      {"Push", packet, false},
      {"Invalidation", light, false},
      {"Push+retry", packet, true},
  };

  std::vector<CellConfig> cells;
  for (const std::size_t n : grid) {
    for (const auto& sys : systems) {
      for (const bool flow_enabled : {false, true}) {
        CellConfig c;
        c.subscribers = n;
        c.packet_kb = sys.packet_kb;
        c.reliable = sys.reliable;
        c.loss = sys.reliable ? loss : 0.0;
        c.flow_window = flow_enabled ? window : 0;
        c.updates = updates;
        c.gap_s = gap_s;
        c.uplink_kbps = uplink;
        c.seed = seed;
        c.label = std::string(sys.name) + "/" +
                  (flow_enabled ? "flow-on" : "flow-off") + "/n=" +
                  std::to_string(n);
        cells.push_back(std::move(c));
      }
    }
  }

  // --jobs parallelizes whole cells; each is one self-contained sim, and
  // results land in submission order, so the artifacts cannot depend on
  // the thread count.
  std::vector<CellResult> results(cells.size());
  {
    util::ThreadPool pool(flags.jobs());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      pool.submit(
          [&cells, &results, i] { results[i] = Cell(cells[i]).run(); });
    }
    pool.wait_idle();
  }

  bench::ObsSession obs(argc, argv, flags, seed);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    obs.add(cells[i].label, to_sim_result(cells[i], results[i]));
  }

  const std::size_t per_n = systems.size() * 2;
  const auto cell_at = [&](std::size_t n_idx, std::size_t sys_idx,
                           bool flow_enabled) -> const CellResult& {
    return results[n_idx * per_n + sys_idx * 2 + (flow_enabled ? 1 : 0)];
  };

  for (std::size_t ni = 0; ni < grid.size(); ++ni) {
    std::cout << "\n--- " << grid[ni] << " subscribers per topic (gap "
              << gap_s << " s) ---\n";
    util::TextTable table({"system", "flow", "messages", "acks", "retries",
                           "suppressed", "catch_up", "wave_span_s",
                           "lat_mean_s", "converged"});
    for (std::size_t si = 0; si < systems.size(); ++si) {
      for (const bool fl : {false, true}) {
        const CellResult& r = cell_at(ni, si, fl);
        const double mean =
            r.delivery_count > 0
                ? static_cast<double>(r.delivery_sum_us) /
                      static_cast<double>(r.delivery_count) / 1e6
                : 0;
        table.add_row(std::vector<std::string>{
            systems[si].name, fl ? "on" : "off", std::to_string(r.messages),
            std::to_string(r.acks), std::to_string(r.retries),
            std::to_string(r.stats.suppressed_deliveries),
            std::to_string(r.stats.catch_up_messages),
            util::format_double(r.wave_span_mean_s, 3),
            util::format_double(mean, 3),
            util::format_double(r.converged_fraction, 4)});
      }
    }
    table.print(std::cout);
  }

  util::ShapeCheck check("ext-fanout-scale");
  const std::size_t last = grid.size() - 1;

  // Fan-out latency grows with the subscriber count: the relay serializes
  // every copy, so each decade of subscribers widens the delivery wave.
  for (std::size_t ni = 1; ni < grid.size(); ++ni) {
    check.expect_greater(cell_at(ni, 0, false).wave_span_mean_s,
                         cell_at(ni - 1, 0, false).wave_span_mean_s,
                         "Push wave span grows from " +
                             std::to_string(grid[ni - 1]) + " to " +
                             std::to_string(grid[ni]) + " subscribers");
  }
  // The knee is inside the sweep: at the top count the wave outlasts the
  // update gap, which is what makes flow control bite there.
  check.expect_greater(cell_at(last, 0, false).wave_span_mean_s, gap_s,
                       "top-count Push wave outlasts the update gap");
  // Invalidation fans out notices, not content: same subscribers, narrower
  // wave.
  check.expect_less(cell_at(last, 1, false).wave_span_mean_s,
                    cell_at(last, 0, false).wave_span_mean_s,
                    "notice fan-out beats content fan-out");

  // Flow off: the walker does no bookkeeping at all.
  for (std::size_t ni = 0; ni < grid.size(); ++ni) {
    for (std::size_t si = 0; si < systems.size(); ++si) {
      const CellResult& r = cell_at(ni, si, false);
      check.expect(r.stats.suppressed_deliveries == 0 &&
                       r.stats.catch_up_messages == 0,
                   "flow-off never suppresses or tails (" +
                       cells[ni * per_n + si * 2].label + ")");
    }
  }

  // Flow on at the top count: live pushes are suppressed, the log is
  // tailed, and backpressure still converges every cursor to the head.
  {
    const CellResult& on = cell_at(last, 0, true);
    const CellResult& off = cell_at(last, 0, false);
    check.expect_greater(static_cast<double>(on.stats.suppressed_deliveries),
                         0, "window suppresses live pushes past the knee");
    check.expect_greater(static_cast<double>(on.stats.catch_up_messages), 0,
                         "suppressed subscribers tail the update log");
    check.expect_greater(static_cast<double>(on.stats.catch_up_reads), 0,
                         "catch-up replays retained log entries");
    check.expect_less(static_cast<double>(on.messages),
                      static_cast<double>(off.messages),
                      "flow control bounds total fan-out traffic");
    check.expect_near(on.converged_fraction, 1.0, 1e-9,
                      "every flow-on subscriber converges to the head");
    check.expect(on.stats.lagging_enter == on.stats.lagging_exit,
                 "the lagging set drains by end of run");
  }

  // Ack-implosion: reliable delivery roughly doubles the message count at
  // the same subscriber count (one ack per copy, plus retries).
  {
    const CellResult& push = cell_at(last, 0, false);
    const CellResult& retry = cell_at(last, 2, false);
    check.expect_greater(static_cast<double>(retry.acks), 0,
                         "reliable mode acks every delivery");
    check.expect_greater(static_cast<double>(retry.retries), 0,
                         "loss forces timeout retries");
    check.expect_greater(
        static_cast<double>(retry.messages + retry.acks),
        1.5 * static_cast<double>(push.messages),
        "ack-implosion: reliable traffic >= 1.5x fire-and-forget");
    // Fire-and-forget give-ups strand replicas; the credit window converts
    // those strands into catch-up and recovers them all.
    check.expect_less(retry.converged_fraction, 1.0,
                      "flow-off give-ups strand replicas");
    check.expect_near(cell_at(last, 2, true).converged_fraction, 1.0, 1e-9,
                      "flow-on catch-up recovers every stranded replica");
  }

  obs.write_direct();
  return bench::finish(check);
}

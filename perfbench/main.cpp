// cdnsim_perfbench: the end-to-end benchmark program.
//
//   cdnsim_perfbench --workload paper_eval|crawl|lossy_fanout --seed N
//                    --seconds S --trace 0|1
//
// Builds the workload's inputs (scenarios, update traces, absence schedules)
// from the seed, then runs the workload on the library's classic driver
// (default EngineConfig::shard) and prints one JSON object per line:
//
//   setup  the timings of every set-up repetition (scenarios, traces)
//   job    one simulated cell: host time, result digest, metric registry
//   pass   one timed pass over the workload's cells (untraced)
//   study  one core::run_measurement_study call (crawl)
//   analysis, span    traced runs only
//   end    peak RSS and the fixed worker count
//
// run.py turns these lines into metrics and runs the correctness checks.
//
// Untraced (--trace 0): repeats timed passes (crawl: study calls) while
// the next one should still end within S seconds. Traced (--trace 1): one
// serial untraced pass, then every cell again with the engine driven step by
// step (UpdateEngine -> prepare() -> Simulator::run() -> publish_run_stats()
// -> accessors) under in-memory spans, written out when the run ends.
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/inconsistency.hpp"
#include "analysis/timesync.hpp"
#include "analysis/ttl_inference.hpp"
#include "core/batch_runner.hpp"
#include "core/measurement_study.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "net/latency_model.hpp"
#include "report.hpp"
#include "topology/cluster.hpp"
#include "trace/absence.hpp"
#include "trace/game_generator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace cdnsim;
using consistency::EngineConfig;
using consistency::InfrastructureKind;
using consistency::UpdateMethod;
using perfbench::Clock;
using perfbench::JsonLine;
using perfbench::seconds_since;
using perfbench::SpanLog;

// Threads of the untraced runs: BatchRunner workers, and measurement-study
// threads with as many days per call. Fixed, so host time is comparable
// between runs; four (nproc on the reference host) keep a unit's time
// steadier there than one thread does.
constexpr std::size_t kWorkers = 4;
// Set-up is repeated before every timed unit, kSetupReps times or for
// kSetupSeconds, whichever comes first, so its median covers the whole run.
constexpr std::size_t kSetupReps = 200;
constexpr double kSetupSeconds = 0.1;
// Loss realizations (engine seeds) per lossy_fanout cell. Besides averaging
// the loss draws, they keep every worker busy: one cell (multicast
// Invalidation) outweighs the rest.
constexpr std::uint64_t kLossRealizations = 4;


struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed || args.seconds <= 0) {
    throw std::invalid_argument(
        "usage: --workload NAME --seed N --seconds S --trace 0|1");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One simulated grid point.
struct Cell {
  std::string label;
  std::size_t scenario = 0;  // index into Inputs::scenarios
  EngineConfig engine;
  bool ttl_oracle = false;  // unicast TTL: staleness should be TTL/2
};

/// What a workload builds in set-up, and the cells it runs on it.
struct Workload {
  std::vector<core::ScenarioConfig> scenarios;
  trace::GameTraceConfig game;
  std::size_t trace_days = 1;  // game traces to build
  std::optional<trace::AbsenceConfig> absence;  // per-server absences per day
  std::vector<Cell> cells;
};

struct Inputs {
  std::vector<core::Scenario> scenarios;
  std::vector<trace::UpdateTrace> games;                    // one per day
  std::vector<std::vector<trace::AbsenceSchedule>> absences;  // [day][server]
};

std::string label_of(InfrastructureKind infra, std::size_t servers,
                     UpdateMethod method) {
  return std::string(consistency::to_string(infra)) + "/" +
         std::to_string(servers) + "/" + std::string(consistency::to_string(method));
}

/// The CDN is the fixed testbed of the figure benches (ScenarioConfig's
/// default seed); the workload seed varies the traces and the engine's
/// random streams.
std::vector<core::ScenarioConfig> scenarios_of(const std::vector<std::size_t>& sizes) {
  std::vector<core::ScenarioConfig> out;
  for (std::size_t n : sizes) {
    core::ScenarioConfig sc;
    sc.server_count = n;
    out.push_back(sc);
  }
  return out;
}

/// Fig. 20 at paper sizes: 100 KB content packets, 12.5 MB/s uplinks, five
/// pinned users per server every 10 s, the non-bursty game trace.
Workload paper_eval(std::uint64_t seed) {
  Workload w;
  w.scenarios = scenarios_of({170, 340, 510, 680, 850});
  w.game.bursty = false;
  // Largest scenarios first: the workers start on the biggest jobs together
  // and finish on small ones, which keeps the pass's length and its peak
  // memory alike from pass to pass.
  for (std::size_t si = w.scenarios.size(); si-- > 0;) {
    for (auto infra : {InfrastructureKind::kUnicast, InfrastructureKind::kMulticastTree}) {
      for (auto method : {UpdateMethod::kPush, UpdateMethod::kInvalidation,
                          UpdateMethod::kTtl}) {
        Cell c;
        c.label = label_of(infra, w.scenarios[si].server_count, method);
        c.scenario = si;
        c.engine.method.method = method;
        c.engine.method.server_ttl_s = 10.0;
        c.engine.infrastructure.kind = infra;
        c.engine.infrastructure.tree_fanout = 2;
        c.engine.users_per_server = 5;
        c.engine.user_poll_period_s = 10.0;
        c.engine.update_packet_kb = 100.0;
        c.engine.provider_uplink_kbps = 12500.0;
        c.engine.server_uplink_kbps = 12500.0;
        c.engine.seed = util::substream_seed(seed, 0xe9);
        c.ttl_oracle = infra == InfrastructureKind::kUnicast &&
                       method == UpdateMethod::kTtl;
        w.cells.push_back(std::move(c));
      }
    }
  }
  return w;
}

/// Unicast / multicast / hybrid x Push / Invalidation / SelfAdaptive at 15%
/// loss with reliable delivery and pub/sub flow control on, each cell in
/// kLossRealizations loss realizations (engine seeds). One user per server,
/// so update propagation rather than visits does the work.
Workload lossy_fanout(std::uint64_t seed) {
  Workload w;
  w.scenarios = scenarios_of({340});
  w.game.bursty = false;
  for (auto infra : {InfrastructureKind::kUnicast, InfrastructureKind::kMulticastTree,
                     InfrastructureKind::kHybridSupernode}) {
    for (auto method : {UpdateMethod::kPush, UpdateMethod::kInvalidation,
                        UpdateMethod::kSelfAdaptive}) {
      for (std::uint64_t r = 0; r < kLossRealizations; ++r) {
        Cell c;
        c.label = label_of(infra, w.scenarios[0].server_count, method) + "/r" +
                  std::to_string(r);
        c.engine.method.method = method;
        c.engine.method.server_ttl_s = 60.0;
        c.engine.infrastructure.kind = infra;
        c.engine.infrastructure.tree_fanout = 2;
        c.engine.infrastructure.cluster_count = 20;
        c.engine.infrastructure.supernode_fanout = 4;
        c.engine.users_per_server = 1;
        c.engine.user_poll_period_s = 10.0;
        c.engine.fault.enabled = true;
        c.engine.fault.loss_probability = 0.15;
        c.engine.reliable.enabled = true;
        c.engine.pubsub.flow_window = 4;
        c.engine.seed = util::substream_seed(seed, 0xe9 + r);
        w.cells.push_back(std::move(c));
      }
    }
  }
  return w;
}

core::MeasurementConfig crawl_study_config(std::uint64_t seed) {
  core::MeasurementConfig mc;
  mc.seed = util::substream_seed(seed, 0x57d);
  mc.days = kWorkers;
  mc.threads = kWorkers;
  return mc;
}

/// The measurement study's inputs, built from the seed the same way the
/// study builds them (one scenario, then a game trace and per-server
/// absences per day). Its one cell replays the first day through the
/// public engine with the study's per-day configuration.
Workload crawl(std::uint64_t seed) {
  const core::MeasurementConfig mc = crawl_study_config(seed);
  Workload w;
  w.scenarios = {mc.scenario};
  w.game = mc.game;
  w.trace_days = mc.days;
  w.absence = mc.absence;
  Cell c;
  c.label = label_of(InfrastructureKind::kUnicast, mc.scenario.server_count,
                     UpdateMethod::kTtl) +
            "/day0";
  c.engine.method.method = UpdateMethod::kTtl;
  c.engine.method.server_ttl_s = mc.server_ttl_s;
  c.engine.infrastructure.kind = InfrastructureKind::kUnicast;
  c.engine.users_per_server = 1;
  c.engine.user_poll_period_s = mc.observer_period_s;
  c.engine.user_start_window_s = mc.observer_period_s;
  c.engine.trace_offset_s = 60.0;
  c.engine.tail_s = 60.0;
  c.engine.provider.staleness_mean_s = mc.provider_server_staleness_mean_s;
  c.engine.latency = mc.latency;
  c.engine.provider_uplink_kbps = mc.provider_uplink_kbps;
  c.engine.server_uplink_kbps = mc.server_uplink_kbps;
  c.engine.record_poll_log = true;
  c.engine.record_user_logs = false;
  c.engine.seed = util::substream_seed(seed, 0xe9);
  w.cells.push_back(std::move(c));
  return w;
}

struct SetupTimes {
  std::vector<double> total_s, scenario_build_s, trace_generate_s;
};

/// One set-up repetition.
Inputs build_inputs(const Workload& w, std::uint64_t seed, SetupTimes& times) {
  Inputs in;
  const auto start = Clock::now();
  for (const auto& sc : w.scenarios) in.scenarios.push_back(core::build_scenario(sc));
  const double scenario_s = seconds_since(start);
  const auto trace_start = Clock::now();
  util::Rng rng(util::substream_seed(seed, 0x6a3e));
  for (std::size_t day = 0; day < w.trace_days; ++day) {
    in.games.push_back(trace::generate_game_trace(w.game, rng));
    if (!w.absence) continue;
    const EngineConfig& ec = w.cells.front().engine;
    const sim::SimTime horizon =
        ec.trace_offset_s + in.games.back().duration() + ec.tail_s;
    auto& schedules = in.absences.emplace_back();
    for (std::size_t s = 0; s < w.scenarios.front().server_count; ++s) {
      schedules.push_back(trace::generate_absences(*w.absence, horizon, rng));
    }
  }
  const double trace_s = seconds_since(trace_start);
  times.total_s.push_back(scenario_s + trace_s);
  times.scenario_build_s.push_back(scenario_s);
  times.trace_generate_s.push_back(trace_s);
  return in;
}

/// Repeats set-up, discarding the inputs, to time it again.
void repeat_set_up(const Workload& w, std::uint64_t seed, SetupTimes& times) {
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < kSetupReps && seconds_since(start) < kSetupSeconds;
       ++rep) {
    build_inputs(w, seed, times);
  }
}

void print_set_up(const SetupTimes& times) {
  JsonLine("setup")
      .add("total_s", times.total_s)
      .add("scenario_build_s", times.scenario_build_s)
      .add("trace_generate_s", times.trace_generate_s)
      .print();
}

std::vector<trace::AbsenceSchedule> absences_for(const Inputs& in) {
  return in.absences.empty() ? std::vector<trace::AbsenceSchedule>{}
                             : in.absences.front();
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

JsonLine job_line(const Cell& cell, const topology::NodeRegistry& nodes, int pass,
                  bool traced, double wall_s, const core::SimulationResult* r,
                  const std::string& error) {
  JsonLine line("job");
  line.add("cell", cell.label)
      .add("pass", static_cast<double>(pass))
      .add("traced", traced)
      .add("servers", static_cast<std::uint64_t>(nodes.server_count()))
      .add("wall_s", wall_s)
      .add("error", error)
      .add("ttl_oracle", cell.ttl_oracle)
      .add("server_ttl_s", cell.engine.method.server_ttl_s);
  if (r != nullptr) {
    line.add("digest", perfbench::digest_of(*r))
        .add("sim_time_s", r->simulated_time_s)
        .add("avg_server_inconsistency_s", r->avg_server_inconsistency_s)
        .add("converged_server_fraction", r->converged_server_fraction)
        .add_raw("metrics", r->metrics.to_json());
  }
  return line;
}

/// One untraced pass over every cell through core::BatchRunner.
void untraced_pass(const Workload& w, const Inputs& in, int pass, std::size_t workers) {
  std::vector<core::BatchJob> jobs;
  for (const Cell& cell : w.cells) {
    core::BatchJob job;
    job.shared_nodes = in.scenarios[cell.scenario].nodes.get();
    job.shared_trace = &in.games.front();
    job.engine = cell.engine;
    job.absences = absences_for(in);
    job.label = cell.label;
    jobs.push_back(std::move(job));
  }
  const core::BatchRunner runner({.threads = workers});
  core::BatchRunStats stats;
  const auto results = runner.run(jobs, &stats);
  double job_sum_s = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Cell& cell = w.cells[i];
    const auto& res = results[i];
    job_sum_s += res.wall_s;
    job_line(cell, *in.scenarios[cell.scenario].nodes, pass, false, res.wall_s,
             res.ok() ? &res.sim : nullptr, res.error)
        .print();
  }
  JsonLine("pass")
      .add("pass", static_cast<double>(pass))
      .add("wall_s", stats.wall_s)
      .add("job_sum_s", job_sum_s)
      .add("workers", static_cast<std::uint64_t>(stats.threads))
      .print();
}

/// Runs one cell through core::run_simulation outside any timed unit: the
/// second digest of a run with a single pass, and the untraced twin of each
/// traced job.
void reference_run(const Cell& cell, const Inputs& in) {
  const auto& nodes = *in.scenarios[cell.scenario].nodes;
  const auto start = Clock::now();
  const auto r = core::run_simulation(nodes, in.games.front(), cell.engine,
                                      absences_for(in));
  job_line(cell, nodes, -1, false, seconds_since(start), &r, "").print();
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// The accessors core::run_simulation reads, in its order.
core::SimulationResult collect(const consistency::UpdateEngine& engine,
                               const topology::NodeRegistry& nodes,
                               const trace::UpdateTrace& updates) {
  core::SimulationResult result;
  result.server_inconsistency_s = engine.server_avg_inconsistency();
  result.user_inconsistency_s = engine.user_avg_inconsistency();
  result.per_server_max_user_inconsistency_s =
      engine.per_server_max_user_inconsistency(result.user_inconsistency_s);
  result.avg_server_inconsistency_s = util::mean(result.server_inconsistency_s);
  result.avg_user_inconsistency_s = util::mean(result.user_inconsistency_s);
  result.traffic = engine.meter().totals();
  result.provider_traffic = engine.meter().sender_totals(topology::kProviderNode);
  result.user_observed_inconsistency_fraction =
      engine.user_observed_inconsistency_fraction();
  result.events_processed = engine.events_processed();
  result.simulated_time_s = engine.final_time();
  result.failures_injected = engine.failures_injected();
  const auto n = static_cast<topology::NodeId>(nodes.server_count());
  std::size_t converged = 0;
  for (topology::NodeId s = 0; s < n; ++s) {
    if (engine.recorder(s).current_version() == updates.update_count()) ++converged;
  }
  result.converged_server_fraction =
      n == 0 ? 0.0 : static_cast<double>(converged) / static_cast<double>(n);
  result.metrics = engine.metrics();
  return result;
}

void analyse_day(const trace::PollLog& log, const topology::NodeRegistry& nodes,
                 const Cell& cell, const trace::UpdateTrace& game,
                 std::uint64_t seed, SpanLog& spans);

/// Drives one cell step by step under spans. With `analyse_seed`, the poll log
/// then goes through the per-day analysis of the study (crawl).
void traced_cell(const Cell& cell, const Inputs& in, SpanLog& spans,
                 std::optional<std::uint64_t> analyse_seed) {
  const auto& nodes = *in.scenarios[cell.scenario].nodes;
  const auto& game = in.games.front();
  if (cell.engine.infrastructure.kind != InfrastructureKind::kUnicast) {
    // The engine's own tree build, timed alone: same inputs, same RNG
    // stream as the constructor's.
    const int tree = spans.begin("topology.tree_build", cell.label, -1);
    util::Rng rng(cell.engine.seed);
    util::Rng infra_rng = rng.fork(0x1f7a);
    const auto infra = consistency::build_infrastructure(
        nodes, cell.engine.infrastructure, cell.engine.method, infra_rng);
    spans.end(tree);
  }

  const int job = spans.begin("job", cell.label, -1);
  std::optional<core::SimulationResult> result;
  std::uint64_t user_log_rows = 0;
  trace::PollLog poll_log;
  {
    sim::Simulator simulator;
    std::optional<consistency::UpdateEngine> engine;
    int span = spans.begin("consistency.ctor", cell.label, job);
    engine.emplace(simulator, nodes, game, cell.engine, absences_for(in));
    spans.end(span);
    span = spans.begin("consistency.prepare", cell.label, job);
    engine->prepare();
    spans.end(span);
    span = spans.begin("sim.run", cell.label, job);
    simulator.run();
    spans.end(span);
    span = spans.begin("consistency.publish", cell.label, job);
    engine->publish_run_stats();
    spans.end(span);
    span = spans.begin("consistency.collect", cell.label, job);
    result = collect(*engine, nodes, game);
    spans.end(span);

    const auto& logs = engine->user_logs();
    for (std::size_t u = 0; u < logs.user_count(); ++u) {
      user_log_rows += logs.log(static_cast<cdn::UserId>(u)).size();
    }
    if (analyse_seed) poll_log = engine->poll_log();
  }  // the engine is torn down inside the job span, as in core::run_simulation
  spans.end(job);

  job_line(cell, nodes, 1, true, spans.duration_s(job), &*result, "")
      .add("user_log_rows", user_log_rows)
      .print();
  if (analyse_seed) analyse_day(poll_log, nodes, cell, game, *analyse_seed, spans);
}

/// The analysis one study day runs on its poll log (core::run_measurement_
/// study's per-day pipeline), replayed through the public analysis calls.
void analyse_day(const trace::PollLog& log, const topology::NodeRegistry& nodes,
                 const Cell& cell, const trace::UpdateTrace& game,
                 std::uint64_t seed, SpanLog& spans) {
  const core::MeasurementConfig mc = crawl_study_config(seed);
  const int root = spans.begin("analysis", cell.label, -1);
  const auto servers = nodes.server_ids();

  // Clock skew injected, then removed with the RTT/2 probe (Section 3.1).
  const net::LatencyModel latency(mc.latency);
  std::unordered_map<net::NodeId, double> true_offsets;
  std::unordered_map<net::NodeId, double> rtts;
  util::Rng rng(mc.seed);
  for (topology::NodeId s : servers) {
    true_offsets[s] = rng.normal(0.0, mc.clock_skew_stddev_s);
    rtts[s] = 2.0 * latency.propagation(nodes.location(topology::kProviderNode),
                                        nodes.location(s));
  }
  const analysis::OffsetMap estimated =
      analysis::estimate_offsets(servers, true_offsets, rtts, mc.probe, rng);
  const trace::PollLog corrected = analysis::correct_clock_skew(
      analysis::inject_clock_skew(log, true_offsets), estimated);
  const analysis::SnapshotTimeline timeline(corrected);

  std::unordered_map<net::NodeId, std::vector<trace::Observation>> by_server;
  for (const auto& obs : corrected.observations()) by_server[obs.server].push_back(obs);
  std::size_t lengths = 0;
  for (const auto& [server, observations] : by_server) {
    lengths += analysis::server_inconsistency_lengths(observations, timeline).size();
  }
  const double window_start = cell.engine.trace_offset_s;
  const double fraction = analysis::average_inconsistent_server_fraction(
      corrected, timeline, window_start, window_start + game.duration(),
      mc.observer_period_s);

  // Inner-cluster lengths (Fig. 5) feed the TTL inference (Fig. 6).
  std::vector<double> inner;
  for (const auto& members : topology::cluster_by_grid(nodes, 0.5).members) {
    if (members.size() < 3) continue;
    trace::PollLog cluster_log;
    for (net::NodeId s : members) {
      for (const auto& obs : by_server[s]) cluster_log.add(obs);
    }
    const analysis::SnapshotTimeline local(cluster_log);
    for (net::NodeId s : members) {
      for (double len : analysis::server_inconsistency_lengths(by_server[s], local)) {
        if (len > 0) inner.push_back(len);
      }
    }
  }
  // Intra- and inter-ISP lengths (Fig. 9).
  const auto isp = topology::cluster_by_isp(nodes);
  for (std::size_t c = 0; c < isp.cluster_count(); ++c) {
    trace::PollLog cluster_log;
    trace::PollLog complement_log;
    for (const auto& obs : corrected.observations()) {
      (isp.cluster_of[static_cast<std::size_t>(obs.server)] == c ? cluster_log
                                                                 : complement_log)
          .add(obs);
    }
    const analysis::SnapshotTimeline local(cluster_log);
    const analysis::SnapshotTimeline other(complement_log);
    for (net::NodeId s : isp.members[c]) {
      lengths += analysis::server_inconsistency_lengths(by_server[s], local).size();
      lengths += analysis::server_inconsistency_lengths(by_server[s], other).size();
    }
  }
  const auto absences =
      analysis::extract_absences(corrected, timeline, mc.observer_period_s);
  const double inferred = analysis::infer_ttl(inner);
  spans.end(root);

  JsonLine("analysis")
      .add("cell", cell.label)
      .add("rows", static_cast<std::uint64_t>(log.size()))
      .add("lengths", static_cast<std::uint64_t>(lengths))
      .add("absence_events", static_cast<std::uint64_t>(absences.size()))
      .add("inconsistent_server_fraction", fraction)
      .add("inferred_ttl_s", inferred)
      .add("true_ttl_s", mc.server_ttl_s)
      .print();
}

// ---------------------------------------------------------------------------
// The crawl study
// ---------------------------------------------------------------------------

void study_call(std::uint64_t seed, int call) {
  const core::MeasurementConfig mc = crawl_study_config(seed);
  const auto start = Clock::now();
  std::string error;
  core::MeasurementResults r;
  try {
    r = core::run_measurement_study(mc);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall_s = seconds_since(start);
  perfbench::Digest d;
  d.numbers(r.request_inconsistency);
  d.numbers(r.daily_inconsistent_server_fraction);
  d.numbers(r.inner_cluster_inconsistency);
  for (const auto& day : r.daily_server_avg) d.numbers(day);
  d.u64(r.total_requests);
  d.number(r.overall_avg_request_inconsistency);
  const std::string metrics = r.metrics.to_json();
  d.text(metrics);
  JsonLine line("study");
  line.add("call", static_cast<double>(call))
      .add("wall_s", wall_s)
      .add("error", error)
      .add("days", static_cast<std::uint64_t>(mc.days))
      .add("servers", static_cast<std::uint64_t>(mc.scenario.server_count))
      .add("digest", d.hex())
      .add("requests", r.total_requests)
      .add("inferred_ttl_s",
           r.inner_cluster_inconsistency.empty()
               ? 0.0
               : analysis::infer_ttl(r.inner_cluster_inconsistency))
      .add("true_ttl_s", mc.server_ttl_s)
      .add_raw("metrics", metrics);
  line.print();
}

// ---------------------------------------------------------------------------

void run(const Args& args) {
  Workload w;
  if (args.workload == "paper_eval") {
    w = paper_eval(args.seed);
  } else if (args.workload == "lossy_fanout") {
    w = lossy_fanout(args.seed);
  } else if (args.workload == "crawl") {
    w = crawl(args.seed);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  SetupTimes setup_times;
  const Inputs in = build_inputs(w, args.seed, setup_times);
  const bool is_crawl = args.workload == "crawl";

  if (!args.trace) {
    // Timed units (passes, or study calls) back to back; a unit starts only
    // if it should end within the budget, judged by the last one's time.
    const auto start = Clock::now();
    int pass = 0;
    double last_s = 0;
    do {
      repeat_set_up(w, args.seed, setup_times);
      const auto unit_start = Clock::now();
      if (is_crawl) {
        study_call(args.seed, pass);
      } else {
        untraced_pass(w, in, pass, kWorkers);
      }
      last_s = seconds_since(unit_start);
      ++pass;
    } while (seconds_since(start) + last_s <= args.seconds);
    if (pass == 1 && !is_crawl) reference_run(w.cells.front(), in);
  } else {
    repeat_set_up(w, args.seed, setup_times);
    // Traced runs are serial: one pass through a one-worker BatchRunner,
    // then each cell untraced and traced back to back, so the two times of
    // a job compare like with like.
    SpanLog spans;
    if (!is_crawl) untraced_pass(w, in, 0, 1);
    for (const Cell& cell : w.cells) {
      reference_run(cell, in);
      traced_cell(cell, in, spans,
                  is_crawl ? std::optional<std::uint64_t>(args.seed) : std::nullopt);
    }
    spans.flush();
  }
  print_set_up(setup_times);
  JsonLine("end")
      .add("peak_rss_mb", perfbench::peak_rss_mb())
      .add("workers", static_cast<std::uint64_t>(args.trace ? 1 : kWorkers))
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "cdnsim_perfbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

// Deterministic parallel batch execution of simulations.
//
// The figure benches and ablations all have the same shape: sweep a grid of
// (scenario, trace, engine config) points through core::run_simulation. The
// BatchRunner executes such a grid on a work-stealing thread pool while
// keeping the results *byte-identical* to a plain serial loop:
//
//  * every job runs on its own Simulator/UpdateEngine, so no simulation
//    state is shared between jobs;
//  * shared inputs (a pre-built NodeRegistry, a pre-generated UpdateTrace)
//    are borrowed as const and only read;
//  * per-job randomness comes from the stateless split API: job k generates
//    its trace from Rng(substream_seed(master_seed, k)), so the stream a job
//    sees is a function of its submission index alone, never of scheduling;
//  * results are returned in submission order regardless of completion
//    order, and a throwing job fails only itself (its error string is
//    captured; the other jobs and the pool are unaffected).
//
// The equivalence suite (tests/core/batch_runner_test.cpp) pins all of this:
// 1 thread, N threads and shuffled submission must reproduce the serial
// loop's SimulationResults byte for byte, for every update method.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "trace/game_generator.hpp"

namespace cdnsim::core {

/// One grid point. Exactly one of {scenario, shared_nodes} and one of
/// {game, shared_trace} must be set; shared pointers are borrowed and must
/// outlive the run() call.
struct BatchJob {
  /// Build a fresh CDN for this job (deterministic in scenario->seed)…
  std::optional<ScenarioConfig> scenario;
  /// …or borrow a pre-built one (read-only; sharable across jobs/threads).
  const topology::NodeRegistry* shared_nodes = nullptr;

  /// Generate this job's trace from its substream of the master seed…
  std::optional<trace::GameTraceConfig> game;
  /// …or borrow a pre-generated trace (read-only; sharable).
  const trace::UpdateTrace* shared_trace = nullptr;

  consistency::EngineConfig engine;
  std::vector<trace::AbsenceSchedule> absences;

  /// Free-form tag echoed into the result (bench tables key on it).
  std::string label;

  /// When true the job runs under its own obs::Profiler (a root scope named
  /// after `label`, stage scopes for scenario build / trace generation /
  /// simulation, and the engine's dispatch+phase scopes) and the report
  /// lands in BatchResult::sim.profile. Never shared between jobs, so the
  /// deterministic sections merge identically for any --jobs count.
  bool profile = false;
};

struct BatchResult {
  SimulationResult sim;  // valid iff ok()
  std::string label;
  std::string error;  // non-empty when the job threw
  double wall_s = 0;  // host wall-clock of this job alone

  bool ok() const { return error.empty(); }
};

struct BatchOptions {
  /// Worker threads; 0 selects the hardware concurrency.
  std::size_t threads = 0;
  /// Root of the per-job RNG substreams (trace generation).
  std::uint64_t master_seed = 42;
  /// Opt-in progress heartbeat: every this-many seconds run() prints one
  /// stderr line (jobs done, events/s, ETA, steal count) from the calling
  /// thread. 0 (the default) disables it — results are unaffected either
  /// way, the heartbeat only reads completion counters.
  double heartbeat_period_s = 0;
};

/// Host-side execution statistics for one run() call. Inherently
/// scheduling-dependent (wall clock, steal counts) — belongs in a
/// RunManifest, never in the deterministic metrics stream.
struct BatchRunStats {
  std::size_t threads = 0;
  std::uint64_t steals = 0;
  double wall_s = 0;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Runs every job and returns results in submission order. Deterministic:
  /// the returned SimulationResults are identical for any thread count.
  /// `stats` (optional) receives host-side execution statistics.
  std::vector<BatchResult> run(const std::vector<BatchJob>& jobs,
                               BatchRunStats* stats = nullptr) const;

  /// The serial reference semantics: what run() must reproduce for job
  /// `job_index`. Exposed so tests (and callers wanting a plain loop) can
  /// compare against the exact same derivation rule.
  static BatchResult run_job(const BatchJob& job, std::uint64_t master_seed,
                             std::size_t job_index);

  std::size_t threads() const { return threads_; }
  std::uint64_t master_seed() const { return master_seed_; }

 private:
  std::size_t threads_;
  std::uint64_t master_seed_;
  double heartbeat_period_s_;
};

}  // namespace cdnsim::core

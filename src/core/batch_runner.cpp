#include "core/batch_runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "obs/profiler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::core {

BatchRunner::BatchRunner(BatchOptions options)
    : threads_(options.threads == 0 ? util::ThreadPool::hardware_threads()
                                    : options.threads),
      master_seed_(options.master_seed),
      heartbeat_period_s_(options.heartbeat_period_s) {}

BatchResult BatchRunner::run_job(const BatchJob& job, std::uint64_t master_seed,
                                 std::size_t job_index) {
  BatchResult out;
  out.label = job.label;
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<obs::Profiler> prof;
  consistency::EngineConfig engine_config = job.engine;
  if (job.profile) {
    prof = std::make_unique<obs::Profiler>();
    engine_config.profiler = prof.get();
  }
  try {
    CDNSIM_EXPECTS(job.scenario.has_value() != (job.shared_nodes != nullptr),
                   "job needs exactly one of scenario / shared_nodes");
    CDNSIM_EXPECTS(job.game.has_value() != (job.shared_trace != nullptr),
                   "job needs exactly one of game / shared_trace");

    // The root scope is the job's label, so merged reports keep per-job
    // subtrees apart; stage scopes nest under it.
    obs::ProfileScope job_scope(
        prof.get(), std::string_view(job.label.empty() ? "job" : job.label));

    Scenario built;
    const topology::NodeRegistry* nodes = job.shared_nodes;
    if (job.scenario) {
      obs::ProfileScope stage(prof.get(), "job.build_scenario");
      built = build_scenario(*job.scenario);
      nodes = built.nodes.get();
    }

    trace::UpdateTrace generated;
    const trace::UpdateTrace* updates = job.shared_trace;
    if (job.game) {
      obs::ProfileScope stage(prof.get(), "job.generate_trace");
      util::Rng trace_rng(util::substream_seed(master_seed, job_index));
      generated = trace::generate_game_trace(*job.game, trace_rng);
      updates = &generated;
    }

    {
      obs::ProfileScope stage(prof.get(), "job.simulate");
      out.sim = run_simulation(*nodes, *updates, engine_config, job.absences);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  // Scope guards unwound on both paths, so the stack is empty here even
  // when the job threw mid-stage.
  if (prof != nullptr && out.ok()) out.sim.profile = prof->report();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

std::vector<BatchResult> BatchRunner::run(const std::vector<BatchJob>& jobs,
                                          BatchRunStats* stats) const {
  std::vector<BatchResult> results(jobs.size());
  if (stats != nullptr) *stats = BatchRunStats{threads_, 0, 0};
  if (jobs.empty()) return results;

  const auto start = std::chrono::steady_clock::now();
  // Each task writes only its own pre-allocated slot, so completion order is
  // irrelevant and no synchronisation beyond the pool's join is needed.
  util::ThreadPool pool(threads_);
  const std::uint64_t master = master_seed_;
  // Heartbeat counters: bumped after a job's slot is fully written. They
  // feed only the stderr progress line, never the results.
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> events{0};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool.submit([&jobs, &results, &done, &events, master, i] {
      results[i] = run_job(jobs[i], master, i);
      events.fetch_add(results[i].sim.events_processed,
                       std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  if (heartbeat_period_s_ > 0) {
    // The caller thread never executes pool tasks (wait_idle blocks on a
    // condvar), so polling here steals no worker time. Sleep in short
    // slices to exit promptly once the last job lands.
    const auto slice = std::chrono::milliseconds(50);
    auto next_beat =
        start + std::chrono::duration<double>(heartbeat_period_s_);
    while (done.load(std::memory_order_acquire) < jobs.size()) {
      std::this_thread::sleep_for(slice);
      const auto now = std::chrono::steady_clock::now();
      if (now < next_beat) continue;
      next_beat = now + std::chrono::duration<double>(heartbeat_period_s_);
      const std::size_t d = done.load(std::memory_order_acquire);
      const double elapsed =
          std::chrono::duration<double>(now - start).count();
      const double eps =
          elapsed > 0 ? static_cast<double>(events.load(
                            std::memory_order_relaxed)) / elapsed
                      : 0;
      char eta[32];
      if (d > 0) {
        std::snprintf(eta, sizeof(eta), "%.0fs",
                      elapsed / static_cast<double>(d) *
                          static_cast<double>(jobs.size() - d));
      } else {
        std::snprintf(eta, sizeof(eta), "?");
      }
      std::fprintf(stderr,
                   "[batch] %zu/%zu jobs, %.2fM events/s, ETA %s, "
                   "%llu steals\n",
                   d, jobs.size(), eps / 1e6, eta,
                   static_cast<unsigned long long>(pool.steal_count()));
    }
  }
  pool.wait_idle();
  if (stats != nullptr) {
    stats->steals = pool.steal_count();
    stats->wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  return results;
}

}  // namespace cdnsim::core

// F1 — Figure 1 reproduction: phase pipelining.
//
// The paper's Figure 1 shows a 10-node graph with 5 phases executing
// concurrently. This harness runs that 10-node layered graph under
// sustained phase injection and reports how many phases were in flight:
// the maximum the engine saw, and the time-weighted mean by Little's law —
// each phase's time from admission (stamped when start_phase returns) to
// the on_phase_complete call that covers it, summed over all phases and
// divided by the wall time. It then compares throughput against the
// lockstep baseline, whose pipeline depth is pinned at 1 by construction.
//
// Each window_sweep row also prices the engine's waits: the process's
// voluntary and involuntary context switches per phase and the kernel's
// share of its CPU time (getrusage(RUSAGE_SELF) around the run), and the
// engine's own window_waits, progress_wakeups and queue_parks per phase.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/lockstep.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/engine.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

namespace {

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

struct PipelineRun {
  df::core::ExecStats stats;  // wall_seconds is this run's wall time
  double mean_inflight = 0.0;
};

/// Runs `phases` empty phases through the streaming API and measures the
/// mean number of phases in flight by Little's law (see the header).
PipelineRun run_pipeline(const df::core::Program& program,
                         df::core::EngineOptions options,
                         std::uint64_t phases) {
  df::support::Stopwatch wall;
  std::vector<std::uint64_t> admitted_ns(phases + 1, 0);
  std::vector<std::uint64_t> retired_ns(phases + 1, 0);
  // The hook may fire concurrently and out of order; each newly covered
  // phase is stamped once, under the mutex.
  std::mutex retire_mutex;
  df::event::PhaseId covered = 0;
  options.on_phase_complete = [&](df::event::PhaseId through) {
    const std::uint64_t now = wall.elapsed_ns();
    const std::lock_guard<std::mutex> lock(retire_mutex);
    for (; covered < through; ++covered) {
      retired_ns[covered + 1] = now;
    }
  };
  df::core::Engine engine(program, options);
  wall.restart();  // time start() to finish(), as Engine::run does
  engine.start();
  for (std::uint64_t p = 1; p <= phases; ++p) {
    engine.start_phase({});
    admitted_ns[p] = wall.elapsed_ns();
  }
  engine.finish();
  const std::uint64_t wall_ns = wall.elapsed_ns();
  PipelineRun run;
  run.stats = engine.stats();
  run.stats.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  std::uint64_t inflight_ns = 0;
  for (std::uint64_t p = 1; p <= phases; ++p) {
    // A phase can retire before start_phase has returned to stamp it.
    inflight_ns += retired_ns[p] - std::min(admitted_ns[p], retired_ns[p]);
  }
  run.mean_inflight =
      static_cast<double>(inflight_ns) / static_cast<double>(wall_ns);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{2000});
  const std::uint64_t grain_ns = flags.get("grain_ns", std::uint64_t{2000});
  const std::size_t threads = flags.get("threads", std::uint64_t{2});
  flags.reject_unused();

  std::printf("F1: cross-phase pipelining on the paper's 10-node graph\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Rng rng(3);
  const graph::Dag shape = graph::figure1_style_graph(rng);
  const core::Program program = bench::busywork_over(shape, grain_ns, 4);

  support::Table table(
      {"window", "wall_ms", "max_inflight", "mean_inflight", "phases/s"});
  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}, std::size_t{16},
                                   std::size_t{64}}) {
    core::EngineOptions options;
    options.threads = threads;
    options.max_inflight_phases = window;
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const PipelineRun run = run_pipeline(program, options, phases);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    const core::ExecStats& stats = run.stats;
    const auto per_phase = [phases](double count) {
      return count / static_cast<double>(phases);
    };
    const double user_s = seconds(after.ru_utime) - seconds(before.ru_utime);
    const double sys_s = seconds(after.ru_stime) - seconds(before.ru_stime);
    table.add_row(
        {support::Table::num(static_cast<std::uint64_t>(window)),
         support::Table::num(stats.wall_seconds * 1e3, 1),
         support::Table::num(stats.max_inflight_phases),
         support::Table::num(run.mean_inflight, 2),
         support::Table::num(stats.phases_per_second(), 0)});
    bench::JsonLine("pipeline", "window_sweep")
        .config("window", static_cast<std::uint64_t>(window))
        .config("phases", phases)
        .config("grain_ns", grain_ns)
        .config("threads", static_cast<std::uint64_t>(threads))
        .config("hw_concurrency",
                static_cast<std::uint64_t>(
                    std::thread::hardware_concurrency()))
        .metric("wall_ms", stats.wall_seconds * 1e3)
        .metric("ns_per_op", stats.executed_pairs == 0
                                 ? 0.0
                                 : stats.wall_seconds * 1e9 /
                                       static_cast<double>(
                                           stats.executed_pairs))
        .metric("pairs_per_sec", stats.pairs_per_second())
        .metric("phases_per_sec", stats.phases_per_second())
        .metric("mean_inflight", run.mean_inflight)
        .metric("units", stats.units)
        .metric("scheduled_pairs_per_phase",
                static_cast<double>(stats.scheduled_pairs) /
                    static_cast<double>(phases))
        .metric("vcsw_per_phase", per_phase(static_cast<double>(
                                      after.ru_nvcsw - before.ru_nvcsw)))
        .metric("ivcsw_per_phase", per_phase(static_cast<double>(
                                       after.ru_nivcsw - before.ru_nivcsw)))
        .metric("sys_frac",
                user_s + sys_s <= 0.0 ? 0.0 : sys_s / (user_s + sys_s))
        .metric("window_waits_per_phase",
                per_phase(static_cast<double>(stats.window_waits)))
        .metric("progress_wakeups_per_phase",
                per_phase(static_cast<double>(stats.progress_wakeups)))
        .metric("queue_parks_per_phase",
                per_phase(static_cast<double>(stats.queue_parks)))
        .emit();
  }
  std::printf("%s", table.render().c_str());

  // Lockstep baseline: one phase at a time, parallel only within a phase.
  baseline::LockstepExecutor lockstep(program, threads);
  lockstep.run(phases, nullptr);
  const auto ls = lockstep.stats();
  std::printf("lockstep baseline: %s ms, pipeline depth pinned at 1\n",
              support::Table::num(ls.wall_seconds * 1e3, 1).c_str());
  bench::JsonLine("pipeline", "lockstep_baseline")
      .config("phases", phases)
      .config("grain_ns", grain_ns)
      .config("threads", static_cast<std::uint64_t>(threads))
      .config("hw_concurrency",
              static_cast<std::uint64_t>(
                  std::thread::hardware_concurrency()))
      .metric("wall_ms", ls.wall_seconds * 1e3)
      .metric("pairs_per_sec", ls.pairs_per_second())
      .metric("phases_per_sec", ls.phases_per_second())
      .metric("units", ls.units)
      .metric("scheduled_pairs_per_phase",
              static_cast<double>(ls.scheduled_pairs) /
                  static_cast<double>(phases))
      .emit();
  std::printf(
      "paper Figure 1: with a deep window, ~5 phases in flight on the "
      "10-node graph; window=1 reduces to the lockstep depth.\n");

  // The depth-5 claim, verbatim: a window of 5 should sustain ~5 in-flight
  // phases when workers are saturated.
  core::EngineOptions depth5;
  depth5.threads = threads;
  depth5.max_inflight_phases = 5;
  const PipelineRun run5 = run_pipeline(program, depth5, phases);
  std::printf("window=5 run: mean in-flight %s, max %llu (paper depicts 5)\n",
              support::Table::num(run5.mean_inflight, 2).c_str(),
              static_cast<unsigned long long>(
                  run5.stats.max_inflight_phases));
  return 0;
}

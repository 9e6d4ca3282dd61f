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
// Every row also prices the waits: the process's voluntary and involuntary
// context switches per phase and the kernel's share of its CPU time
// (getrusage(RUSAGE_SELF) around the measured runs), the host's steal
// share of all CPU time over them (/proc/stat), and the executor's own
// window_waits, progress_wakeups, queue_parks and lock_waits per phase,
// and its sampled global-lock wait and hold per scheduled pair
// (lock_wait_ns_per_pair, lock_hold_ns_per_pair) (all 0 on the lockstep
// row, which has no window, run queue or global lock).
//
// --reps=N (N >= 2) runs each row, the lockstep row included, once as a
// discarded warm-up and then N measured times. The row reports the median
// run time (phases_per_sec is the median rate, mean_inflight the median
// run's) plus phases_per_sec_min, phases_per_sec_max and reps; the
// per-phase counters cover all N measured runs. N = 1, the default, runs
// each row once.
//
// To compare two builds, run --phases=20000 --reps=5 or more. At zero
// grain a 3,000-phase run lasts 10-120 ms, short enough that one
// preemption or a cold cache moves it by half: on a 4-vCPU guest the same
// two builds read 0.47-0.68x at 3,000 phases and 1.05-1.16x at 20,000.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
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

using df::bench::Run;

/// Runs `phases` empty phases through the streaming API and measures the
/// mean number of phases in flight by Little's law (see the header).
Run run_pipeline(const df::core::Program& program,
                 df::core::EngineOptions options, std::uint64_t phases) {
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
  wall.restart();  // time start() to finish(), as the engine does
  engine.start();
  for (std::uint64_t p = 1; p <= phases; ++p) {
    engine.start_phase({});
    admitted_ns[p] = wall.elapsed_ns();
  }
  engine.finish();
  const std::uint64_t wall_ns = wall.elapsed_ns();
  Run run;
  run.stats = engine.stats();
  // The row's wall time and the Little's-law denominator share one clock.
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
  const std::uint64_t reps = flags.get("reps", std::uint64_t{1});
  if (reps == 0) {
    std::printf("--reps must be >= 1\n");
    return 2;
  }
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
    const bench::Measured m = bench::measure(
        reps, [&] { return run_pipeline(program, options, phases); });
    const core::ExecStats& stats = m.stats;
    table.add_row(
        {support::Table::num(static_cast<std::uint64_t>(window)),
         support::Table::num(stats.wall_seconds * 1e3, 1),
         support::Table::num(stats.max_inflight_phases),
         support::Table::num(m.mean_inflight, 2),
         support::Table::num(stats.phases_per_second(), 0)});
    bench::JsonLine row("pipeline", "window_sweep");
    row.config("window", static_cast<std::uint64_t>(window))
        .config("phases", phases)
        .config("grain_ns", grain_ns)
        .config("threads", static_cast<std::uint64_t>(threads));
    bench::add_measurement(row, m, phases, reps);
    row.metric("ns_per_op", stats.executed_pairs == 0
                                ? 0.0
                                : stats.wall_seconds * 1e9 /
                                      static_cast<double>(
                                          stats.executed_pairs))
        .metric("mean_inflight", m.mean_inflight)
        .emit();
  }
  std::printf("%s", table.render().c_str());

  // Lockstep baseline: one phase at a time, parallel only within a phase.
  const bench::Measured ls = bench::measure(reps, [&] {
    baseline::LockstepExecutor lockstep(program, threads);
    lockstep.run(phases, nullptr);
    return Run{lockstep.stats()};
  });
  std::printf("lockstep baseline: %s ms, pipeline depth pinned at 1\n",
              support::Table::num(ls.stats.wall_seconds * 1e3, 1).c_str());
  bench::JsonLine row("pipeline", "lockstep_baseline");
  row.config("phases", phases)
      .config("grain_ns", grain_ns)
      .config("threads", static_cast<std::uint64_t>(threads));
  bench::add_measurement(row, ls, phases, reps);
  row.emit();
  std::printf(
      "paper Figure 1: with a deep window, ~5 phases in flight on the "
      "10-node graph; window=1 reduces to the lockstep depth.\n");

  // The depth-5 claim, verbatim: a window of 5 should sustain ~5 in-flight
  // phases when workers are saturated.
  core::EngineOptions depth5;
  depth5.threads = threads;
  depth5.max_inflight_phases = 5;
  const Run run5 = run_pipeline(program, depth5, phases);
  std::printf("window=5 run: mean in-flight %s, max %llu (paper depicts 5)\n",
              support::Table::num(run5.mean_inflight, 2).c_str(),
              static_cast<unsigned long long>(
                  run5.stats.max_inflight_phases));
  return 0;
}

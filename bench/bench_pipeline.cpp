// F1 — Figure 1 reproduction: phase pipelining.
//
// The paper's Figure 1 shows a 10-node graph with 5 phases executing
// concurrently. This harness runs that 10-node layered graph under
// sustained phase injection, samples the number of in-flight phases at
// every pair completion, and prints the distribution — then compares
// throughput against the lockstep baseline, whose pipeline depth is pinned
// at 1 by construction.
#include <cstdio>
#include <thread>

#include "baseline/lockstep.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/engine.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

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

  support::Table table({"window", "wall_ms", "max_inflight",
                        "mean_inflight", "p95_inflight", "phases/s"});
  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}, std::size_t{16},
                                   std::size_t{64}}) {
    core::EngineOptions options;
    options.threads = threads;
    options.max_inflight_phases = window;
    options.sample_inflight = true;
    core::Engine engine(program, options);
    engine.run(phases, nullptr);
    const auto stats = engine.stats();
    table.add_row(
        {support::Table::num(static_cast<std::uint64_t>(window)),
         support::Table::num(stats.wall_seconds * 1e3, 1),
         support::Table::num(stats.max_inflight_phases),
         support::Table::num(stats.mean_inflight_phases, 2),
         support::Table::num(engine.inflight_histogram().quantile(0.95)),
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
        .metric("mean_inflight", stats.mean_inflight_phases)
        .metric("units", stats.units)
        .metric("scheduled_pairs_per_phase",
                static_cast<double>(stats.scheduled_pairs) /
                    static_cast<double>(phases))
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
  depth5.sample_inflight = true;
  core::Engine engine5(program, depth5);
  engine5.run(phases, nullptr);
  std::printf("window=5 run: mean in-flight %s, max %llu (paper depicts 5)\n",
              support::Table::num(engine5.stats().mean_inflight_phases, 2)
                  .c_str(),
              static_cast<unsigned long long>(
                  engine5.stats().max_inflight_phases));
  return 0;
}

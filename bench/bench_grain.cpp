// T2 — the paper's section 4 prediction.
//
// "We predict that as long as the computations performed by the vertices
// take significantly more time than the computations performed to maintain
// the data structures, the speedup will be close to linear in the number of
// processors."
//
// Sweep per-vertex grain (ns of busy-work) x thread count; report the
// speedup surface and the measured bookkeeping share. The prediction reads
// as: speedup approaches the ideal as bookkeeping% -> 0.
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/engine.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{120});
  const std::uint64_t max_threads =
      flags.get("max_threads", std::uint64_t{4});
  flags.reject_unused();

  std::printf("T2: speedup vs per-vertex grain (paper section 4 prediction)\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Table table(
      {"grain_ns", "threads", "wall_ms", "speedup", "bookkeeping%"});
  for (const std::uint64_t grain :
       {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{10000},
        std::uint64_t{100000}}) {
    const core::Program program =
        bench::uniform_busywork_program(4, 4, grain, /*seed=*/2);
    double base_ms = 0.0;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      // Best of three runs; the first run also serves as warmup so cold
      // caches and lazy allocations do not distort the 1-thread baseline.
      double wall_ms = 1e300;
      core::ExecStats stats;
      for (int repeat = 0; repeat < 3; ++repeat) {
        core::EngineOptions options;
        options.threads = threads;
        core::Engine engine(program, options);
        engine.run(phases, nullptr);
        const auto run_stats = engine.stats();
        if (run_stats.wall_seconds * 1e3 < wall_ms) {
          wall_ms = run_stats.wall_seconds * 1e3;
          stats = run_stats;
        }
      }
      if (threads == 1) {
        base_ms = wall_ms;
      }
      const double total_ns =
          static_cast<double>(stats.compute_ns + stats.bookkeeping_ns);
      table.add_row(
          {support::Table::num(grain),
           support::Table::num(static_cast<std::uint64_t>(threads)),
           support::Table::num(wall_ms, 1),
           support::Table::num(base_ms / wall_ms, 2) + "x",
           support::Table::num(
               total_ns <= 0.0
                   ? 0.0
                   : 100.0 * static_cast<double>(stats.bookkeeping_ns) /
                         total_ns,
               1)});
      bench::JsonLine("grain", "grain_thread_sweep")
          .config("grain_ns", grain)
          .config("threads", static_cast<std::uint64_t>(threads))
          .config("phases", phases)
          .config("hw_concurrency",
                  static_cast<std::uint64_t>(
                      std::thread::hardware_concurrency()))
          .metric("wall_ms", wall_ms)
          .metric("pairs_per_sec", stats.pairs_per_second())
          .metric("speedup", base_ms / wall_ms)
          .metric("bookkeeping_pct",
                  total_ns <= 0.0
                      ? 0.0
                      : 100.0 * static_cast<double>(stats.bookkeeping_ns) /
                            total_ns)
          .metric("units", stats.units)
          .metric("scheduled_pairs_per_phase",
                  static_cast<double>(stats.scheduled_pairs) /
                      static_cast<double>(phases))
          .emit();
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper prediction: rows with low bookkeeping%% approach linear "
      "speedup; grain=0 rows are bookkeeping-bound and do not scale.\n");
  return 0;
}

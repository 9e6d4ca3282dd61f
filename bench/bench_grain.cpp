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
//
// --reps=N (default 3) runs every row once as a discarded warm-up (for
// N >= 2) and then N measured times, like bench_pipeline: the row reports
// the median run (wall_ms, phases_per_sec, speedup against the 1-thread
// row's median) with phases_per_sec_min/_max and reps, and the process's
// context switches and the host's steal share over all N runs. An engine
// re-cuts its units once every unit has 32 timed pairs (DESIGN.md, "Unit
// scheduling"), after about 512 phases here, so a row's `units` shows the
// plan a run ended on only with --phases well above that.
#include <cstdio>

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
  const std::uint64_t reps = flags.get("reps", std::uint64_t{3});
  if (reps == 0) {
    std::printf("--reps must be >= 1\n");
    return 2;
  }
  flags.reject_unused();

  std::printf("T2: speedup vs per-vertex grain (paper section 4 prediction)\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Table table({"grain_ns", "threads", "units", "wall_ms", "speedup",
                        "bookkeeping%"});
  for (const std::uint64_t grain :
       {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{10000},
        std::uint64_t{100000}}) {
    const core::Program program =
        bench::uniform_busywork_program(4, 4, grain, /*seed=*/2);
    double base_ms = 0.0;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      core::EngineOptions options;
      options.threads = threads;
      const bench::Measured m = bench::measure(reps, [&] {
        core::Engine engine(program, options);
        engine.run(phases, nullptr);
        return bench::Run{engine.stats()};
      });
      const core::ExecStats& stats = m.stats;
      const double wall_ms = stats.wall_seconds * 1e3;
      if (threads == 1) {
        base_ms = wall_ms;
      }
      const double total_ns =
          static_cast<double>(stats.compute_ns + stats.bookkeeping_ns);
      const double bookkeeping_pct =
          total_ns <= 0.0
              ? 0.0
              : 100.0 * static_cast<double>(stats.bookkeeping_ns) / total_ns;
      table.add_row({support::Table::num(grain),
                     support::Table::num(static_cast<std::uint64_t>(threads)),
                     support::Table::num(stats.units),
                     support::Table::num(wall_ms, 1),
                     support::Table::num(base_ms / wall_ms, 2) + "x",
                     support::Table::num(bookkeeping_pct, 1)});
      bench::JsonLine row("grain", "grain_thread_sweep");
      row.config("grain_ns", grain)
          .config("threads", static_cast<std::uint64_t>(threads))
          .config("phases", phases);
      bench::add_measurement(row, m, phases, reps);
      row.metric("speedup", base_ms / wall_ms)
          .metric("bookkeeping_pct", bookkeeping_pct)
          .emit();
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper prediction: rows with low bookkeeping%% approach linear "
      "speedup; grain=0 rows are bookkeeping-bound and do not scale.\n");
  return 0;
}

// A1 — ablation: what does the paper's pipelined engine buy over the
// alternatives on the same workload?
//
//   sequential   the phase-at-a-time solution the paper calls less
//                efficient (section 2)
//   lockstep     barrier-parallel within a phase, no cross-phase overlap
//   engine       the paper's algorithm (pipelined, Δ-driven)
//
// All three run the same Δ-workload; sink equivalence is asserted as a side
// effect, so this bench doubles as an end-to-end correctness run.
#include <cstdio>

#include "baseline/lockstep.hpp"
#include "baseline/sequential.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/engine.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"
#include "trace/serializability.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{400});
  const std::uint64_t grain_ns = flags.get("grain_ns", std::uint64_t{5000});
  const std::size_t threads = flags.get("threads", std::uint64_t{2});
  flags.reject_unused();

  std::printf("A1: executor ablation on the same workload\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  const core::Program program =
      bench::uniform_busywork_program(4, 3, grain_ns, /*seed=*/11);

  baseline::SequentialExecutor sequential(program);
  sequential.run(phases, nullptr);

  baseline::LockstepExecutor lockstep(program, threads);
  lockstep.run(phases, nullptr);

  core::EngineOptions options;
  options.threads = threads;
  core::Engine engine(program, options);
  engine.run(phases, nullptr);

  const auto seq_vs_lockstep =
      trace::compare_sinks(sequential.sinks(), lockstep.sinks());
  const auto seq_vs_engine =
      trace::compare_sinks(sequential.sinks(), engine.sinks());
  std::printf("serializability: lockstep %s, engine %s\n",
              seq_vs_lockstep.equivalent ? "EQUIVALENT" : "DIVERGENT",
              seq_vs_engine.equivalent ? "EQUIVALENT" : "DIVERGENT");

  support::Table table({"executor", "wall_ms", "pairs/s", "vs_sequential"});
  const double base = sequential.stats().wall_seconds;
  const auto row = [&](const char* name, const core::ExecStats& stats) {
    table.add_row({name, support::Table::num(stats.wall_seconds * 1e3, 1),
                   support::Table::num(stats.pairs_per_second(), 0),
                   support::Table::num(base / stats.wall_seconds, 2) + "x"});
    bench::JsonLine("engines", name)
        .config("phases", phases)
        .config("grain_ns", grain_ns)
        .config("threads", static_cast<std::uint64_t>(threads))
        .metric("wall_ms", stats.wall_seconds * 1e3)
        .metric("pairs_per_sec", stats.pairs_per_second())
        .metric("speedup_vs_sequential", base / stats.wall_seconds)
        .emit();
  };
  row("sequential", sequential.stats());
  row("lockstep", lockstep.stats());
  row("engine (pipelined)", engine.stats());
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: engine >= lockstep >= sequential on multi-core "
      "hardware; all equal within noise on one core.\n");
  return 0;
}

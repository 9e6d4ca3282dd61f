// A3 — ablation: graph-shape sensitivity.
//
// Fixed per-phase work budget spread across different topologies: a deep
// chain (no intra-phase parallelism, maximal pipelining), a wide diamond
// (maximal intra-phase parallelism), a layered mesh, and a binary in-tree.
// Shows where the paper's cross-phase pipelining matters most: shapes with
// long critical paths gain the most over the lockstep baseline.
#include <cstdio>

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
  const std::uint64_t phases = flags.get("phases", std::uint64_t{300});
  const std::size_t threads = flags.get("threads", std::uint64_t{2});
  // Total spin budget per phase is constant; grain adapts to vertex count.
  const std::uint64_t budget_ns =
      flags.get("budget_ns", std::uint64_t{64000});
  flags.reject_unused();

  std::printf("A3: topology sensitivity at a fixed per-phase work budget\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Rng rng(17);
  struct Shape {
    const char* name;
    graph::Dag dag;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"chain16", graph::chain(16)});
  shapes.push_back({"diamond14", graph::diamond(14)});
  shapes.push_back({"layered4x4", graph::layered(4, 4, 2, rng)});
  shapes.push_back({"intree15", graph::binary_in_tree(4)});

  support::Table table({"shape", "vertices", "depth(levels)", "engine_ms",
                        "lockstep_ms", "engine_gain"});
  for (Shape& shape : shapes) {
    const auto n = static_cast<std::uint64_t>(shape.dag.vertex_count());
    const std::uint64_t grain = budget_ns / n;
    const core::Program program =
        bench::busywork_over(shape.dag, grain, 21);

    core::EngineOptions options;
    options.threads = threads;
    core::Engine engine(program, options);
    engine.run(phases, nullptr);

    baseline::LockstepExecutor lockstep(program, threads);
    lockstep.run(phases, nullptr);

    // Depth = number of topological levels (critical path length).
    std::vector<std::uint32_t> level(shape.dag.vertex_count(), 0);
    std::uint32_t depth = 1;
    for (const graph::Edge& e : shape.dag.edges()) {
      level[e.to] = std::max(level[e.to], level[e.from] + 1);
      depth = std::max(depth, level[e.to] + 1);
    }

    table.add_row(
        {shape.name, support::Table::num(n), support::Table::num(
             static_cast<std::uint64_t>(depth)),
         support::Table::num(engine.stats().wall_seconds * 1e3, 1),
         support::Table::num(lockstep.stats().wall_seconds * 1e3, 1),
         support::Table::num(lockstep.stats().wall_seconds /
                                 engine.stats().wall_seconds,
                             2) +
             "x"});
    bench::JsonLine("shapes", shape.name)
        .config("vertices", n)
        .config("depth", static_cast<std::uint64_t>(depth))
        .config("phases", phases)
        .config("threads", static_cast<std::uint64_t>(threads))
        .metric("engine_ms", engine.stats().wall_seconds * 1e3)
        .metric("lockstep_ms", lockstep.stats().wall_seconds * 1e3)
        .metric("pairs_per_sec", engine.stats().pairs_per_second())
        .metric("engine_gain",
                lockstep.stats().wall_seconds / engine.stats().wall_seconds)
        .emit();
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: deepest graphs (chain) gain most from pipelining; "
      "wide flat graphs parallelize within a phase and gain least.\n");
  return 0;
}

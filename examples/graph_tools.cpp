// Graph inspection tool: load an XML specification and print its DAG in
// DOT format annotated with the satisfactory numbering, the m(v) table,
// and partitioning metrics for a requested machine count.
//
// Usage:
//   graph_tools <spec.xml> [--machines=K] [--dot]
#include <cstdio>

#include "graph/dot.hpp"
#include "graph/numbering.hpp"
#include "graph/partition.hpp"
#include "spec/spec.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  if (flags.positional().empty()) {
    std::printf("usage: graph_tools <spec.xml> [--machines=K] [--dot]\n");
    return 2;
  }

  const auto machines = static_cast<std::size_t>(
      flags.get("machines", std::uint64_t{2}));
  const bool dot = flags.get("dot", false);
  flags.reject_unused();

  const spec::ComputationSpec computation =
      spec::load_spec_file(flags.positional()[0]);
  const core::Program program = computation.to_program();
  const graph::Dag& dag = program.dag;
  const graph::Numbering& numbering = program.numbering;

  std::printf("graph: %zu vertices, %zu edges, %zu sources, %zu sinks\n",
              dag.vertex_count(), dag.edge_count(), dag.sources().size(),
              dag.sinks().size());

  support::Table table({"index", "vertex", "release r(v)", "m(index)"});
  const auto releases = graph::release_indices(dag, numbering);
  for (std::uint32_t i = 1; i <= dag.vertex_count(); ++i) {
    const graph::VertexId v = numbering.vertex_at[i];
    table.add_row({support::Table::num(static_cast<std::uint64_t>(i)),
                   dag.name(v),
                   support::Table::num(
                       static_cast<std::uint64_t>(releases[v])),
                   support::Table::num(
                       static_cast<std::uint64_t>(numbering.m[i]))});
  }
  std::printf("%s", table.render().c_str());

  if (machines > 1 && machines <= dag.vertex_count()) {
    const auto balanced = graph::partition_balanced(numbering, machines);
    const auto min_cut =
        graph::partition_min_cut(dag, numbering, machines, 8);
    const auto mb = graph::evaluate_partitioning(dag, numbering, balanced);
    const auto mc = graph::evaluate_partitioning(dag, numbering, min_cut);
    std::printf(
        "partitioning for %zu machines: balanced cut=%zu imbalance=%s | "
        "min_cut cut=%zu imbalance=%s\n",
        machines, mb.edge_cut, support::Table::num(mb.imbalance, 2).c_str(),
        mc.edge_cut, support::Table::num(mc.imbalance, 2).c_str());
  }

  if (dot) {
    std::printf("%s", graph::to_dot(dag, numbering).c_str());
  }
  return 0;
}

// Unit tests for the DAG substrate.
#include <gtest/gtest.h>

#include "graph/dag.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace df::graph {
namespace {

TEST(Dag, AddVertexAssignsDenseIds) {
  Dag dag;
  EXPECT_EQ(dag.add_vertex("a"), 0U);
  EXPECT_EQ(dag.add_vertex("b"), 1U);
  EXPECT_EQ(dag.vertex_count(), 2U);
  EXPECT_EQ(dag.name(0), "a");
  EXPECT_EQ(dag.vertex("b"), 1U);
  EXPECT_EQ(dag.find_vertex("a"), std::optional<VertexId>(0));
  EXPECT_FALSE(dag.find_vertex("zzz").has_value());
}

TEST(Dag, RejectsDuplicateAndEmptyNames) {
  Dag dag;
  dag.add_vertex("a");
  EXPECT_THROW(dag.add_vertex("a"), support::check_error);
  EXPECT_THROW(dag.add_vertex(""), support::check_error);
}

TEST(Dag, RejectsUnknownVertexLookups) {
  Dag dag;
  dag.add_vertex("a");
  EXPECT_THROW(dag.vertex("b"), support::check_error);
  EXPECT_THROW(dag.name(5), support::check_error);
}

TEST(Dag, EdgesTrackDegreesAndPorts) {
  Dag dag;
  const auto a = dag.add_vertex("a");
  const auto b = dag.add_vertex("b");
  const auto c = dag.add_vertex("c");
  dag.add_edge(a, 0, c, 0);
  dag.add_edge(b, 0, c, 1);
  EXPECT_EQ(dag.in_degree(c), 2U);
  EXPECT_EQ(dag.out_degree(a), 1U);
  EXPECT_EQ(dag.in_port_count(c), 2U);
  EXPECT_EQ(dag.out_port_count(a), 1U);
  EXPECT_TRUE(dag.is_source(a));
  EXPECT_TRUE(dag.is_sink(c));
  EXPECT_FALSE(dag.is_sink(a));
}

TEST(Dag, InEdgesOrderedByPort) {
  Dag dag;
  const auto a = dag.add_vertex("a");
  const auto b = dag.add_vertex("b");
  const auto c = dag.add_vertex("c");
  dag.add_edge(b, 0, c, 1);
  dag.add_edge(a, 0, c, 0);  // added second, lower port
  const auto& ins = dag.in_edges(c);
  ASSERT_EQ(ins.size(), 2U);
  EXPECT_EQ(ins[0].to_port, 0);
  EXPECT_EQ(ins[1].to_port, 1);
}

TEST(Dag, RejectsSelfLoopAndDuplicateInputPort) {
  Dag dag;
  const auto a = dag.add_vertex("a");
  const auto b = dag.add_vertex("b");
  EXPECT_THROW(dag.add_edge(a, 0, a, 0), support::check_error);
  dag.add_edge(a, 0, b, 0);
  EXPECT_THROW(dag.add_edge(a, 1, b, 0), support::check_error);
}

TEST(Dag, FanOutFromOnePortIsAllowed) {
  Dag dag;
  const auto a = dag.add_vertex("a");
  const auto b = dag.add_vertex("b");
  const auto c = dag.add_vertex("c");
  dag.add_edge(a, 0, b, 0);
  dag.add_edge(a, 0, c, 0);
  EXPECT_EQ(dag.out_degree(a), 2U);
  EXPECT_EQ(dag.out_port_count(a), 1U);
}

TEST(Dag, SourcesAndSinks) {
  const Dag dag = paper_figure3();
  const auto sources = dag.sources();
  const auto sinks = dag.sinks();
  ASSERT_EQ(sources.size(), 2U);
  ASSERT_EQ(sinks.size(), 2U);
  EXPECT_EQ(dag.name(sources[0]), "v1");
  EXPECT_EQ(dag.name(sources[1]), "v2");
  EXPECT_EQ(dag.name(sinks[0]), "v5");
  EXPECT_EQ(dag.name(sinks[1]), "v6");
}

TEST(Dag, AcyclicityDetection) {
  Dag dag;
  const auto a = dag.add_vertex("a");
  const auto b = dag.add_vertex("b");
  const auto c = dag.add_vertex("c");
  dag.add_edge(a, 0, b, 0);
  dag.add_edge(b, 0, c, 0);
  EXPECT_TRUE(dag.is_acyclic());
  dag.add_edge(c, 0, a, 0);  // creates the cycle a->b->c->a
  EXPECT_FALSE(dag.is_acyclic());
  EXPECT_THROW(dag.validate(), support::check_error);
}

TEST(Dag, ValidateRejectsEmptyAndSparsePorts) {
  Dag empty;
  EXPECT_THROW(empty.validate(), support::check_error);

  Dag sparse;
  const auto a = sparse.add_vertex("a");
  const auto b = sparse.add_vertex("b");
  sparse.add_edge(a, 0, b, 1);  // port 0 missing
  EXPECT_THROW(sparse.validate(), support::check_error);
}

TEST(Generators, ChainShape) {
  const Dag dag = chain(5);
  EXPECT_EQ(dag.vertex_count(), 5U);
  EXPECT_EQ(dag.edge_count(), 4U);
  EXPECT_EQ(dag.sources().size(), 1U);
  EXPECT_EQ(dag.sinks().size(), 1U);
  dag.validate();
}

TEST(Generators, SingleVertexChain) {
  const Dag dag = chain(1);
  EXPECT_EQ(dag.vertex_count(), 1U);
  EXPECT_EQ(dag.edge_count(), 0U);
  dag.validate();
}

TEST(Generators, DiamondShape) {
  const Dag dag = diamond(4);
  EXPECT_EQ(dag.vertex_count(), 6U);
  EXPECT_EQ(dag.edge_count(), 8U);
  EXPECT_EQ(dag.sources().size(), 1U);
  EXPECT_EQ(dag.sinks().size(), 1U);
  EXPECT_EQ(dag.in_degree(dag.vertex("sink")), 4U);
  dag.validate();
}

TEST(Generators, LayeredShape) {
  support::Rng rng(1);
  const Dag dag = layered(4, 5, 2, rng);
  EXPECT_EQ(dag.vertex_count(), 20U);
  EXPECT_EQ(dag.sources().size(), 5U);
  EXPECT_EQ(dag.edge_count(), 3U * 5U * 2U);
  dag.validate();
}

TEST(Generators, BinaryTrees) {
  const Dag in_tree = binary_in_tree(4);
  EXPECT_EQ(in_tree.vertex_count(), 15U);
  EXPECT_EQ(in_tree.sources().size(), 8U);
  EXPECT_EQ(in_tree.sinks().size(), 1U);
  in_tree.validate();

  const Dag out_tree = binary_out_tree(4);
  EXPECT_EQ(out_tree.vertex_count(), 15U);
  EXPECT_EQ(out_tree.sources().size(), 1U);
  EXPECT_EQ(out_tree.sinks().size(), 8U);
  out_tree.validate();
}

TEST(Generators, RandomDagIsValid) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    support::Rng rng(seed);
    const Dag dag = random_dag(30, 0.15, rng);
    EXPECT_EQ(dag.vertex_count(), 30U);
    dag.validate();
  }
}

TEST(Generators, Figure1GraphHasTenVertices) {
  support::Rng rng(2);
  const Dag dag = figure1_style_graph(rng);
  EXPECT_EQ(dag.vertex_count(), 10U);
  EXPECT_EQ(dag.sources().size(), 3U);
  dag.validate();
}

TEST(Dot, ExportMentionsVerticesAndEdges) {
  const Dag dag = paper_figure2();
  const std::string dot = to_dot(dag);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v7"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);

  const Numbering numbering = compute_satisfactory_numbering(dag);
  const std::string annotated = to_dot(dag, numbering);
  EXPECT_NE(annotated.find("#1"), std::string::npos);
}

}  // namespace
}  // namespace df::graph

// Tests for graph partitioning (paper section 6, future work): the
// partitioners, the cut validator and the cut quality metrics. Execution
// over a cut is tested on the real transport in test_transport.cpp.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace df {
namespace {

using graph::Numbering;
using graph::Partitioning;

Numbering numbering_of(const graph::Dag& dag) {
  return graph::compute_satisfactory_numbering(dag);
}

TEST(Partition, BalancedBlocksCoverRange) {
  const graph::Dag dag = graph::chain(10);
  const Numbering numbering = numbering_of(dag);
  const Partitioning p = graph::partition_balanced(numbering, 3);
  EXPECT_EQ(p.block_count(), 3U);
  EXPECT_EQ(p.bounds.front(), 0U);
  EXPECT_EQ(p.bounds.back(), 10U);
  // Every index lands in exactly one block and blocks are contiguous.
  std::size_t previous = 0;
  for (std::uint32_t v = 1; v <= 10; ++v) {
    const std::size_t block = p.block_of(v);
    EXPECT_GE(block, previous);
    EXPECT_LE(block, previous + 1);
    previous = block;
  }
  EXPECT_EQ(p.block_of(1), 0U);
  EXPECT_EQ(p.block_of(10), 2U);
}

TEST(Partition, SingleBlockAndRejections) {
  const graph::Dag dag = graph::chain(4);
  const Numbering numbering = numbering_of(dag);
  const Partitioning p = graph::partition_balanced(numbering, 1);
  EXPECT_EQ(p.block_count(), 1U);
  EXPECT_THROW(graph::partition_balanced(numbering, 0),
               support::check_error);
  EXPECT_THROW(graph::partition_balanced(numbering, 5),
               support::check_error);
}

TEST(Partition, ValidatorAcceptsDegenerateCutsAndRejectsInvalidOnes) {
  // Empty blocks are legal (regression: only balanced cuts used to be
  // exercised, and an empty block slipping into an executor was untested);
  // gaps, overlaps, and coverage errors are not.
  graph::Partitioning degenerate;
  degenerate.bounds = {0, 0, 4, 4, 9, 9};
  graph::validate_partition_cut(degenerate, 9, 5);

  // block_of stays consistent across empty neighbours: the empty blocks
  // own nothing and every index maps into a non-empty block.
  EXPECT_EQ(degenerate.block_of(1), 1U);
  EXPECT_EQ(degenerate.block_of(4), 1U);
  EXPECT_EQ(degenerate.block_of(5), 3U);
  EXPECT_EQ(degenerate.block_of(9), 3U);

  graph::Partitioning bad;
  bad.bounds = {1, 9};
  EXPECT_THROW(graph::validate_partition_cut(bad, 9, 1),
               support::check_error);
  bad.bounds = {0, 8};
  EXPECT_THROW(graph::validate_partition_cut(bad, 9, 1),
               support::check_error);
  bad.bounds = {0, 5, 3, 9};
  EXPECT_THROW(graph::validate_partition_cut(bad, 9, 3),
               support::check_error);
  bad.bounds = {0, 9};
  EXPECT_THROW(graph::validate_partition_cut(bad, 9, 2),
               support::check_error);
  EXPECT_THROW(graph::validate_partition_cut(bad, 9, 0),
               support::check_error);
}

TEST(Partition, CrossTrafficIsForwardOnly) {
  // The property the transport's forward-only channels rest on: under a
  // satisfactory numbering, every edge's target block is >= its source
  // block.
  support::Rng rng(9);
  const graph::Dag dag = graph::random_dag(31, 0.25, rng);
  const Numbering numbering = numbering_of(dag);
  const Partitioning p = graph::partition_balanced(numbering, 5);
  for (const graph::Edge& e : dag.edges()) {
    const std::uint32_t from = numbering.index_of[e.from];
    const std::uint32_t to = numbering.index_of[e.to];
    EXPECT_LE(p.block_of(from), p.block_of(to))
        << "edge " << from << " -> " << to << " flows backward across blocks";
  }
}

TEST(Partition, MinCutNeverWorseThanBalanced) {
  support::Rng rng(5);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    support::Rng graph_rng(seed);
    const graph::Dag dag = graph::random_dag(40, 0.15, graph_rng);
    const Numbering numbering = numbering_of(dag);
    const auto balanced = graph::partition_balanced(numbering, 4);
    const auto min_cut = graph::partition_min_cut(dag, numbering, 4, 6);
    const auto m_balanced =
        graph::evaluate_partitioning(dag, numbering, balanced);
    const auto m_cut = graph::evaluate_partitioning(dag, numbering, min_cut);
    EXPECT_LE(m_cut.edge_cut, m_balanced.edge_cut) << "seed " << seed;
    EXPECT_EQ(m_cut.blocks, 4U);
  }
  (void)rng;
}

TEST(Partition, MetricsOnChain) {
  const graph::Dag dag = graph::chain(9);
  const Numbering numbering = numbering_of(dag);
  const auto p = graph::partition_balanced(numbering, 3);
  const auto metrics = graph::evaluate_partitioning(dag, numbering, p);
  EXPECT_EQ(metrics.blocks, 3U);
  EXPECT_EQ(metrics.edge_cut, 2U);  // one edge per boundary on a chain
  EXPECT_EQ(metrics.max_block, 3U);
  EXPECT_EQ(metrics.min_block, 3U);
  EXPECT_DOUBLE_EQ(metrics.imbalance, 1.0);
}

}  // namespace
}  // namespace df

// Tests for graph partitioning and the simulated cluster executor
// (paper section 6, future work).
#include <gtest/gtest.h>

#include "baseline/sequential.hpp"
#include "distrib/cluster.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/serializability.hpp"

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

TEST(Partition, WeightedBalancesCost) {
  const graph::Dag dag = graph::chain(8);
  const Numbering numbering = numbering_of(dag);
  // One heavy vertex at index 1: weighted split should put it alone-ish.
  std::vector<double> weight(9, 1.0);
  weight[1] = 100.0;
  const Partitioning p = graph::partition_weighted(numbering, weight, 2);
  EXPECT_EQ(p.block_count(), 2U);
  EXPECT_LE(p.block_end(0), 2U);  // first block stays small
  // All blocks non-empty and ordered.
  for (std::size_t k = 0; k < p.block_count(); ++k) {
    EXPECT_LE(p.block_begin(k), p.block_end(k));
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

core::Program pipeline_program(std::uint32_t length) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  ids.push_back(b.add("src", model::factory_of<model::CounterSource>()));
  for (std::uint32_t i = 1; i < length; ++i) {
    ids.push_back(b.add("f" + std::to_string(i),
                        model::factory_of<model::ForwardModule>()));
    b.connect(ids[i - 1], ids[i]);
  }
  return std::move(b).build(3);
}

TEST(Cluster, SemanticsMatchSequential) {
  const core::Program program = pipeline_program(12);
  distrib::ClusterOptions options;
  options.machines = 3;
  options.fixed_vertex_cost_ns = 1000;
  distrib::ClusterExecutor cluster(program, options);
  const auto report = trace::check_against_sequential(program, cluster, 80);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

TEST(Cluster, CountsNetworkVsLocalMessages) {
  const core::Program program = pipeline_program(12);
  distrib::ClusterOptions options;
  options.machines = 3;
  options.fixed_vertex_cost_ns = 1000;
  distrib::ClusterExecutor cluster(program, options);
  cluster.run(10, nullptr);
  const auto& cs = cluster.cluster_stats();
  // Chain of 12 over 3 machines: 2 cross-machine edges, 9 local, x10 phases.
  EXPECT_EQ(cs.network_messages, 20U);
  EXPECT_EQ(cs.local_messages, 90U);
  EXPECT_GT(cs.makespan_ns, 0U);
  ASSERT_EQ(cs.busy_ns.size(), 3U);
}

TEST(Cluster, LatencyInflatesMakespan) {
  const core::Program program = pipeline_program(12);
  const auto makespan = [&](std::uint64_t latency) {
    distrib::ClusterOptions options;
    options.machines = 3;
    options.fixed_vertex_cost_ns = 1000;
    options.network_latency_ns = latency;
    distrib::ClusterExecutor cluster(program, options);
    cluster.run(50, nullptr);
    return cluster.cluster_stats().makespan_ns;
  };
  EXPECT_GT(makespan(100000), makespan(0));
}

TEST(Cluster, MoreMachinesShortenCompute) {
  // With zero network latency and real per-vertex cost, adding machines
  // divides the per-phase serial work (each machine has one core).
  const core::Program program = pipeline_program(16);
  const auto makespan = [&](std::size_t machines) {
    distrib::ClusterOptions options;
    options.machines = machines;
    options.network_latency_ns = 0;
    options.fixed_vertex_cost_ns = 10000;
    distrib::ClusterExecutor cluster(program, options);
    cluster.run(100, nullptr);
    return cluster.cluster_stats().makespan_ns;
  };
  // A chain pipelines across machines: more machines => shorter makespan.
  EXPECT_LT(makespan(4), makespan(1));
}

TEST(Cluster, RejectsBadOptions) {
  const core::Program program = pipeline_program(4);
  distrib::ClusterOptions zero_machines;
  zero_machines.machines = 0;
  EXPECT_THROW(distrib::ClusterExecutor(program, zero_machines),
               support::check_error);
  distrib::ClusterOptions mismatched;
  mismatched.machines = 2;
  mismatched.partitioning.bounds = {0, 1, 2, 4};  // 3 blocks != 2 machines
  EXPECT_THROW(distrib::ClusterExecutor(program, mismatched),
               support::check_error);
}

class ClusterSerializability
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterSerializability, RandomGraphsMatchSequential) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);
  const graph::Dag shape = graph::random_dag(
      10 + static_cast<std::uint32_t>(seed % 12), 0.25, rng);
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    if (shape.in_degree(v) == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::CounterSource>()));
    } else {
      ids.push_back(b.add(
          shape.name(v),
          model::factory_of<model::BusyWorkModule>(
              std::uint64_t{0}, shape.in_degree(v), 0.7)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  const core::Program program = std::move(b).build(seed + 99);

  distrib::ClusterOptions options;
  options.machines = 1 + seed % 4;
  options.cores_per_machine = 1 + seed % 2;
  options.fixed_vertex_cost_ns = 500;
  distrib::ClusterExecutor cluster(program, options);
  const auto report = trace::check_against_sequential(program, cluster, 120);
  EXPECT_TRUE(report.equivalent) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSerializability,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Replication, ReplicasAgreeBitForBit) {
  const core::Program program = pipeline_program(8);
  std::size_t records = 0;
  EXPECT_TRUE(distrib::run_replicated(program, 3, 60, {}, 2, &records));
  EXPECT_EQ(records, 60U);  // counter source reaches the sink every phase
}

}  // namespace
}  // namespace df

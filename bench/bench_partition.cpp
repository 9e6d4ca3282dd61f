// E4 (extension) — paper section 6 future work: partitioning the
// computation graph across machines.
//
// Simulates a cluster (distrib::ClusterExecutor): per-machine clocks, a
// fixed per-vertex cost, and a per-message network latency for edges that
// cross partitions. Sweeps machine count x partitioner x latency and
// prints the simulated makespan speedup over one machine, plus the edge
// cut each partitioner achieves. Semantics are checked against the
// sequential reference as a side effect.
#include <cstdio>

#include "baseline/sequential.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "distrib/cluster.hpp"
#include "graph/partition.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"
#include "trace/serializability.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{200});
  const std::uint64_t cost_ns =
      flags.get("vertex_cost_ns", std::uint64_t{100000});
  flags.reject_unused();

  std::printf("E4: simulated graph partitioning across machines "
              "(paper section 6)\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Rng rng(23);
  const graph::Dag shape = graph::layered(6, 4, 2, rng);
  const core::Program program = bench::busywork_over(shape, 0, 29);

  // Reference sinks for the serializability side-check.
  baseline::SequentialExecutor reference(program);
  reference.run(phases, nullptr);

  support::Table table({"machines", "partitioner", "edge_cut",
                        "latency_us", "makespan_ms", "speedup",
                        "util_worst"});
  distrib::ClusterOptions base;
  base.machines = 1;
  base.fixed_vertex_cost_ns = cost_ns;
  distrib::ClusterExecutor single(program, base);
  single.run(phases, nullptr);
  const double base_makespan =
      static_cast<double>(single.cluster_stats().makespan_ns);

  for (const std::size_t machines : {2UL, 4UL, 8UL}) {
    struct Strategy {
      const char* name;
      graph::Partitioning partitioning;
    };
    const graph::Numbering& numbering = program.numbering;
    std::vector<Strategy> strategies;
    strategies.push_back(
        {"balanced", graph::partition_balanced(numbering, machines)});
    strategies.push_back(
        {"min_cut",
         graph::partition_min_cut(program.dag, numbering, machines, 8)});

    for (const Strategy& strategy : strategies) {
      for (const std::uint64_t latency_us : {0ULL, 50ULL, 500ULL}) {
        distrib::ClusterOptions options;
        options.machines = machines;
        options.fixed_vertex_cost_ns = cost_ns;
        options.network_latency_ns = latency_us * 1000;
        options.partitioning = strategy.partitioning;
        distrib::ClusterExecutor cluster(program, options);
        cluster.run(phases, nullptr);

        const auto metrics = graph::evaluate_partitioning(
            program.dag, numbering, strategy.partitioning);
        const auto& cs = cluster.cluster_stats();
        double worst_util = 1.0;
        for (std::size_t m = 0; m < machines; ++m) {
          worst_util = std::min(worst_util, cs.utilisation(m, 1));
        }
        table.add_row(
            {support::Table::num(static_cast<std::uint64_t>(machines)),
             strategy.name,
             support::Table::num(
                 static_cast<std::uint64_t>(metrics.edge_cut)),
             support::Table::num(latency_us),
             support::Table::num(
                 static_cast<double>(cs.makespan_ns) / 1e6, 2),
             support::Table::num(base_makespan /
                                     static_cast<double>(cs.makespan_ns),
                                 2) +
                 "x",
             support::Table::num(worst_util, 2)});
        bench::JsonLine("partition", strategy.name)
            .config("machines", static_cast<std::uint64_t>(machines))
            .config("latency_us", static_cast<std::uint64_t>(latency_us))
            .config("phases", phases)
            .config("vertex_cost_ns", cost_ns)
            .metric("edge_cut", static_cast<std::uint64_t>(metrics.edge_cut))
            .metric("makespan_ms",
                    static_cast<double>(cs.makespan_ns) / 1e6)
            .metric("speedup",
                    base_makespan / static_cast<double>(cs.makespan_ns))
            .metric("util_worst", worst_util)
            .emit();

        const auto report =
            trace::compare_sinks(reference.sinks(), cluster.sinks());
        if (!report.equivalent) {
          std::printf("SERIALIZABILITY VIOLATION: %s\n",
                      report.summary().c_str());
          return 1;
        }
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: speedup tracks machine count while latency is small "
      "relative to vertex cost. The cut/balance trade-off is explicit: "
      "min_cut sends fewer network messages but sacrifices load balance "
      "(util_worst), so with cheap networks the balanced partitioner wins — "
      "the tension any real implementation of the paper's future work must "
      "resolve.\n");
  return 0;
}

// T3 — the paper's section 1 efficiency argument.
//
// "If one in a million transactions is anomalous then the rate of events
// generated using the second option [emit only anomalies] is only a
// millionth of that generated using the first option [emit per input]."
//
// Sweep the anomaly rate and compare the Δ-executor against the eager
// "obvious solution" baseline on an anomaly-detection chain: messages past
// the detector should scale with the anomaly rate under Δ-execution and
// stay constant (one per edge per phase) under eager execution.
#include <cstdio>

#include "baseline/eager.hpp"
#include "baseline/sequential.hpp"
#include "bench_json.hpp"
#include "model/sources.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

namespace {

using namespace df;

/// anomaly chain: sparse anomaly source -> forward -> forward (the
/// "downstream models" that should only wake on anomalies).
core::Program anomaly_chain(double rate, std::uint64_t seed) {
  spec::GraphBuilder b;
  const auto src = b.add("anomalies",
                         model::factory_of<model::SparseEventSource>(
                             rate, event::Value(1.0)));
  const auto m1 = b.add("model1", model::factory_of<model::ForwardModule>());
  const auto m2 = b.add("model2", model::factory_of<model::ForwardModule>());
  b.connect(src, m1).connect(m1, m2);
  return std::move(b).build(seed);
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{100000});
  flags.reject_unused();

  std::printf("T3: delta vs eager traffic as anomaly rate falls "
              "(paper section 1)\n");
  std::printf("%s\n", trace::machine_summary().c_str());
  std::printf("workload: 3-vertex anomaly chain, %llu phases\n",
              static_cast<unsigned long long>(phases));

  support::Table table({"anomaly_rate", "delta_msgs", "eager_msgs",
                        "msg_ratio", "delta_execs", "eager_execs",
                        "exec_ratio"});
  for (const double rate : {1e-1, 1e-2, 1e-3, 1e-4}) {
    baseline::SequentialExecutor delta(anomaly_chain(rate, 7));
    baseline::EagerExecutor eager(anomaly_chain(rate, 7));
    delta.run(phases, nullptr);
    eager.run(phases, nullptr);
    const auto d = delta.stats();
    const auto e = eager.stats();
    table.add_row(
        {support::Table::num(rate, 5), support::Table::num(d.messages_delivered),
         support::Table::num(e.messages_delivered),
         support::Table::num(
             static_cast<double>(e.messages_delivered) /
                 std::max<double>(1.0,
                                  static_cast<double>(d.messages_delivered)),
             1) +
             "x",
         support::Table::num(d.executed_pairs),
         support::Table::num(e.executed_pairs),
         support::Table::num(static_cast<double>(e.executed_pairs) /
                                 static_cast<double>(d.executed_pairs),
                             1) +
             "x"});
    df::bench::JsonLine("sparsity", "anomaly_rate_sweep")
        .config("anomaly_rate", rate)
        .config("phases", phases)
        .metric("delta_msgs", d.messages_delivered)
        .metric("eager_msgs", e.messages_delivered)
        .metric("delta_execs", d.executed_pairs)
        .metric("eager_execs", e.executed_pairs)
        .emit();
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper: delta traffic ~ rate x eager traffic — at rate r the message "
      "ratio is ~1/r (the one-in-a-million argument scaled down).\n");
  return 0;
}

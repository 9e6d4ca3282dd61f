// E4 (extension) — paper section 6 future work: partitioning the
// computation graph across machines.
//
// Runs the partitioned transport (distrib::TransportEngine: one engine per
// block, wire-encoded frames over in-process channels) on a layered graph
// whose vertices each spin for --vertex_cost_ns per execution, and sweeps
// machine count x partitioner x one-way channel latency. Every row reports
// measured phases/s and the speedup over a 1-machine transport run of the
// same program, the edge cut the partitioner achieves, and the fraction of
// messages that crossed a block boundary. Sink output is checked against
// the sequential reference on every row.
//
// Latency comes from a channel wrapper (LatencyChannel below) that makes
// each frame receivable a fixed time after its send. Frames sent back to
// back are in flight together, as on a network link, instead of queueing
// behind one another's delay. Every JSON row carries hw_concurrency: with
// more machines than cores the machines share cores, and the speedup
// measures that sharing too.
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/sequential.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "distrib/channel.hpp"
#include "distrib/transport.hpp"
#include "graph/partition.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"
#include "trace/serializability.hpp"

namespace {

using namespace df;

/// Delays every frame of the wrapped channel by a fixed one-way latency, in
/// FIFO order. send() stamps the frame's deadline and passes it straight
/// on; recv() sleeps until the received frame's deadline.
class LatencyChannel final : public distrib::Channel {
 public:
  LatencyChannel(std::unique_ptr<distrib::Channel> inner,
                 std::chrono::microseconds latency)
      : inner_(std::move(inner)), latency_(latency) {}

  void send(std::span<const std::uint8_t> frame) override {
    {
      // Stamped before the frame enters the inner channel, so the receiver
      // always finds the deadline of the frame it just received.
      std::lock_guard<std::mutex> lock(mutex_);
      deadlines_.push_back(Clock::now() + latency_);
    }
    inner_->send(frame);
  }

  bool recv(std::vector<std::uint8_t>& frame) override {
    if (!inner_->recv(frame)) {
      return false;
    }
    Clock::time_point deadline;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deadline = deadlines_.front();
      deadlines_.pop_front();
    }
    std::this_thread::sleep_until(deadline);
    return true;
  }

  void close_send() override { inner_->close_send(); }
  void close_recv() override { inner_->close_recv(); }

 private:
  using Clock = std::chrono::steady_clock;

  std::unique_ptr<distrib::Channel> inner_;
  const std::chrono::microseconds latency_;
  std::mutex mutex_;
  std::deque<Clock::time_point> deadlines_;
};

}  // namespace

int main(int argc, char** argv) {
  const support::CliFlags flags(argc, argv);
  const std::uint64_t phases = flags.get("phases", std::uint64_t{200});
  const std::uint64_t cost_ns =
      flags.get("vertex_cost_ns", std::uint64_t{100000});
  flags.reject_unused();
  const std::uint64_t hw_concurrency =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());

  std::printf("E4: graph partitioning across machines on the real transport "
              "(paper section 6)\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  support::Rng rng(23);
  const graph::Dag shape = graph::layered(6, 4, 2, rng);
  const core::Program program = bench::busywork_over(shape, cost_ns, 29);
  const graph::Numbering& numbering = program.numbering;

  // Reference sinks for the serializability check on every row.
  baseline::SequentialExecutor reference(program);
  reference.run(phases, nullptr);
  const auto matches_reference = [&reference](
                                     const distrib::TransportEngine& run,
                                     const std::string& row) {
    const auto report = trace::compare_sinks(reference.sinks(), run.sinks());
    if (!report.equivalent) {
      std::printf("SERIALIZABILITY VIOLATION (%s): %s\n", row.c_str(),
                  report.summary().c_str());
    }
    return report.equivalent;
  };

  // The baseline: the whole graph in one partition (one engine, no
  // channels).
  distrib::TransportOptions one_machine;
  one_machine.machines = 1;
  distrib::TransportEngine single(program, one_machine);
  single.run(phases, nullptr);
  const double base_rate = single.stats().phases_per_second();
  bench::JsonLine("partition", "one_machine")
      .config("machines", std::uint64_t{1})
      .config("phases", phases)
      .config("vertex_cost_ns", cost_ns)
      .config("hw_concurrency", hw_concurrency)
      .metric("phases_per_sec", base_rate)
      .emit();
  bool ok = matches_reference(single, "one_machine");

  support::Table table({"machines", "partitioner", "edge_cut", "latency_us",
                        "phases_per_s", "speedup", "remote_frac"});
  for (const std::size_t machines : {2UL, 4UL, 8UL}) {
    struct Strategy {
      const char* name;
      graph::Partitioning partitioning;
    };
    const Strategy strategies[] = {
        {"balanced", graph::partition_balanced(numbering, machines)},
        {"min_cut",
         graph::partition_min_cut(program.dag, numbering, machines, 8)}};

    for (const Strategy& strategy : strategies) {
      const auto metrics = graph::evaluate_partitioning(
          program.dag, numbering, strategy.partitioning);
      for (const std::uint64_t latency_us : {0ULL, 50ULL, 500ULL}) {
        distrib::TransportOptions options;
        options.machines = machines;
        options.partitioning = strategy.partitioning;
        if (latency_us > 0) {
          options.channel_wrapper =
              [latency_us](std::unique_ptr<distrib::Channel> inner,
                           std::size_t, std::size_t)
              -> std::unique_ptr<distrib::Channel> {
            return std::make_unique<LatencyChannel>(
                std::move(inner), std::chrono::microseconds(latency_us));
          };
        }
        distrib::TransportEngine transport(program, options);
        transport.run(phases, nullptr);

        const core::ExecStats stats = transport.stats();
        const double rate = stats.phases_per_second();
        const double remote_frac =
            stats.messages_delivered == 0
                ? 0.0
                : static_cast<double>(
                      transport.transport_stats().remote_messages) /
                      static_cast<double>(stats.messages_delivered);
        table.add_row(
            {support::Table::num(static_cast<std::uint64_t>(machines)),
             strategy.name,
             support::Table::num(
                 static_cast<std::uint64_t>(metrics.edge_cut)),
             support::Table::num(latency_us), support::Table::num(rate, 0),
             support::Table::num(rate / base_rate, 2) + "x",
             support::Table::num(remote_frac, 2)});
        bench::JsonLine("partition", strategy.name)
            .config("machines", static_cast<std::uint64_t>(machines))
            .config("latency_us", static_cast<std::uint64_t>(latency_us))
            .config("phases", phases)
            .config("vertex_cost_ns", cost_ns)
            .config("hw_concurrency", hw_concurrency)
            .metric("edge_cut", static_cast<std::uint64_t>(metrics.edge_cut))
            .metric("phases_per_sec", rate)
            .metric("speedup", rate / base_rate)
            .metric("remote_frac", remote_frac)
            .emit();
        ok = matches_reference(transport,
                               std::to_string(machines) + " machines, " +
                                   strategy.name + ", " +
                                   std::to_string(latency_us) + " us") &&
             ok;
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: with the grain well above the per-phase channel "
      "cost, speedup grows with machine count up to the core count and "
      "then flattens, since extra machines share cores. Latency mostly "
      "adds pipeline fill: frames in flight overlap, so a block only waits "
      "once per hop, not once per phase. min_cut crosses fewer edges "
      "(lower remote_frac) but can leave blocks unbalanced, and the "
      "slowest block sets the phase rate.\n");
  return ok ? 0 : 1;
}

// E5 (extension) — paper section 6 future work, made real: partitioned
// execution over serialized channels (distrib::TransportEngine).
//
// Where bench_partition *simulates* a cluster with a timing model, this
// bench runs the real thing: one engine per partition block, wire-encoded
// frames crossing every boundary over either the in-process ring channel
// or loopback TCP. Sweeps machine count x channel kind against the
// sequential reference and prints phase throughput plus the transport's
// own accounting (frames, bytes, remote fraction). Sink output is checked
// against the sequential reference on every row.
//
// --smoke runs a small fixed configuration over both channel kinds and
// exits non-zero on any mismatch — registered as a ctest smoke test with
// the `transport` label, so every CI configuration (including TSan)
// executes real socket traffic.
//
// --engine-threads=K configures the per-block engines (two-level
// parallelism: machines x engine_threads workers in total); it is recorded
// in every JSON row alongside hw_concurrency so a single-core CI box's rows
// are not mistaken for a multicore measurement.
#include <cstdio>
#include <thread>

#include "baseline/sequential.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "distrib/transport.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"
#include "trace/serializability.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const bool smoke = flags.get("smoke", false);
  const std::uint64_t phases =
      flags.get("phases", smoke ? std::uint64_t{80} : std::uint64_t{2000});
  const std::uint64_t grain_ns =
      flags.get("grain_ns", smoke ? std::uint64_t{0} : std::uint64_t{2000});
  const std::uint64_t layers = flags.get("layers", std::uint64_t{6});
  const std::uint64_t width = flags.get("width", std::uint64_t{4});
  const std::size_t engine_threads =
      flags.get("engine-threads", std::uint64_t{1});
  if (engine_threads == 0) {
    std::printf("--engine-threads must be >= 1\n");
    return 2;
  }
  // Fault-tolerance overhead axis: checkpoint every K completed phases
  // (0 = off, the default). A non-zero K prices quiesce + snapshot +
  // egress retention on the same rows as the plain run, so the overhead
  // is a column, not a separate benchmark.
  const std::size_t checkpoint_every =
      flags.get("checkpoint-every", std::uint64_t{0});
  flags.reject_unused();
  const std::uint64_t hw_concurrency =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());

  std::printf("E5: real partitioned transport (paper section 6)\n");
  std::printf("%s\n", trace::machine_summary().c_str());

  const core::Program program = bench::uniform_busywork_program(
      static_cast<std::uint32_t>(layers), static_cast<std::uint32_t>(width),
      grain_ns, 29);

  baseline::SequentialExecutor reference(program);
  reference.run(phases, nullptr);
  const double reference_s = reference.stats().wall_seconds;

  bench::JsonLine("transport", "sequential_reference")
      .config("phases", phases)
      .config("grain_ns", grain_ns)
      .config("vertices", static_cast<std::uint64_t>(
                              program.numbering.size()))
      .config("hw_concurrency", hw_concurrency)
      .metric("phases_per_sec", reference.stats().phases_per_second())
      .metric("pairs_per_sec", reference.stats().pairs_per_second())
      .emit();

  support::Table table({"machines", "channel", "phases_per_s", "speedup",
                        "frames", "kframe_bytes", "remote_frac"});
  bool ok = true;

  for (const std::size_t machines :
       smoke ? std::vector<std::size_t>{2}
             : std::vector<std::size_t>{2, 4}) {
    for (const distrib::ChannelKind kind :
         {distrib::ChannelKind::kInProcess, distrib::ChannelKind::kSocket}) {
      const char* kind_name =
          kind == distrib::ChannelKind::kInProcess ? "inproc" : "socket";
      distrib::TransportOptions options;
      options.machines = machines;
      options.channel = kind;
      options.engine_threads = engine_threads;
      options.checkpoint_every = checkpoint_every;
      distrib::TransportEngine transport(program, options);
      transport.run(phases, nullptr);

      const auto stats = transport.stats();
      const auto& tstats = transport.transport_stats();
      const double remote_frac =
          stats.messages_delivered == 0
              ? 0.0
              : static_cast<double>(tstats.remote_messages) /
                    static_cast<double>(stats.messages_delivered);
      table.add_row(
          {support::Table::num(static_cast<std::uint64_t>(machines)),
           kind_name,
           support::Table::num(stats.phases_per_second(), 0),
           support::Table::num(reference_s / stats.wall_seconds, 2) + "x",
           support::Table::num(tstats.frames_sent),
           support::Table::num(
               static_cast<double>(tstats.bytes_sent) / 1e3, 1),
           support::Table::num(remote_frac, 2)});
      bench::JsonLine("transport", std::string("transport_") + kind_name)
          .config("machines", static_cast<std::uint64_t>(machines))
          .config("channel", kind_name)
          .config("phases", phases)
          .config("grain_ns", grain_ns)
          .config("vertices", static_cast<std::uint64_t>(
                                  program.numbering.size()))
          .config("engine_threads",
                  static_cast<std::uint64_t>(engine_threads))
          .config("checkpoint_every",
                  static_cast<std::uint64_t>(checkpoint_every))
          .config("hw_concurrency", hw_concurrency)
          .metric("phases_per_sec", stats.phases_per_second())
          .metric("pairs_per_sec", stats.pairs_per_second())
          .metric("speedup_vs_sequential",
                  reference_s / stats.wall_seconds)
          .metric("frames_sent", tstats.frames_sent)
          .metric("bytes_sent", tstats.bytes_sent)
          .metric("batch_frames_sent", tstats.batch_frames_sent)
          .metric("batched_deliveries", tstats.batched_deliveries)
          .metric("frames_per_phase",
                  static_cast<double>(tstats.frames_sent) /
                      static_cast<double>(phases))
          .metric("bytes_per_phase",
                  static_cast<double>(tstats.bytes_sent) /
                      static_cast<double>(phases))
          .metric("remote_messages", tstats.remote_messages)
          .metric("remote_frac", remote_frac)
          .metric("checkpoints_taken", tstats.checkpoints_taken)
          .metric("checkpoint_bytes", tstats.checkpoint_bytes)
          .emit();

      const auto report =
          trace::compare_sinks(reference.sinks(), transport.sinks());
      if (!report.equivalent) {
        std::printf("SERIALIZABILITY VIOLATION (machines=%zu, %s): %s\n",
                    machines, kind_name, report.summary().c_str());
        ok = false;
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: with a real per-vertex grain the partitioned run "
      "overlaps blocks across phases (pipeline parallelism), so speedup "
      "approaches the block count while the channel cost stays small next "
      "to the grain; at grain_ns=0 the wire cost dominates and the rows "
      "price exactly that overhead — frames and bytes per phase are the "
      "paper's 'network traffic' axis, measured instead of simulated.\n");
  return ok ? 0 : 1;
}

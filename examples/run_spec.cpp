// Generic specification runner — the closest analogue of the paper's
// prototype binary: load an XML computation specification, execute it on a
// chosen executor, print the sink streams and statistics.
//
// Usage:
//   run_spec <spec.xml> [--executor=engine|sequential|lockstep|eager|
//            transport] [--phases=N] [--threads=K] [--machines=K]
//            [--channel=inproc|socket] [--verify] [--events=file.csv]
//
// --threads configures the worker pool: for --executor=engine the single
// engine's thread count, for --executor=transport the per-partition
// engines' (two-level parallelism: machines x threads workers in total).
// Unknown flags are rejected with exit status 2; an unreadable or malformed
// spec, event CSV or flag value exits with status 1 and its message on
// stderr.
//
// With --verify, the run is repeated on the sequential reference and the
// sink streams are compared (serializability check). With --events, the
// named timestamped-event CSV is grouped into phases (equal timestamps =
// one phase, paper section 2) and fed to source vertices; the phase count
// then comes from the file. --executor=transport runs the partitioned
// multi-engine transport; the partition count comes from --machines or the
// spec's <simulation machines="K"> attribute.
#include <cstdio>

#include "baseline/eager.hpp"
#include "baseline/lockstep.hpp"
#include "baseline/sequential.hpp"
#include "core/engine.hpp"
#include "distrib/transport.hpp"
#include "spec/event_csv.hpp"
#include "spec/spec.hpp"
#include "spec/xml.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "trace/report.hpp"
#include "trace/serializability.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  if (flags.positional().empty()) {
    std::printf("usage: run_spec <spec.xml> [--executor=engine|sequential|"
                "lockstep|eager|transport] [--phases=N] [--threads=K] "
                "[--machines=K] [--channel=inproc|socket] [--verify] "
                "[--events=file.csv]\n");
    return 2;
  }

  const spec::ComputationSpec computation =
      spec::load_spec_file(flags.positional()[0]);
  const core::Program program = computation.to_program();

  const std::string events_path = flags.get("events", std::string());
  const std::size_t threads =
      flags.get("threads",
                static_cast<std::uint64_t>(computation.simulation.threads));
  const std::string executor_name =
      flags.get("executor", std::string("engine"));
  const std::size_t machines = flags.get(
      "machines", static_cast<std::uint64_t>(computation.simulation.machines));
  const std::string channel = flags.get("channel", std::string("inproc"));
  const bool verify = flags.get("verify", false);
  const event::PhaseId phases_flag =
      flags.get("phases", computation.simulation.timesteps);
  flags.reject_unused();
  // Reject nonsense parallelism up front rather than silently falling back
  // to a default: a benchmark script passing --threads=0 should fail loud.
  if (threads == 0) {
    std::printf("--threads must be >= 1\n");
    return 2;
  }

  std::vector<std::vector<event::ExternalEvent>> batches;
  if (!events_path.empty()) {
    batches = spec::assemble_batches(
        spec::load_event_csv_file(events_path, program.dag));
  }
  const event::PhaseId phases = !batches.empty() ? batches.size() : phases_flag;

  std::unique_ptr<core::Executor> executor;
  if (executor_name == "engine") {
    core::EngineOptions options;
    options.threads = threads;
    options.max_inflight_phases = computation.simulation.max_inflight_phases;
    executor = std::make_unique<core::Engine>(program, options);
  } else if (executor_name == "sequential") {
    executor = std::make_unique<baseline::SequentialExecutor>(program);
  } else if (executor_name == "lockstep") {
    executor = std::make_unique<baseline::LockstepExecutor>(program, threads);
  } else if (executor_name == "eager") {
    executor = std::make_unique<baseline::EagerExecutor>(program);
  } else if (executor_name == "transport") {
    distrib::TransportOptions options;
    options.machines = machines;
    // Two-level parallelism: every partition block runs the full worker
    // pool, so --threads configures each per-block engine.
    options.engine_threads = threads;
    options.max_inflight_phases = computation.simulation.max_inflight_phases;
    if (channel == "socket") {
      options.channel = distrib::ChannelKind::kSocket;
    } else if (channel == "inproc") {
      options.channel = distrib::ChannelKind::kInProcess;
    } else {
      std::printf("unknown channel '%s' (expected inproc|socket)\n",
                  channel.c_str());
      return 2;
    }
    executor = std::make_unique<distrib::TransportEngine>(program, options);
  } else {
    std::printf("unknown executor '%s'\n", executor_name.c_str());
    return 2;
  }

  core::VectorFeed feed(batches);
  executor->run(phases, batches.empty() ? nullptr : &feed);

  std::printf("%s\n", trace::machine_summary().c_str());
  std::size_t shown = 0;
  for (const core::SinkRecord& record : executor->sinks().canonical()) {
    if (++shown > 40) {
      std::printf("  ... %zu more sink records\n",
                  executor->sinks().size() - 40);
      break;
    }
    std::printf("  %s (%s)\n", core::to_string(record).c_str(),
                program.dag.name(record.vertex).c_str());
  }
  std::printf("%s\n",
              trace::render_stats(executor_name, executor->stats()).c_str());

  if (verify) {
    baseline::SequentialExecutor reference(program);
    core::VectorFeed reference_feed(batches);
    reference.run(phases, batches.empty() ? nullptr : &reference_feed);
    const auto report =
        trace::compare_sinks(reference.sinks(), executor->sinks());
    std::printf("serializability: %s\n", report.summary().c_str());
    return report.equivalent ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A missing or malformed spec or event file, or a malformed flag value,
  // ends the run with its message and status 1 instead of an abort.
  try {
    return run(argc, argv);
  } catch (const df::support::check_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
  } catch (const df::spec::xml_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return 1;
}

#include "baseline/eager.hpp"

#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace df::baseline {

EagerExecutor::EagerExecutor(const core::Program& program)
    : instance_(program) {
  last_output_.resize(instance_.n() + 1);
  for (std::uint32_t v = 1; v <= instance_.n(); ++v) {
    last_output_[v].resize(instance_.out_port_count(v));
  }
}

void EagerExecutor::run(event::PhaseId num_phases, core::PhaseFeed* feed) {
  core::NullFeed null_feed;
  core::PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  const std::uint32_t n = instance_.n();

  support::Stopwatch wall;
  support::SampledStopwatch compute_timer(0);
  std::vector<event::InputBundle> pending(n + 1);

  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    for (const event::ExternalEvent& ev : source.events_for(p)) {
      const std::uint32_t index = instance_.internal_index(ev.vertex);
      DF_CHECK(instance_.is_source(index),
               "external events may only target source vertices");
      pending[index].push_back(event::Message{ev.port, ev.value});
    }

    for (std::uint32_t v = 1; v <= n; ++v) {
      // Option (1) of the paper: every vertex computes every phase.
      const event::InputBundle bundle = std::move(pending[v]);
      pending[v] = event::InputBundle{};

      compute_timer.start();
      core::ExecutionResult result =
          core::execute_vertex(instance_, v, p, bundle);
      stats_.compute_ns += compute_timer.stop();
      ++stats_.executed_pairs;

      // Record fresh emissions per port (the last one wins), then forward
      // *every* known output on *every* edge — a message on every output
      // for every phase.
      std::vector<std::optional<event::Value>>& outputs = last_output_[v];
      for (const event::Message& msg : result.emissions) {
        if (msg.port < outputs.size()) {
          outputs[msg.port] = msg.value;
        }
      }
      for (std::size_t port = 0; port < outputs.size(); ++port) {
        if (!outputs[port].has_value()) {
          continue;  // nothing ever emitted on this port yet
        }
        for (const core::Route& r :
             instance_.routes(v, static_cast<graph::Port>(port))) {
          pending[r.to_index].push_back(
              event::Message{r.to_port, *outputs[port]});
          ++stats_.messages_delivered;
        }
      }
      stats_.sink_records += result.sink_records.size();
      sinks_.record_batch(std::move(result.sink_records));
    }
    ++stats_.phases_completed;
  }
  stats_.wall_seconds = wall.elapsed_s();
  stats_.max_inflight_phases = 1;
}

}  // namespace df::baseline

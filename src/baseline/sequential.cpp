#include "baseline/sequential.hpp"

#include <optional>

#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace df::baseline {

SequentialExecutor::SequentialExecutor(const core::Program& program)
    : instance_(program) {}

void SequentialExecutor::run(event::PhaseId num_phases,
                             core::PhaseFeed* feed) {
  core::NullFeed null_feed;
  core::PhaseFeed& source = feed != nullptr ? *feed : null_feed;
  const std::uint32_t n = instance_.n();

  support::Stopwatch wall;
  support::SampledStopwatch compute_timer(0);
  // Messages waiting for each vertex within the current phase. Edges go
  // from lower to higher internal index, so a single ascending sweep
  // delivers everything before it is consumed.
  std::vector<std::optional<event::InputBundle>> pending(n + 1);

  for (event::PhaseId p = 1; p <= num_phases; ++p) {
    for (const event::ExternalEvent& ev : source.events_for(p)) {
      const std::uint32_t index = instance_.internal_index(ev.vertex);
      DF_CHECK(instance_.is_source(index),
               "external events may only target source vertices");
      if (!pending[index].has_value()) {
        pending[index].emplace();
      }
      pending[index]->push_back(event::Message{ev.port, ev.value});
    }

    for (std::uint32_t v = 1; v <= n; ++v) {
      const bool is_source = instance_.is_source(v);
      if (!is_source && !pending[v].has_value()) {
        continue;  // no input changed: execution unnecessary this phase
      }
      const event::InputBundle bundle =
          pending[v].has_value() ? std::move(*pending[v])
                                 : event::InputBundle{};
      pending[v].reset();

      compute_timer.start();
      core::ExecutionResult result =
          core::execute_vertex(instance_, v, p, bundle);
      stats_.compute_ns += compute_timer.stop();
      ++stats_.executed_pairs;

      for (core::ExecutionResult::Delivery& d : result.deliveries) {
        DF_CHECK(d.to_index > v, "delivery to an already-visited vertex");
        if (!pending[d.to_index].has_value()) {
          pending[d.to_index].emplace();
        }
        pending[d.to_index]->push_back(
            event::Message{d.to_port, std::move(d.value)});
        ++stats_.messages_delivered;
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

#include "core/executor.hpp"

#include "support/check.hpp"

namespace df::core {

namespace {

/// PhaseContext implementation shared by all executors. Input lookups scan
/// the bundle linearly: fan-in is small in practice and the bundle is
/// already in cache.
class ContextImpl final : public model::PhaseContext {
 public:
  ContextImpl(ProgramInstance& instance, std::uint32_t index,
              event::PhaseId phase, const event::InputBundle& bundle,
              std::vector<event::Message>& emissions)
      : runtime_(instance.runtime(index)),
        phase_(phase),
        bundle_(bundle),
        emissions_(emissions) {
    // Apply the bundle to the latest-value table first, so latest() already
    // reflects this phase (messages later in the bundle win per port).
    for (const event::Message& msg : bundle_) {
      if (msg.port >= runtime_.latest.size()) {
        runtime_.latest.resize(msg.port + 1);
        runtime_.has_latest.resize(msg.port + 1, false);
      }
      runtime_.latest[msg.port] = msg.value;
      runtime_.has_latest[msg.port] = true;
    }
  }

  event::PhaseId phase() const override { return phase_; }

  bool has_input(graph::Port port) const override {
    for (const event::Message& msg : bundle_) {
      if (msg.port == port) {
        return true;
      }
    }
    return false;
  }

  const event::Value& input(graph::Port port) const override {
    const event::Value* found = nullptr;
    for (const event::Message& msg : bundle_) {
      if (msg.port == port) {
        found = &msg.value;  // last message on the port wins
      }
    }
    DF_CHECK(found != nullptr, "no input on port ", port, " this phase");
    return *found;
  }

  bool has_latest(graph::Port port) const override {
    return port < runtime_.has_latest.size() && runtime_.has_latest[port];
  }

  const event::Value& latest(graph::Port port) const override {
    DF_CHECK(has_latest(port), "port ", port, " has never received a value");
    return runtime_.latest[port];
  }

  void emit(graph::Port port, event::Value value) override {
    emissions_.push_back(event::Message{port, std::move(value)});
  }

  support::Rng& rng() override { return runtime_.rng; }

 private:
  VertexRuntime& runtime_;
  event::PhaseId phase_;
  const event::InputBundle& bundle_;
  std::vector<event::Message>& emissions_;
};

}  // namespace

ExecutionResult execute_vertex(ProgramInstance& instance, std::uint32_t index,
                               event::PhaseId phase,
                               const event::InputBundle& bundle) {
  ExecutionResult result;
  execute_vertex(instance, index, phase, bundle, result);
  return result;
}

void execute_vertex(ProgramInstance& instance, std::uint32_t index,
                    event::PhaseId phase, const event::InputBundle& bundle,
                    ExecutionResult& result) {
  result.deliveries.clear();
  result.sink_records.clear();
  result.emissions.clear();
  ContextImpl ctx(instance, index, phase, bundle, result.emissions);
  instance.runtime(index).module->on_phase(ctx);

  const graph::VertexId original = instance.original_id(index);
  for (const event::Message& msg : result.emissions) {
    const std::vector<Route>& routes = instance.routes(index, msg.port);
    if (routes.empty()) {
      // Dangling port: sink output, read from outside the fusion system.
      result.sink_records.push_back(
          SinkRecord{phase, original, msg.port, msg.value});
      continue;
    }
    for (const Route& route : routes) {
      result.deliveries.push_back(ExecutionResult::Delivery{
          route.to_index, route.to_port, msg.value});
    }
  }
}

}  // namespace df::core

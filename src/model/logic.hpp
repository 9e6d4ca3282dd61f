// Boolean combinators over condition streams: composite conditions such as
// "hospital occupancy high AND road closed" are conjunctions/disjunctions of
// detector outputs. All gates emit only when their output value changes.
//
// Inputs are the *latest* boolean on each port; a port that has never fired
// is treated as false (no condition reported yet), so gates can produce
// meaningful output before every upstream detector has spoken.
#pragma once

#include <cstdint>
#include <optional>

#include "model/module.hpp"

namespace df::model {

/// Base for change-only boolean gates over `fan_in` inputs.
class BoolGate : public Module {
 public:
  explicit BoolGate(std::size_t fan_in);
  void on_phase(PhaseContext& ctx) final;
  void persist_state(support::StateArchive& ar) final {
    ar.optional(last_output_, [](support::StateArchive& a, bool& b) {
      a.boolean(b);
    });
  }

 protected:
  /// Combines the current input values into the gate's output.
  virtual bool combine(const std::vector<bool>& inputs) const = 0;

 private:
  std::size_t fan_in_;
  std::optional<bool> last_output_;
};

class AndGate final : public BoolGate {
 public:
  explicit AndGate(std::size_t fan_in) : BoolGate(fan_in) {}

 protected:
  bool combine(const std::vector<bool>& inputs) const override;
};

class OrGate final : public BoolGate {
 public:
  explicit OrGate(std::size_t fan_in) : BoolGate(fan_in) {}

 protected:
  bool combine(const std::vector<bool>& inputs) const override;
};

class XorGate final : public BoolGate {
 public:
  explicit XorGate(std::size_t fan_in) : BoolGate(fan_in) {}

 protected:
  bool combine(const std::vector<bool>& inputs) const override;
};

/// True when at least `quorum` of the inputs are true.
class MajorityGate final : public BoolGate {
 public:
  MajorityGate(std::size_t fan_in, std::size_t quorum);

 protected:
  bool combine(const std::vector<bool>& inputs) const override;

 private:
  std::size_t quorum_;
};

/// Inverts its single input; emits on change.
class NotGate final : public BoolGate {
 public:
  NotGate() : BoolGate(1) {}

 protected:
  bool combine(const std::vector<bool>& inputs) const override;
};

/// Sticky alarm: once any input event arrives, emits `true` exactly once and
/// stays silent forever after (an edge-triggered latch).
class LatchModule final : public Module {
 public:
  void on_phase(PhaseContext& ctx) override;

 private:
  bool fired_ = false;
};

/// Emits the running count of input events on every `stride`-th event.
class PulseCounterModule final : public Module {
 public:
  explicit PulseCounterModule(std::uint64_t stride);
  void on_phase(PhaseContext& ctx) override;

 private:
  std::uint64_t stride_;
  std::uint64_t count_ = 0;
};

}  // namespace df::model

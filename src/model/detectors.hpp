// Condition detectors: the predicates over event-stream histories the paper
// calls "critical conditions — threats or opportunities".
//
// All detectors follow the paper's option (2): they emit *only when the
// condition fires or clears*, never per input. This is the behaviour that
// makes Δ-dataflow pay off (one-in-a-million anomalies produce a millionth
// of the traffic) and that creates the race the core algorithm resolves.
#pragma once

#include <cstdint>
#include <optional>

#include "model/module.hpp"
#include "support/stats.hpp"

namespace df::model {

/// Emits `true` when the input crosses above `threshold` and `false` when it
/// falls back — a level trigger with change-only output.
class ThresholdDetector final : public Module {
 public:
  explicit ThresholdDetector(double threshold);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    ar.optional(state_, [](support::StateArchive& a, bool& b) {
      a.boolean(b);
    });
  }

 private:
  double threshold_;
  std::optional<bool> state_;
};

/// Z-score anomaly detector: keeps windowed mean/stddev of the input and
/// emits the z-score when |z| exceeds z_threshold (an anomalous reading).
/// Needs `min_samples` before it starts judging.
class ZScoreDetector final : public Module {
 public:
  ZScoreDetector(std::size_t window, double z_threshold,
                 std::size_t min_samples = 8);
  void on_phase(PhaseContext& ctx) override;
  void persist_state(support::StateArchive& ar) override {
    stats_.persist(ar);
  }

 private:
  support::WindowedStats stats_;
  double z_threshold_;
  std::size_t min_samples_;
};

/// Regression-residual outlier detector (the paper's money-laundering
/// anomaly definition: "outlier points in a statistical regression model").
/// Regresses the input against the phase number over a sliding window and
/// emits the observation when its residual exceeds `sigmas` residual
/// standard deviations.
class RegressionResidualDetector final : public Module {
 public:
  RegressionResidualDetector(std::size_t window, double sigmas,
                             std::size_t min_samples = 8);
  void on_phase(PhaseContext& ctx) override;

 private:
  std::size_t window_;
  double sigmas_;
  std::size_t min_samples_;
  std::deque<std::pair<double, double>> samples_;
  support::OnlineLinearRegression regression_;
  support::WindowedStats residuals_;
};

/// Expectation monitor (the paper's power-demand example): port 0 carries
/// observations, port 1 carries the current assumption/forecast. Emits the
/// observed value when |observed - assumed| exceeds `tolerance` — i.e. a
/// message means "your assumption is violated"; silence means it holds.
class ExpectationMonitor final : public Module {
 public:
  explicit ExpectationMonitor(double tolerance);
  void on_phase(PhaseContext& ctx) override;

 private:
  double tolerance_;
  bool violated_ = false;
};

/// Two-sided CUSUM drift detector with slack `k` and decision interval `h`
/// (in units of the reference mean set by the first `warmup` samples).
/// Emits +1.0 / -1.0 on upward / downward drift detection, then resets.
class CusumDetector final : public Module {
 public:
  CusumDetector(double k, double h, std::size_t warmup = 16);
  void on_phase(PhaseContext& ctx) override;

 private:
  double k_;
  double h_;
  std::size_t warmup_;
  support::RunningStats reference_;
  double positive_ = 0.0;
  double negative_ = 0.0;
};

/// Spike detector: emits the input when it exceeds `factor` times the moving
/// average of the previous `window` inputs.
class SpikeDetector final : public Module {
 public:
  SpikeDetector(std::size_t window, double factor);
  void on_phase(PhaseContext& ctx) override;

 private:
  support::WindowedStats stats_;
  double factor_;
};

}  // namespace df::model

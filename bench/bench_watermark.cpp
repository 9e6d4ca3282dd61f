// E5 (extension) — paper section 6 future work: noisy timestamps and
// random delivery delays.
//
// "The fusion engine must wait long enough after time t to ensure that
// sensor data taken at time t arrives with high probability. Incorporating
// more accurate notions of ... time are necessary for analyzing error: the
// probability of false positives ... and false negatives."
//
// This harness quantifies that trade-off: events suffer random
// exponential delays; the watermark assembler waits `wait` time units
// before closing each phase. Larger waits lose fewer events (false
// negatives) but add detection latency. The closed phases then drive a
// real correlation graph end to end.
#include <cmath>
#include <cstdio>

#include "bench_json.hpp"
#include "core/engine.hpp"
#include "event/watermark.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/detectors.hpp"
#include "spec/builder.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/report.hpp"

int main(int argc, char** argv) {
  using namespace df;
  const support::CliFlags flags(argc, argv);
  const std::uint64_t events = flags.get("events", std::uint64_t{20000});
  const double mean_delay = flags.get("mean_delay", 8.0);
  flags.reject_unused();

  std::printf("E5: watermark wait vs event loss under random delays "
              "(paper section 6)\n");
  std::printf("%s\n", trace::machine_summary().c_str());
  std::printf("delay model: arrival = t + 1 + Exp(mean %s)\n",
              support::Table::num(mean_delay, 1).c_str());

  support::Table table({"wait", "late_events", "loss%", "phases",
                        "mean_close_lag", "alerts"});
  for (const event::Timestamp wait :
       {event::Timestamp{0}, event::Timestamp{4}, event::Timestamp{16},
        event::Timestamp{64}, event::Timestamp{256}}) {
    // Sensor stream: one reading per time unit, with a detection graph
    // fed from the reassembled phases.
    spec::GraphBuilder b;
    const auto sensor = b.add(
        "sensor", model::factory_of<model::ExternalPassthroughSource>());
    const auto avg = b.add(
        "avg", model::factory_of<model::MovingAverageModule>(std::size_t{16}));
    const auto alarm =
        b.add("alarm", model::factory_of<model::ThresholdDetector>(0.6));
    b.connect(sensor, avg).connect(avg, alarm);
    const core::Program program = std::move(b).build(41);

    // Generate, delay, and reorder the sensor readings.
    support::Rng value_rng(17);
    event::DelayModel delays(1, mean_delay, 99);
    std::vector<event::DelayedEvent> wire;
    wire.reserve(events);
    for (std::uint64_t t = 1; t <= events; ++t) {
      const double reading =
          0.5 + 0.4 * std::sin(static_cast<double>(t) / 500.0) +
          value_rng.next_normal(0.0, 0.05);
      wire.push_back(delays.delay(event::TimestampedEvent{
          static_cast<event::Timestamp>(t),
          event::ExternalEvent{sensor, 0, event::Value(reading)}}));
    }
    wire = event::DelayModel::arrival_order(std::move(wire));

    // Reassemble phases behind the watermark and feed the engine live.
    event::WatermarkAssembler assembler(wait);
    core::Engine engine(program, {.threads = 2});
    engine.start();
    double close_lag_sum = 0.0;
    std::uint64_t closed = 0;
    const auto submit = [&](const event::PhaseBatch& batch) {
      engine.start_phase(batch.events);
      ++closed;
      // Lag between the phase's generation time and the watermark that
      // closed it (the detection-latency cost of waiting).
      close_lag_sum += static_cast<double>(wait);
    };
    for (const event::DelayedEvent& e : wire) {
      for (const event::PhaseBatch& batch : assembler.feed(e)) {
        submit(batch);
      }
    }
    for (const event::PhaseBatch& batch : assembler.flush()) {
      submit(batch);
    }
    engine.finish();

    std::uint64_t alerts = 0;
    for (const core::SinkRecord& r : engine.sinks().canonical()) {
      if (r.vertex == alarm) {
        ++alerts;
      }
    }
    table.add_row(
        {support::Table::num(static_cast<std::int64_t>(wait)),
         support::Table::num(assembler.late_events()),
         support::Table::num(100.0 *
                                 static_cast<double>(
                                     assembler.late_events()) /
                                 static_cast<double>(events),
                             2),
         support::Table::num(closed),
         support::Table::num(closed == 0 ? 0.0
                                         : close_lag_sum /
                                               static_cast<double>(closed),
                             1),
         support::Table::num(alerts)});
    bench::JsonLine("watermark", "wait_sweep")
        .config("wait", static_cast<std::uint64_t>(wait))
        .config("events", events)
        .config("mean_delay", mean_delay)
        .metric("late_events", assembler.late_events())
        .metric("loss_pct",
                100.0 * static_cast<double>(assembler.late_events()) /
                    static_cast<double>(events))
        .metric("phases", closed)
        .metric("alerts", alerts)
        .emit();
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected shape: loss%% falls roughly exponentially with wait (the "
      "delay tail), at the cost of proportional detection latency.\n");
  return 0;
}

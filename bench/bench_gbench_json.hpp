// JSON-line reporter for the google-benchmark based binaries: prints the
// normal console table AND one bench_json.hpp line per measured run, so the
// micro benches feed the same merged trajectory as the table-based benches.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json.hpp"
#include "support/cli.hpp"

namespace df::bench {

class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLineReporter(std::string bench)
      : benchmark::ConsoleReporter(OO_None), bench_(std::move(bench)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      JsonLine line(bench_, run.benchmark_name());
      line.metric("ns_per_op", run.GetAdjustedRealTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        line.metric("pairs_per_sec", static_cast<double>(items->second));
      }
      const auto slots = run.counters.find("slots_per_pair");
      if (slots != run.counters.end()) {
        line.metric("slots_per_pair", static_cast<double>(slots->second));
      }
      // Rows that process a known number of events per iteration report
      // the time per event (the run's time unit is ns by default).
      const auto events = run.counters.find("events_per_op");
      if (events != run.counters.end() && events->second.value > 0) {
        line.metric("ns_per_event",
                    run.GetAdjustedRealTime() / events->second.value);
      }
      line.emit();
    }
  }

 private:
  std::string bench_;
};

/// Drop-in replacement for BENCHMARK_MAIN() that runs with the JSON-line
/// reporter. google-benchmark consumes its own --benchmark_* flags; any
/// flag left over is rejected like in every other bench binary.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const char* bench) {
  benchmark::Initialize(&argc, argv);
  support::CliFlags(argc, argv).reject_unused();
  JsonLineReporter reporter{std::string(bench)};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace df::bench

// Shared workload builders and run measurement for the bench binaries.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/executor.hpp"
#include "graph/generators.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

namespace df::bench {

/// The paper's section 4 workload: "identical computations" — a layered DAG
/// in which every vertex spins for `grain_ns` per execution and always
/// forwards, so every vertex executes every phase.
inline core::Program uniform_busywork_program(std::uint32_t layers,
                                              std::uint32_t width,
                                              std::uint64_t grain_ns,
                                              std::uint64_t seed) {
  support::Rng rng(seed);
  const graph::Dag shape = graph::layered(layers, width, 2, rng);
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    if (fan_in == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkSource>(
                              grain_ns, 1.0)));
    } else {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkModule>(
                              grain_ns, fan_in, 1.0)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

/// Busywork over an arbitrary pre-built shape.
inline core::Program busywork_over(const graph::Dag& shape,
                                   std::uint64_t grain_ns,
                                   std::uint64_t seed) {
  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    if (fan_in == 0) {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkSource>(
                              grain_ns, 1.0)));
    } else {
      ids.push_back(b.add(shape.name(v),
                          model::factory_of<model::BusyWorkModule>(
                              grain_ns, fan_in, 1.0)));
    }
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed);
}

inline double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
}

/// Cumulative steal and total jiffies of all CPUs (the first line of
/// /proc/stat: user nice system idle iowait irq softirq steal ...).
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

inline CpuJiffies read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies j;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    j.total += value;
    if (field == 7) {
      j.steal = value;
    }
  }
  return j;
}

/// One measured run: the executor's stats, whose wall_seconds is the
/// run's wall time, and, for pipeline rows, its mean phases in flight.
struct Run {
  core::ExecStats stats;
  double mean_inflight = 0.0;
};

/// One row's measurement: the median run by wall time (with an even
/// count, the mean of the middle two wall times) and the process, host and
/// executor counters summed over every measured run.
struct Measured {
  core::ExecStats stats;  // the median run's; wall_seconds = median
  double mean_inflight = 0.0;
  double min_wall_s = 0.0;
  double max_wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double vcsw = 0.0;
  double ivcsw = 0.0;
  double steal_frac = 0.0;
  double window_waits = 0.0;
  double progress_wakeups = 0.0;
  double queue_parks = 0.0;
  double lock_waits = 0.0;
  double lock_wait_ns = 0.0;
  double lock_hold_ns = 0.0;
  double scheduled_pairs = 0.0;
};

/// Runs `run_once` once as a discarded warm-up when reps > 1, then `reps`
/// measured times, reading getrusage(RUSAGE_SELF) and the host's
/// /proc/stat around the measured runs.
template <typename RunOnce>
Measured measure(std::uint64_t reps, RunOnce&& run_once) {
  if (reps > 1) {
    run_once();  // warm-up, discarded
  }
  std::vector<Run> runs;
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const CpuJiffies cpu_before = read_cpu_jiffies();
  for (std::uint64_t r = 0; r < reps; ++r) {
    runs.push_back(run_once());
  }
  const CpuJiffies cpu_after = read_cpu_jiffies();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  Measured m;
  for (const Run& run : runs) {
    m.window_waits += static_cast<double>(run.stats.window_waits);
    m.progress_wakeups += static_cast<double>(run.stats.progress_wakeups);
    m.queue_parks += static_cast<double>(run.stats.queue_parks);
    m.lock_waits += static_cast<double>(run.stats.lock_waits);
    m.lock_wait_ns += static_cast<double>(run.stats.lock_wait_ns);
    m.lock_hold_ns += static_cast<double>(run.stats.lock_hold_ns);
    m.scheduled_pairs += static_cast<double>(run.stats.scheduled_pairs);
  }
  m.user_s = seconds(after.ru_utime) - seconds(before.ru_utime);
  m.sys_s = seconds(after.ru_stime) - seconds(before.ru_stime);
  m.vcsw = static_cast<double>(after.ru_nvcsw - before.ru_nvcsw);
  m.ivcsw = static_cast<double>(after.ru_nivcsw - before.ru_nivcsw);
  const std::uint64_t jiffies = cpu_after.total - cpu_before.total;
  m.steal_frac = jiffies == 0 ? 0.0
                              : static_cast<double>(cpu_after.steal -
                                                    cpu_before.steal) /
                                    static_cast<double>(jiffies);
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.stats.wall_seconds < b.stats.wall_seconds;
  });
  const Run& median = runs[runs.size() / 2];
  m.stats = median.stats;
  m.mean_inflight = median.mean_inflight;
  if (runs.size() % 2 == 0) {
    m.stats.wall_seconds = (runs[runs.size() / 2 - 1].stats.wall_seconds +
                            median.stats.wall_seconds) /
                           2;
  }
  m.min_wall_s = runs.front().stats.wall_seconds;
  m.max_wall_s = runs.back().stats.wall_seconds;
  return m;
}

/// The columns every row carries; `reps` is the number of measured runs.
inline void add_measurement(JsonLine& row, const Measured& m,
                            std::uint64_t phases, std::uint64_t reps) {
  const core::ExecStats& stats = m.stats;
  const auto per_phase = [&](double count) {
    return count / static_cast<double>(phases * reps);
  };
  const auto per_pair = [&](double ns) {
    return m.scheduled_pairs == 0.0 ? 0.0 : ns / m.scheduled_pairs;
  };
  row.config("hw_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .metric("wall_ms", stats.wall_seconds * 1e3)
      .metric("phases_per_sec", stats.phases_per_second());
  if (reps > 1) {
    const double completed = static_cast<double>(stats.phases_completed);
    row.config("reps", reps)
        .metric("phases_per_sec_min", completed / m.max_wall_s)
        .metric("phases_per_sec_max", completed / m.min_wall_s);
  }
  row.metric("pairs_per_sec", stats.pairs_per_second())
      .metric("units", stats.units)
      .metric("scheduled_pairs_per_phase",
              static_cast<double>(stats.scheduled_pairs) /
                  static_cast<double>(phases))
      .metric("steal_frac", m.steal_frac)
      .metric("vcsw_per_phase", per_phase(m.vcsw))
      .metric("ivcsw_per_phase", per_phase(m.ivcsw))
      .metric("sys_frac", m.user_s + m.sys_s <= 0.0
                              ? 0.0
                              : m.sys_s / (m.user_s + m.sys_s))
      .metric("window_waits_per_phase", per_phase(m.window_waits))
      .metric("progress_wakeups_per_phase", per_phase(m.progress_wakeups))
      .metric("queue_parks_per_phase", per_phase(m.queue_parks))
      .metric("lock_waits_per_phase", per_phase(m.lock_waits))
      .metric("lock_wait_ns_per_pair", per_pair(m.lock_wait_ns))
      .metric("lock_hold_ns_per_pair", per_pair(m.lock_hold_ns));
}

}  // namespace df::bench

#include "trace/tracer.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <span>
#include <sstream>

#include "core/executor.hpp"

namespace df::trace {

std::vector<Step> trace_schedule(const core::Program& program,
                                 event::PhaseId phases) {
  core::ProgramInstance instance(program);
  core::Scheduler scheduler(instance.m());
  std::vector<Step> steps;
  std::vector<core::Scheduler::ReadyPair> ready;
  // Issued pairs in run order: a finish puts the last pair it readied at
  // the front and the rest at the back.
  std::deque<core::Scheduler::ReadyPair> issued;
  std::vector<event::InputBundle> bundles;
  for (event::PhaseId p = 1; p <= phases; ++p) {
    bundles.assign(instance.source_count(), {});
    scheduler.start_phase(p, std::span<event::InputBundle>(bundles), ready);
    steps.push_back(
        Step{Transition::kPhaseStarted, 0, p, scheduler.snapshot()});
    std::move(ready.begin(), ready.end(), std::back_inserter(issued));
    ready.clear();
  }
  core::ExecutionResult result;
  while (!issued.empty()) {
    core::Scheduler::ReadyPair pair = std::move(issued.front());
    issued.pop_front();
    core::execute_vertex(instance, pair.vertex, pair.phase, pair.bundle,
                         result);
    scheduler.finish_execution(
        pair.vertex, pair.phase,
        std::span<core::Scheduler::Delivery>(result.deliveries),
        std::move(pair.bundle), ready);
    steps.push_back(Step{Transition::kPairFinished, pair.vertex, pair.phase,
                         scheduler.snapshot()});
    if (!ready.empty()) {
      std::move(ready.begin(), ready.end() - 1, std::back_inserter(issued));
      issued.push_front(std::move(ready.back()));
      ready.clear();
    }
  }
  return steps;
}

std::string render_step(const Step& step, std::uint32_t n) {
  using Pair = core::Scheduler::Snapshot::Pair;
  std::ostringstream out;
  if (step.transition == Transition::kPhaseStarted) {
    out << "phase " << step.phase << " initiated\n";
  } else {
    out << "(" << step.vertex << ", " << step.phase << ") executed\n";
  }

  const auto contains = [](const std::vector<Pair>& pairs, std::uint32_t v,
                           event::PhaseId p) {
    return std::any_of(pairs.begin(), pairs.end(), [&](const Pair& pair) {
      return pair.vertex == v && pair.phase == p;
    });
  };

  for (const auto& [phase, x] : step.snapshot.x) {
    out << "  phase " << phase << " (x=" << x << "):";
    for (std::uint32_t v = 1; v <= n; ++v) {
      // Figure 3 legend: # none, <> partial, (8) full, [] full+ready.
      if (contains(step.snapshot.ready, v, phase)) {
        out << " [" << v << "]";
      } else if (contains(step.snapshot.full, v, phase)) {
        out << " (" << v << ")";
      } else if (contains(step.snapshot.partial, v, phase)) {
        out << " <" << v << ">";
      } else {
        out << "  " << v << " ";
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace df::trace

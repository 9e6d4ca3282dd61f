// Set-membership tracing (the executable form of the paper's Figure 3).
//
// trace_schedule() replays a program on one core::Scheduler, single
// threaded, and records the partial/full/ready membership after every
// transition. render_step() prints one step in the style of Figure 3: for
// each active phase, the vertices that are in no set, partial only, full
// only, or full-and-ready — the paper's circles, diamonds, octagons and
// squares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "event/phase.hpp"

namespace df::trace {

enum class Transition { kPhaseStarted, kPairFinished };

struct Step {
  Transition transition;
  std::uint32_t vertex;  // internal index of the finished pair; 0 for starts
  event::PhaseId phase;
  core::Scheduler::Snapshot snapshot;  // the sets after the transition

  friend bool operator==(const Step&, const Step&) = default;
};

/// Replays `program` for phases 1..phases with no external events and
/// returns one step per transition. Every phase starts up front; then the
/// issued pairs run one at a time with core::execute_vertex: the last pair
/// a finish readied runs next, and the others wait in FIFO order. That is
/// the order a one-worker engine follows when its environment runs ahead,
/// so the trace is deterministic and shows phases overlapping.
std::vector<Step> trace_schedule(const core::Program& program,
                                 event::PhaseId phases);

/// Renders one step as text, naming vertices 1..n (internal indices).
/// `n` is the vertex count of the traced program.
std::string render_step(const Step& step, std::uint32_t n);

}  // namespace df::trace

// Messages and per-phase input bundles.
//
// A Message is a value arriving on one input port of a vertex during one
// phase. When a vertex-phase pair (v, p) becomes *ready*, all messages it
// will ever receive for phase p are known (its predecessors have finished
// phase p), so the bundle is sealed and travels with the run-queue item; the
// module then executes outside the global lock (paper Listing 1, statement 3
// precedes statement 4).
#pragma once

#include <cstdint>
#include <vector>

#include "event/value.hpp"
#include "graph/dag.hpp"

namespace df::event {

struct Message {
  graph::Port port = 0;
  Value value;

  friend bool operator==(const Message&, const Message&) = default;
};

/// All messages for one (vertex, phase), in arrival order. A port can
/// appear twice (a module may emit twice on one output port in a phase);
/// the last message on a port is the one the module reads.
using InputBundle = std::vector<Message>;

/// An event injected from outside the system (a sensor reading): it targets
/// a source vertex's input port for the phase being started.
struct ExternalEvent {
  graph::VertexId vertex = 0;
  graph::Port port = 0;
  Value value;
};

}  // namespace df::event

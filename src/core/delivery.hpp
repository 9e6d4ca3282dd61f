// The one delivery type shared by executors and the scheduler.
//
// A Delivery is a message produced by executing a vertex-phase pair,
// addressed by the recipient's *internal* (satisfactory-numbering) index.
// Executors emit vectors of these and the scheduler consumes them verbatim:
// because both sides agree on the representation, a worker hands the
// executor's output to Scheduler::finish_execution, which moves each value
// into its recipient's bundle without a per-message repack.
#pragma once

#include <cstdint>

#include "event/value.hpp"
#include "graph/dag.hpp"

namespace df::core {

struct Delivery {
  std::uint32_t to_index = 0;  // internal index, always > the sender's
  graph::Port to_port = 0;
  event::Value value;
};

}  // namespace df::core

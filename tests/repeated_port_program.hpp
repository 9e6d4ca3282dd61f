// A program whose cross-partition traffic repeats a port within a phase,
// shared by the egress-order regression tests (test_transport.cpp,
// test_crash_restart.cpp).
//
// One source emits a decoy on output port 0, then one value on each of
// ports 0..fanout-1; port i feeds forwarder i. Forwarder 0 therefore
// receives two messages on its input port every phase and must read the
// second one: the last message on a port wins. Under source_alone_cut the
// source is block 0 and every forwarder is in block 1, so all fanout + 1
// deliveries cross one link, and two of them share (to_index, to_port).
// Past 16 deliveries std::sort leaves insertion sort and may swap equal
// keys, so an egress flush ordered by (to_index, to_port) alone can
// deliver the decoy last.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "core/program.hpp"
#include "graph/partition.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"

namespace df::testutil {

inline core::Program repeated_port_program(std::size_t fanout) {
  spec::GraphBuilder b;
  const graph::VertexId source =
      b.add_lambda("source", [fanout](model::PhaseContext& ctx) {
        const auto phase = static_cast<double>(ctx.phase());
        ctx.emit(0, event::Value(-phase));  // superseded below
        for (std::size_t i = 0; i < fanout; ++i) {
          ctx.emit(static_cast<graph::Port>(i),
                   event::Value(phase * 100.0 + static_cast<double>(i)));
        }
      });
  for (std::size_t i = 0; i < fanout; ++i) {
    const graph::VertexId forward =
        b.add("forward" + std::to_string(i),
              model::factory_of<model::ForwardModule>());
    b.connect(source, static_cast<graph::Port>(i), forward, 0);
  }
  return std::move(b).build(17);
}

/// Cut {0, 1, n}: the source (internal index 1) alone in block 0.
inline graph::Partitioning source_alone_cut(const core::Program& program) {
  graph::Partitioning cut;
  cut.bounds = {0, 1, static_cast<std::uint32_t>(program.numbering.size())};
  return cut;
}

}  // namespace df::testutil

// A program whose member costs are strongly skewed, for the unit re-cut
// (DESIGN.md, "Unit scheduling"): six cheap sources feed one cheap
// interior vertex, which feeds one heavy sink. Numbered 1..6 (sources),
// 7 (the cheap vertex) and 8 (the heavy sink), so the starting plans are
// {0, 3, 6, 8} at one worker, {0, 2, 4, 6, 8} at two and one vertex per
// unit from three workers on, while every plan the re-cut can choose
// keeps the heavy sink in a unit of its own or with the cheap vertex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"

namespace df::testutil {

inline constexpr std::uint32_t kSkewedSources = 6;
inline constexpr std::uint32_t kSkewedVertices = kSkewedSources + 2;

/// The skewed program; the sink spins for `heavy_ns` per phase.
inline core::Program skewed_program(std::uint64_t heavy_ns) {
  spec::GraphBuilder b;
  const graph::VertexId cheap = b.add(
      "cheap", model::factory_of<model::BusyWorkModule>(0, kSkewedSources));
  const graph::VertexId heavy =
      b.add("heavy", model::factory_of<model::BusyWorkModule>(heavy_ns, 1));
  for (std::uint32_t s = 0; s < kSkewedSources; ++s) {
    const graph::VertexId source = b.add(
        "source" + std::to_string(s), model::factory_of<model::BusyWorkSource>(0));
    b.connect(source, 0, cheap, static_cast<graph::Port>(s));
  }
  b.connect(cheap, heavy);
  return std::move(b).build(17);
}

}  // namespace df::testutil

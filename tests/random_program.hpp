// The randomized Δ-program corpus shared by the differential suites
// (test_serializability.cpp for the parallel engine, test_transport.cpp for
// the partitioned transport): a random DAG whose sources are a mix of
// chatty and sparse generators and whose interior vertices are a mix of
// stateful models, so sink streams exercise every Value kind the executors
// route.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "graph/generators.hpp"
#include "model/detectors.hpp"
#include "model/sources.hpp"
#include "model/stats_models.hpp"
#include "model/synthetic.hpp"
#include "spec/builder.hpp"
#include "support/rng.hpp"

namespace df::testutil {

/// A random program of `vertices` vertices drawn from `seed`.
inline core::Program random_program(std::uint64_t seed,
                                    std::uint32_t vertices) {
  support::Rng rng(seed);
  const graph::Dag shape = graph::random_dag(vertices, 0.3, rng);

  spec::GraphBuilder b;
  std::vector<graph::VertexId> ids;
  for (graph::VertexId v = 0; v < shape.vertex_count(); ++v) {
    const std::size_t fan_in = shape.in_degree(v);
    model::ModuleFactory factory;
    if (fan_in == 0) {
      switch (rng.next_below(4)) {
        case 0:
          factory = model::factory_of<model::CounterSource>();
          break;
        case 1:
          factory = model::factory_of<model::GaussianSource>(5.0, 2.0, 0.7);
          break;
        case 2:
          factory = model::factory_of<model::SparseEventSource>(
              0.15, event::Value(1.0));
          break;
        default:
          factory = model::factory_of<model::RandomWalkSource>(0.0, 1.0, 0.5);
      }
    } else {
      switch (rng.next_below(5)) {
        case 0:
          factory = model::factory_of<model::SumModule>(fan_in);
          break;
        case 1:
          factory = model::factory_of<model::MaxModule>(fan_in);
          break;
        case 2:
          factory =
              model::factory_of<model::BusyWorkModule>(std::uint64_t{0},
                                                       fan_in, 0.8);
          break;
        case 3:
          // (No SnapshotJoin here: its vector output would reach numeric
          // folds downstream in a random topology.)
          factory = model::factory_of<model::MinModule>(fan_in);
          break;
        default:
          factory = model::factory_of<model::MovingAverageModule>(
              std::size_t{4});
      }
    }
    ids.push_back(b.add(shape.name(v), std::move(factory)));
  }
  for (const graph::Edge& e : shape.edges()) {
    b.connect(ids[e.from], e.from_port, ids[e.to], e.to_port);
  }
  return std::move(b).build(seed * 7919 + 13);
}

/// The default corpus: 8-23 vertices, sized by the seed.
inline core::Program random_program(std::uint64_t seed) {
  return random_program(seed, 8 + static_cast<std::uint32_t>(seed % 16));
}

}  // namespace df::testutil

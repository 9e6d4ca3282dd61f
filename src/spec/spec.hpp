// Computation specifications (paper section 4).
//
// A specification describes a computation graph (vertices as module types
// with parameters, edges as port-to-port connections) plus simulation
// parameters (number of timesteps, root random seed, thread count) — the
// same content as the paper prototype's XML input. Example:
//
//   <computation>
//     <simulation timesteps="1000" seed="42" threads="4"/>
//     <graph>
//       <vertex id="temp"  type="temperature" base="20" amplitude="8"/>
//       <vertex id="avg"   type="moving_average" window="24"/>
//       <vertex id="alarm" type="threshold" threshold="28"/>
//       <edge from="temp" to="avg"/>
//       <edge from="avg"  to="alarm"/>
//     </graph>
//   </computation>
//
// Edge attributes from_port / to_port default to 0; to_port defaults to the
// next unused input port of the target, so linear chains need no port
// bookkeeping.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "model/registry.hpp"
#include "spec/xml.hpp"

namespace df::spec {

struct VertexSpec {
  std::string id;
  std::string type;
  std::map<std::string, std::string> params;
};

struct EdgeSpec {
  std::string from;
  graph::Port from_port = 0;
  std::string to;
  graph::Port to_port = 0;
};

struct SimulationSpec {
  std::uint64_t timesteps = 100;
  std::uint64_t seed = 0xdf5eedULL;
  std::size_t threads = 2;
  std::size_t max_inflight_phases = 64;
  /// Partition count for distributed execution (distrib::TransportEngine);
  /// 1 means single-machine. Consumed by run_spec --executor=transport.
  std::size_t machines = 1;
};

struct ComputationSpec {
  SimulationSpec simulation;
  std::vector<VertexSpec> vertices;
  std::vector<EdgeSpec> edges;

  /// Builds the executable Program, resolving module types via `registry`.
  core::Program to_program(
      const model::Registry& registry = model::Registry::builtin()) const;

  /// Serializes back to specification XML.
  std::string to_xml_text() const;
};

/// Parses specification XML text. Throws xml_error / check_error with
/// actionable messages on malformed input.
ComputationSpec parse_spec(const std::string& xml_text);

/// Reads a specification from a file path; a path that cannot be opened or
/// read (a directory, say) throws check_error naming it.
ComputationSpec load_spec_file(const std::string& path);

}  // namespace df::spec

#include "spec/spec.hpp"

#include <limits>
#include <map>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace df::spec {

namespace {

/// The unsigned attribute `key` of `node`: `fallback` when absent, and a
/// check_error naming it when present but malformed or above `max`.
std::uint64_t uint_attribute(
    const XmlNode& node, const std::string& key, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (!node.has_attribute(key)) {
    return fallback;
  }
  const auto parsed = support::parse_uint(node.attribute(key));
  DF_CHECK(parsed.has_value() && *parsed <= max, "<", node.name,
           "> attribute '", key, "' must be an unsigned integer <= ", max,
           ", got '", node.attribute(key), "'");
  return *parsed;
}

}  // namespace

ComputationSpec parse_spec(const std::string& xml_text) {
  const XmlNode root = parse_xml(xml_text);
  DF_CHECK(root.name == "computation",
           "specification root must be <computation>, got <", root.name,
           ">");

  ComputationSpec spec;
  if (const XmlNode* sim = root.child("simulation")) {
    spec.simulation.timesteps = uint_attribute(*sim, "timesteps", 100);
    spec.simulation.seed = uint_attribute(*sim, "seed", 14675309);
    spec.simulation.threads = uint_attribute(*sim, "threads", 2);
    spec.simulation.max_inflight_phases =
        uint_attribute(*sim, "max_inflight", 64);
    spec.simulation.machines = uint_attribute(*sim, "machines", 1);
    DF_CHECK(spec.simulation.machines >= 1,
             "simulation machines must be >= 1");
  }

  const XmlNode* graph_node = root.child("graph");
  DF_CHECK(graph_node != nullptr, "specification has no <graph> element");

  // Track next free input port per target so chains need no to_port.
  std::map<std::string, graph::Port> next_in_port;
  for (const XmlNode& child : graph_node->children) {
    if (child.name == "vertex") {
      VertexSpec vertex;
      vertex.id = child.attribute("id");
      vertex.type = child.attribute("type");
      for (const auto& [key, value] : child.attributes) {
        if (key != "id" && key != "type") {
          vertex.params.emplace(key, value);
        }
      }
      spec.vertices.push_back(std::move(vertex));
    } else if (child.name == "edge") {
      EdgeSpec edge;
      edge.from = child.attribute("from");
      edge.to = child.attribute("to");
      edge.from_port = static_cast<graph::Port>(
          uint_attribute(child, "from_port", 0, 0xffff));
      edge.to_port = static_cast<graph::Port>(
          uint_attribute(child, "to_port", next_in_port[edge.to], 0xffff));
      next_in_port[edge.to] =
          std::max<graph::Port>(next_in_port[edge.to],
                                static_cast<graph::Port>(edge.to_port + 1));
      spec.edges.push_back(std::move(edge));
    } else {
      DF_CHECK(false, "unexpected element <", child.name, "> in <graph>");
    }
  }
  DF_CHECK(!spec.vertices.empty(), "specification defines no vertices");
  return spec;
}

ComputationSpec load_spec_file(const std::string& path) {
  return parse_spec(support::read_file(path, "specification file"));
}

core::Program ComputationSpec::to_program(
    const model::Registry& registry) const {
  graph::Dag dag;
  for (const VertexSpec& vertex : vertices) {
    dag.add_vertex(vertex.id);
  }
  for (const EdgeSpec& edge : edges) {
    dag.add_edge(dag.vertex(edge.from), edge.from_port, dag.vertex(edge.to),
                 edge.to_port);
  }

  std::vector<model::ModuleFactory> factories;
  factories.reserve(vertices.size());
  for (const VertexSpec& vertex : vertices) {
    const graph::VertexId id = dag.vertex(vertex.id);
    factories.push_back(registry.build(vertex.type,
                                       model::Params(vertex.params),
                                       dag.in_degree(id)));
  }
  return core::make_program(std::move(dag), std::move(factories),
                            simulation.seed);
}

std::string ComputationSpec::to_xml_text() const {
  XmlNode root;
  root.name = "computation";

  XmlNode sim;
  sim.name = "simulation";
  sim.attributes["timesteps"] = std::to_string(simulation.timesteps);
  sim.attributes["seed"] = std::to_string(simulation.seed);
  sim.attributes["threads"] = std::to_string(simulation.threads);
  sim.attributes["max_inflight"] =
      std::to_string(simulation.max_inflight_phases);
  sim.attributes["machines"] = std::to_string(simulation.machines);
  root.children.push_back(std::move(sim));

  XmlNode graph_node;
  graph_node.name = "graph";
  for (const VertexSpec& vertex : vertices) {
    XmlNode node;
    node.name = "vertex";
    node.attributes["id"] = vertex.id;
    node.attributes["type"] = vertex.type;
    for (const auto& [key, value] : vertex.params) {
      node.attributes[key] = value;
    }
    graph_node.children.push_back(std::move(node));
  }
  for (const EdgeSpec& edge : edges) {
    XmlNode node;
    node.name = "edge";
    node.attributes["from"] = edge.from;
    node.attributes["to"] = edge.to;
    node.attributes["from_port"] = std::to_string(edge.from_port);
    node.attributes["to_port"] = std::to_string(edge.to_port);
    graph_node.children.push_back(std::move(node));
  }
  root.children.push_back(std::move(graph_node));
  return to_xml(root);
}

}  // namespace df::spec

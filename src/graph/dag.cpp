#include "graph/dag.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"

namespace df::graph {

VertexId Dag::add_vertex(std::string name) {
  DF_CHECK(!name.empty(), "vertex name must be non-empty");
  DF_CHECK(by_name_.find(name) == by_name_.end(), "duplicate vertex name '",
           name, "'");
  const auto id = static_cast<VertexId>(names_.size());
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return id;
}

void Dag::add_edge(VertexId from, Port from_port, VertexId to, Port to_port) {
  check_vertex(from);
  check_vertex(to);
  DF_CHECK(from != to, "self-loop on vertex '", names_[from], "'");
  for (const Edge& e : in_edges_[to]) {
    DF_CHECK(e.to_port != to_port, "input port ", to_port, " of '",
             names_[to], "' already has an incoming edge");
  }
  const Edge edge{from, from_port, to, to_port};
  edges_.push_back(edge);
  out_edges_[from].push_back(edge);
  // Keep in-edges ordered by destination port for stable input iteration.
  auto& ins = in_edges_[to];
  ins.insert(std::upper_bound(ins.begin(), ins.end(), edge,
                              [](const Edge& a, const Edge& b) {
                                return a.to_port < b.to_port;
                              }),
             edge);
}

const std::string& Dag::name(VertexId v) const {
  check_vertex(v);
  return names_[v];
}

VertexId Dag::vertex(std::string_view name) const {
  const std::optional<VertexId> id = find_vertex(name);
  DF_CHECK(id.has_value(), "unknown vertex name '", name, "'");
  return *id;
}

std::optional<VertexId> Dag::find_vertex(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::vector<Edge>& Dag::in_edges(VertexId v) const {
  check_vertex(v);
  return in_edges_[v];
}

const std::vector<Edge>& Dag::out_edges(VertexId v) const {
  check_vertex(v);
  return out_edges_[v];
}

std::vector<VertexId> Dag::sources() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (is_source(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<VertexId> Dag::sinks() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (is_sink(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::size_t Dag::in_port_count(VertexId v) const {
  const auto& ins = in_edges(v);
  return ins.empty() ? 0 : static_cast<std::size_t>(ins.back().to_port) + 1;
}

std::size_t Dag::out_port_count(VertexId v) const {
  std::size_t ports = 0;
  for (const Edge& e : out_edges(v)) {
    ports = std::max(ports, static_cast<std::size_t>(e.from_port) + 1);
  }
  return ports;
}

bool Dag::is_acyclic() const {
  // Kahn's algorithm: the graph is acyclic iff all vertices drain.
  std::vector<std::size_t> pending(vertex_count());
  std::queue<VertexId> frontier;
  for (VertexId v = 0; v < vertex_count(); ++v) {
    pending[v] = in_degree(v);
    if (pending[v] == 0) {
      frontier.push(v);
    }
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    ++visited;
    for (const Edge& e : out_edges_[v]) {
      if (--pending[e.to] == 0) {
        frontier.push(e.to);
      }
    }
  }
  return visited == vertex_count();
}

void Dag::validate() const {
  DF_CHECK(vertex_count() > 0, "graph has no vertices");
  DF_CHECK(is_acyclic(), "graph has a directed cycle");
  for (VertexId v = 0; v < vertex_count(); ++v) {
    // Input ports must be dense: a module reads ports 0..k-1.
    const auto& ins = in_edges_[v];
    for (std::size_t i = 0; i < ins.size(); ++i) {
      DF_CHECK(ins[i].to_port == i, "vertex '", names_[v],
               "' input ports are not dense (missing port ", i, ")");
    }
  }
}

void Dag::check_vertex(VertexId v) const {
  DF_CHECK(v < names_.size(), "vertex id ", v, " out of range");
}

}  // namespace df::graph

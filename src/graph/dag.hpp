// Directed acyclic computation graphs (paper section 2).
//
// Vertices are computational modules; a directed edge carries messages from
// an output port of one vertex to an input port of another. Vertices without
// incoming edges are sources; vertices without outgoing edges are sinks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace df::graph {

using VertexId = std::uint32_t;
using Port = std::uint16_t;

/// An edge from (from, from_port) to (to, to_port).
struct Edge {
  VertexId from = 0;
  Port from_port = 0;
  VertexId to = 0;
  Port to_port = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Mutable DAG under construction; acyclicity is validated on demand and by
/// the numbering pass. Vertex ids are dense, assigned in insertion order.
class Dag {
 public:
  /// Adds a vertex and returns its id. Names must be unique and non-empty.
  VertexId add_vertex(std::string name);

  /// Adds an edge. Each (to, to_port) may have at most one incoming edge —
  /// an input port has a single upstream writer; fan-in uses distinct ports.
  /// Fan-out from one output port to many consumers is allowed.
  void add_edge(VertexId from, Port from_port, VertexId to, Port to_port);

  std::size_t vertex_count() const { return names_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const std::string& name(VertexId v) const;
  /// Looks up a vertex id by name; checks that the name exists.
  VertexId vertex(std::string_view name) const;
  /// Looks up a vertex id by name; nullopt when no vertex has that name.
  std::optional<VertexId> find_vertex(std::string_view name) const;

  const std::vector<Edge>& edges() const { return edges_; }
  /// Incoming edges of v, ordered by to_port.
  const std::vector<Edge>& in_edges(VertexId v) const;
  /// Outgoing edges of v, in insertion order.
  const std::vector<Edge>& out_edges(VertexId v) const;

  std::size_t in_degree(VertexId v) const { return in_edges(v).size(); }
  std::size_t out_degree(VertexId v) const { return out_edges(v).size(); }
  bool is_source(VertexId v) const { return in_degree(v) == 0; }
  bool is_sink(VertexId v) const { return out_degree(v) == 0; }

  std::vector<VertexId> sources() const;
  std::vector<VertexId> sinks() const;

  /// Number of distinct input ports of v (== max to_port + 1, or 0).
  std::size_t in_port_count(VertexId v) const;
  /// Number of distinct output ports of v (== max from_port + 1, or 0).
  std::size_t out_port_count(VertexId v) const;

  /// True iff the graph has no directed cycle.
  bool is_acyclic() const;

  /// Throws via DF_CHECK if the graph is empty, cyclic, or malformed.
  void validate() const;

 private:
  /// Hashes std::string and std::string_view alike, so find_vertex probes
  /// by_name_ without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, VertexId, NameHash, std::equal_to<>>
      by_name_;
  std::vector<Edge> edges_;
  std::vector<std::vector<Edge>> in_edges_;
  std::vector<std::vector<Edge>> out_edges_;

  void check_vertex(VertexId v) const;
};

}  // namespace df::graph

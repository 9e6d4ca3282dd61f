#include "graph/generators.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace df::graph {

namespace {

// Names are built by appending to the prefix: GCC 12 at -O3 reports a
// false -Wrestrict inside char_traits for `"v" + std::to_string(i)`.
std::string indexed(std::string_view prefix, std::uint32_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

std::string indexed(std::string_view prefix, std::uint32_t level,
                    std::uint32_t i) {
  return indexed(indexed(prefix, level) + "_", i);
}

std::string vname(std::uint32_t i) { return indexed("v", i); }

}  // namespace

Dag paper_figure2() {
  Dag dag;
  for (std::uint32_t i = 1; i <= 7; ++i) {
    dag.add_vertex(vname(i));
  }
  const auto v = [&](std::uint32_t i) { return dag.vertex(vname(i)); };
  dag.add_edge(v(2), 0, v(4), 0);
  dag.add_edge(v(3), 0, v(5), 0);
  dag.add_edge(v(5), 0, v(6), 0);
  dag.add_edge(v(4), 0, v(7), 0);
  dag.add_edge(v(6), 0, v(7), 1);
  return dag;
}

std::vector<std::uint32_t> paper_figure2a_indices() {
  // Figure 2(a) transposes the indices of the two middle vertices: the
  // vertex numbered 4 in (b) becomes 5 in (a) and vice versa.
  return {1, 2, 3, 5, 4, 6, 7};
}

Dag paper_figure3() {
  Dag dag;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    dag.add_vertex(vname(i));
  }
  const auto v = [&](std::uint32_t i) { return dag.vertex(vname(i)); };
  dag.add_edge(v(1), 0, v(3), 0);
  dag.add_edge(v(2), 0, v(3), 1);
  dag.add_edge(v(2), 0, v(4), 0);
  dag.add_edge(v(3), 0, v(5), 0);
  dag.add_edge(v(4), 0, v(5), 1);
  dag.add_edge(v(4), 0, v(6), 0);
  return dag;
}

Dag chain(std::uint32_t length) {
  DF_CHECK(length >= 1, "chain needs at least one vertex");
  Dag dag;
  for (std::uint32_t i = 1; i <= length; ++i) {
    dag.add_vertex(vname(i));
  }
  for (std::uint32_t i = 1; i < length; ++i) {
    dag.add_edge(i - 1, 0, i, 0);
  }
  return dag;
}

Dag diamond(std::uint32_t width) {
  DF_CHECK(width >= 1, "diamond needs at least one middle vertex");
  Dag dag;
  const VertexId source = dag.add_vertex("source");
  std::vector<VertexId> middle;
  middle.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    middle.push_back(dag.add_vertex(indexed("mid", i)));
  }
  const VertexId sink = dag.add_vertex("sink");
  for (std::uint32_t i = 0; i < width; ++i) {
    dag.add_edge(source, 0, middle[i], 0);
    dag.add_edge(middle[i], 0, sink, static_cast<Port>(i));
  }
  return dag;
}

Dag layered(std::uint32_t layers, std::uint32_t width, std::uint32_t fan_in,
            support::Rng& rng) {
  DF_CHECK(layers >= 1 && width >= 1, "layered graph needs positive shape");
  Dag dag;
  std::vector<std::vector<VertexId>> layer_ids(layers);
  for (std::uint32_t l = 0; l < layers; ++l) {
    for (std::uint32_t i = 0; i < width; ++i) {
      layer_ids[l].push_back(dag.add_vertex(indexed("L", l, i)));
    }
  }
  const std::uint32_t effective_fan_in = std::min(fan_in, width);
  for (std::uint32_t l = 1; l < layers; ++l) {
    for (const VertexId v : layer_ids[l]) {
      // Choose distinct predecessors from the previous layer.
      std::vector<VertexId> candidates = layer_ids[l - 1];
      rng.shuffle(candidates);
      for (std::uint32_t k = 0; k < effective_fan_in; ++k) {
        dag.add_edge(candidates[k], 0, v, static_cast<Port>(k));
      }
    }
  }
  return dag;
}

Dag binary_in_tree(std::uint32_t depth) {
  DF_CHECK(depth >= 1, "tree depth must be positive");
  Dag dag;
  // Levels from leaves (level 0) to root; leaves are sources.
  std::vector<std::vector<VertexId>> levels(depth);
  const std::uint32_t leaf_count = 1U << (depth - 1);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    levels[0].push_back(dag.add_vertex(indexed("leaf", i)));
  }
  for (std::uint32_t l = 1; l < depth; ++l) {
    const std::uint32_t count = leaf_count >> l;
    for (std::uint32_t i = 0; i < count; ++i) {
      const VertexId v = dag.add_vertex(indexed("n", l, i));
      dag.add_edge(levels[l - 1][2 * i], 0, v, 0);
      dag.add_edge(levels[l - 1][2 * i + 1], 0, v, 1);
      levels[l].push_back(v);
    }
  }
  return dag;
}

Dag binary_out_tree(std::uint32_t depth) {
  DF_CHECK(depth >= 1, "tree depth must be positive");
  Dag dag;
  std::vector<std::vector<VertexId>> levels(depth);
  levels[0].push_back(dag.add_vertex("root"));
  for (std::uint32_t l = 1; l < depth; ++l) {
    const std::uint32_t count = 1U << l;
    for (std::uint32_t i = 0; i < count; ++i) {
      const VertexId v = dag.add_vertex(indexed("n", l, i));
      dag.add_edge(levels[l - 1][i / 2], 0, v, 0);
      levels[l].push_back(v);
    }
  }
  return dag;
}

Dag random_dag(std::uint32_t n, double edge_probability, support::Rng& rng) {
  DF_CHECK(n >= 1, "random DAG needs at least one vertex");
  DF_CHECK(edge_probability >= 0.0 && edge_probability <= 1.0,
           "edge probability out of range");
  Dag dag;
  for (std::uint32_t i = 0; i < n; ++i) {
    dag.add_vertex(vname(i + 1));
  }
  // A random permutation serves as the topological order.
  std::vector<VertexId> order(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  rng.shuffle(order);
  for (std::uint32_t j = 1; j < n; ++j) {
    Port next_port = 0;
    for (std::uint32_t i = 0; i < j; ++i) {
      if (rng.next_bernoulli(edge_probability)) {
        dag.add_edge(order[i], 0, order[j], next_port++);
      }
    }
  }
  return dag;
}

Dag figure1_style_graph(support::Rng& rng) {
  // 3 + 3 + 3 + 1 = 10 vertices, as in the paper's Figure 1 illustration.
  Dag dag = layered(3, 3, 2, rng);
  const VertexId sink = dag.add_vertex("sink");
  dag.add_edge(dag.vertex("L2_0"), 0, sink, 0);
  dag.add_edge(dag.vertex("L2_1"), 0, sink, 1);
  dag.add_edge(dag.vertex("L2_2"), 0, sink, 2);
  return dag;
}

}  // namespace df::graph

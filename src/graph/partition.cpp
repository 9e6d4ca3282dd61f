#include "graph/partition.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace df::graph {

std::size_t Partitioning::block_of(std::uint32_t v) const {
  DF_CHECK(v >= 1 && v <= bounds.back(), "index out of range");
  // bounds is sorted; find the first bound >= v.
  const auto it = std::lower_bound(bounds.begin() + 1, bounds.end(), v);
  return static_cast<std::size_t>(it - bounds.begin()) - 1;
}

namespace {

void check_blocks(std::uint32_t n, std::size_t blocks) {
  DF_CHECK(blocks >= 1, "need at least one block");
  DF_CHECK(blocks <= n, "more blocks than vertices");
}

}  // namespace

Partitioning partition_balanced(const Numbering& numbering,
                                std::size_t blocks) {
  const std::uint32_t n = numbering.size();
  check_blocks(n, blocks);
  Partitioning partitioning;
  partitioning.bounds.push_back(0);
  for (std::size_t k = 1; k <= blocks; ++k) {
    partitioning.bounds.push_back(
        static_cast<std::uint32_t>(k * n / blocks));
  }
  return partitioning;
}

std::vector<std::uint32_t> block_local_m(
    const Dag& dag, const Numbering& numbering, std::uint32_t begin,
    std::uint32_t end, std::span<const std::uint32_t> unit_bounds) {
  if (begin > end) {
    DF_CHECK(unit_bounds.size() <= 1, "units over an empty block");
    return {0};  // empty block: n = 0, m(0) = 0
  }
  DF_CHECK(begin >= 1 && end <= numbering.size(),
           "block [", begin, ", ", end, "] outside internal index range");
  const std::uint32_t b = end - begin + 1;
  // unit_of[y] = unit holding local vertex y (identity without bounds).
  std::vector<std::uint32_t> unit_of(b + 1);
  std::uint32_t units = b;
  if (unit_bounds.empty()) {
    for (std::uint32_t y = 0; y <= b; ++y) {
      unit_of[y] = y;
    }
  } else {
    DF_CHECK(unit_bounds.front() == 0 && unit_bounds.back() == b,
             "unit bounds must cover local indices 1..", b);
    units = static_cast<std::uint32_t>(unit_bounds.size() - 1);
    for (std::uint32_t u = 1; u <= units; ++u) {
      DF_CHECK(unit_bounds[u] > unit_bounds[u - 1],
               "unit bounds must be strictly increasing");
      for (std::uint32_t y = unit_bounds[u - 1] + 1; y <= unit_bounds[u];
           ++y) {
        unit_of[y] = u;
      }
    }
  }
  // Prefix-max of the unit releases (see the header for why the raw
  // releases are not monotone and the prefix max is).
  std::uint32_t running_release = 0;
  std::vector<std::uint32_t> histogram(units + 1, 0);
  std::uint32_t y = 1;
  for (std::uint32_t u = 1; u <= units; ++u) {
    std::uint32_t release = 0;
    for (; y <= b && unit_of[y] == u; ++y) {
      const VertexId v = numbering.vertex_at[begin + y - 1];
      for (const Edge& e : dag.in_edges(v)) {
        const std::uint32_t pred = numbering.index_of[e.from];
        if (pred >= begin && pred <= end) {
          const std::uint32_t pred_unit = unit_of[pred - begin + 1];
          if (pred_unit != u) {
            release = std::max(release, pred_unit);
          }
        }
      }
    }
    running_release = std::max(running_release, release);
    ++histogram[running_release];
  }
  std::vector<std::uint32_t> m(units + 1, 0);
  std::uint32_t running = 0;
  for (std::uint32_t x = 0; x <= units; ++x) {
    running += histogram[x];
    m[x] = running;
  }
  return m;
}

Partitioning partition_min_cut(const Dag& dag, const Numbering& numbering,
                               std::size_t blocks, std::uint32_t slack) {
  const std::uint32_t n = numbering.size();
  Partitioning partitioning = partition_balanced(numbering, blocks);
  if (blocks == 1) {
    return partitioning;
  }

  // Edge endpoints in internal-index space.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(dag.edge_count());
  for (const Edge& e : dag.edges()) {
    edges.emplace_back(numbering.index_of[e.from], numbering.index_of[e.to]);
  }

  // Total edge cut for a full boundary vector: edges whose endpoints fall
  // in different blocks (counted once, even if they span many boundaries).
  const auto total_cut = [&](const std::vector<std::uint32_t>& bounds) {
    std::size_t count = 0;
    for (const auto& [from, to] : edges) {
      // Blocks differ iff some boundary b satisfies from <= b < to.
      for (std::size_t k = 1; k + 1 < bounds.size(); ++k) {
        if (from <= bounds[k] && bounds[k] < to) {
          ++count;
          break;
        }
      }
    }
    return count;
  };

  // Slide each interior boundary within +/- slack to the position that
  // minimizes the *global* cut (so refinement is never worse than the
  // balanced starting point), keeping boundaries strictly increasing so no
  // block empties. One pass per boundary, left to right.
  for (std::size_t k = 1; k < partitioning.bounds.size() - 1; ++k) {
    const std::uint32_t lo = std::max<std::uint32_t>(
        partitioning.bounds[k - 1] + 1,
        partitioning.bounds[k] > slack ? partitioning.bounds[k] - slack : 1);
    const std::uint32_t hi =
        std::min<std::uint32_t>(partitioning.bounds[k + 1] - 1,
                                std::min(partitioning.bounds[k] + slack,
                                         n - 1));
    std::uint32_t best = partitioning.bounds[k];
    std::size_t best_cut = total_cut(partitioning.bounds);
    for (std::uint32_t b = lo; b <= hi; ++b) {
      partitioning.bounds[k] = b;
      const std::size_t cut = total_cut(partitioning.bounds);
      if (cut < best_cut) {
        best_cut = cut;
        best = b;
      }
    }
    partitioning.bounds[k] = best;
  }
  return partitioning;
}

void validate_partition_cut(const Partitioning& partitioning, std::uint32_t n,
                            std::size_t expected_blocks) {
  DF_CHECK(expected_blocks >= 1, "need at least one block");
  DF_CHECK(partitioning.bounds.size() == expected_blocks + 1,
           "partitioning has ", partitioning.bounds.size() - 1,
           " blocks, expected ", expected_blocks);
  DF_CHECK(partitioning.bounds.front() == 0,
           "partition bounds must start at 0, got ",
           partitioning.bounds.front());
  DF_CHECK(partitioning.bounds.back() == n,
           "partitioning covers 1..", partitioning.bounds.back(),
           " but the graph has ", n, " vertices");
  for (std::size_t k = 0; k + 1 < partitioning.bounds.size(); ++k) {
    DF_CHECK(partitioning.bounds[k] <= partitioning.bounds[k + 1],
             "partition bounds decrease at block ", k, ": ",
             partitioning.bounds[k], " > ", partitioning.bounds[k + 1]);
  }
}

PartitionMetrics evaluate_partitioning(const Dag& dag,
                                       const Numbering& numbering,
                                       const Partitioning& partitioning) {
  PartitionMetrics metrics;
  metrics.blocks = partitioning.block_count();
  metrics.min_block = numbering.size();
  for (std::size_t k = 0; k < metrics.blocks; ++k) {
    const std::uint32_t size =
        partitioning.block_end(k) - partitioning.block_begin(k) + 1;
    metrics.max_block = std::max(metrics.max_block, size);
    metrics.min_block = std::min(metrics.min_block, size);
  }
  for (const Edge& e : dag.edges()) {
    if (partitioning.block_of(numbering.index_of[e.from]) !=
        partitioning.block_of(numbering.index_of[e.to])) {
      ++metrics.edge_cut;
    }
  }
  metrics.imbalance = static_cast<double>(metrics.max_block) *
                      static_cast<double>(metrics.blocks) /
                      static_cast<double>(numbering.size());
  return metrics;
}

}  // namespace df::graph

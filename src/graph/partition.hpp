// Graph partitioning (paper section 6, future work).
//
// "We are investigating various ways of using networks of multiprocessor
// machines to improve performance and efficiency, including methods for
// partitioning the computation graph across multiple machines."
//
// Because a satisfactory numbering orders vertices so that all edges go
// from lower to higher index, cutting the index range into contiguous
// blocks yields partitions whose cross-traffic flows strictly forward —
// machine i never needs messages from machine j > i. This module provides
// two partitioners over that index space plus quality metrics; the
// partitioned transport in src/distrib (distrib::TransportEngine) runs one
// engine per block of such a cut.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.hpp"
#include "graph/numbering.hpp"

namespace df::graph {

/// A partitioning of internal indices 1..N into contiguous blocks.
/// Block k covers (bounds[k-1], bounds[k]]; bounds.front() == 0 and
/// bounds.back() == N.
struct Partitioning {
  std::vector<std::uint32_t> bounds;

  std::size_t block_count() const { return bounds.size() - 1; }
  /// Block index (0-based) owning internal index v.
  std::size_t block_of(std::uint32_t v) const;
  std::uint32_t block_begin(std::size_t k) const { return bounds[k] + 1; }
  std::uint32_t block_end(std::size_t k) const { return bounds[k + 1]; }
};

/// Splits 1..N into `blocks` contiguous ranges of near-equal vertex count.
Partitioning partition_balanced(const Numbering& numbering,
                                std::size_t blocks);

/// The m-vector of the numbering *restricted to* the block of global
/// internal indices [begin, end], in block-local indexing (local index
/// y == global index begin + y - 1; size end - begin + 2, i.e. m[0..B]).
///
/// The restriction drops every predecessor outside the block, so the local
/// release of local vertex y is r_loc(y) = max local index among in-block
/// predecessors (0 if none). Unlike the global release sequence, r_loc is
/// NOT non-decreasing (a vertex whose predecessors are all remote has
/// r_loc = 0 at any position), so m cannot be read off a histogram of
/// r_loc directly; instead the prefix maximum R_y = max(r_loc(1..y)) is
/// non-decreasing by construction and m_loc(x) = |{y : R_y <= x}| is a
/// valid satisfactory m: monotone, m_loc(x) >= x + 1 for x < B (since
/// r_loc(y) <= y - 1), and m_loc(B) = B. Promoting local vertex v when
/// v <= m_loc(x) is sound for block-scoped scheduling because all of v's
/// in-block predecessors are then finished and all of its remote
/// predecessors' messages were injected when the phase window opened (the
/// transport watermark handshake guarantees completeness at phase start).
/// An empty block (begin > end) yields {0}.
std::vector<std::uint32_t> block_local_m(const Dag& dag,
                                         const Numbering& numbering,
                                         std::uint32_t begin,
                                         std::uint32_t end);

/// Greedy cut refinement: starting from a balanced partitioning, slides
/// each boundary within +/- `slack` positions to the location that
/// minimizes the number of edges crossing it (keeping blocks non-empty).
Partitioning partition_min_cut(const Dag& dag, const Numbering& numbering,
                               std::size_t blocks, std::uint32_t slack = 8);

/// The partition-cut validator distrib::TransportEngine applies to every
/// cut it is given: DF_CHECKs that `partitioning` has exactly
/// `expected_blocks` blocks whose bounds start at 0, end at `n`, and never
/// decrease. Empty (degenerate) blocks are legal — a machine that owns no
/// vertices still participates in watermark forwarding — but coverage
/// gaps, overlaps, and out-of-range bounds are not.
void validate_partition_cut(const Partitioning& partitioning, std::uint32_t n,
                            std::size_t expected_blocks);

/// Quality metrics for a partitioning.
struct PartitionMetrics {
  std::size_t blocks = 0;
  /// Edges whose endpoints live in different blocks (network messages).
  std::size_t edge_cut = 0;
  /// Largest / smallest block size.
  std::uint32_t max_block = 0;
  std::uint32_t min_block = 0;
  /// max_block * blocks / N — 1.0 is perfectly balanced.
  double imbalance = 0.0;
};

PartitionMetrics evaluate_partitioning(const Dag& dag,
                                       const Numbering& numbering,
                                       const Partitioning& partitioning);

}  // namespace df::graph

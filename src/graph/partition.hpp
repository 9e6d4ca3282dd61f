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
#include <span>
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
/// internal indices [begin, end] and *coarsened to units*, in unit
/// indexing. Local index y == global index begin + y - 1 runs over 1..B;
/// `unit_bounds` cuts 1..B into contiguous units the way
/// Partitioning::bounds cuts 1..N: {0, b_1, ..., B}, strictly increasing,
/// unit k covering local (b_{k-1}, b_k]. Empty `unit_bounds` means one unit
/// per vertex. The result has U + 1 entries, m[0..U].
///
/// The restriction drops every predecessor outside the block, and a unit's
/// release R(u) is the highest-numbered *other* unit holding an in-block
/// predecessor of one of u's members (0 if none). Unlike the global release
/// sequence, R is NOT non-decreasing (a unit whose predecessors are all
/// remote has R = 0 at any position), so m cannot be read off a histogram
/// of R directly; instead the prefix maximum max(R(1..u)) is non-decreasing
/// by construction and m(x) = |{u : max(R(1..u)) <= x}| is a valid
/// satisfactory m: monotone, m(x) >= x + 1 for x < U (since R(u) <= u - 1:
/// predecessors are lower-numbered and units are contiguous), and m(U) = U.
/// Promoting unit u when u <= m(x) is sound for block-scoped scheduling
/// because every unit holding an in-block predecessor of a member of u has
/// then finished, predecessors inside u itself run before their successors
/// when the unit executes its members in numbering order, and all remote
/// predecessors' messages were injected when the phase window opened (the
/// transport watermark handshake guarantees completeness at phase start).
/// With one member per unit this is the vertex-level block m; over the
/// whole range [1, N] it equals numbering.m. An empty block (begin > end)
/// yields {0}.
std::vector<std::uint32_t> block_local_m(
    const Dag& dag, const Numbering& numbering, std::uint32_t begin,
    std::uint32_t end, std::span<const std::uint32_t> unit_bounds = {});

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

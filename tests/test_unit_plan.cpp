// Unit plans (DESIGN.md, "Unit scheduling"): the engine's starting plan
// and the re-cut's weighted plan (core::plan_units), and the unit m-vector
// the scheduler runs on (graph::block_local_m over unit bounds). Execution
// under unit plans is tested in test_unit_scheduling.cpp, the re-cut of a
// running engine in test_engine_stress.cpp and test_checkpoint.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/numbering.hpp"
#include "graph/partition.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace df {
namespace {

using core::plan_units;
using core::predicted_period_ns;
using Bounds = std::vector<std::uint32_t>;
using Costs = std::vector<std::uint64_t>;

Bounds identity_bounds(std::uint32_t vertices) {
  Bounds bounds{0};
  for (std::uint32_t y = 1; y <= vertices; ++y) {
    bounds.push_back(y);
  }
  return bounds;
}

/// The program sources owned by block [begin, end], as a local prefix.
std::uint32_t block_sources(const graph::Numbering& numbering,
                            std::uint32_t begin, std::uint32_t end) {
  const std::uint32_t m0 = numbering.m[0];
  return begin <= m0 ? std::min(end, m0) - begin + 1 : 0;
}

/// Unit (1-based) holding local vertex y.
std::uint32_t unit_of(const Bounds& bounds, std::uint32_t y) {
  return static_cast<std::uint32_t>(
      std::lower_bound(bounds.begin() + 1, bounds.end(), y) - bounds.begin());
}

/// The vertex-level block m from its definition: the local release of y
/// is its highest in-block predecessor, and m(x) counts the vertices whose
/// prefix-maximum release is at most x.
Bounds reference_block_m(const graph::Dag& dag,
                         const graph::Numbering& numbering,
                         std::uint32_t begin, std::uint32_t end) {
  const std::uint32_t b = end - begin + 1;
  std::vector<std::uint32_t> prefix_max(b + 1, 0);
  for (std::uint32_t y = 1; y <= b; ++y) {
    std::uint32_t release = 0;
    for (const graph::Edge& e :
         dag.in_edges(numbering.vertex_at[begin + y - 1])) {
      const std::uint32_t pred = numbering.index_of[e.from];
      if (pred >= begin && pred <= end) {
        release = std::max(release, pred - begin + 1);
      }
    }
    prefix_max[y] = std::max(prefix_max[y - 1], release);
  }
  Bounds m(b + 1, 0);
  for (std::uint32_t x = 0; x <= b; ++x) {
    m[x] = static_cast<std::uint32_t>(
        std::count_if(prefix_max.begin() + 1, prefix_max.end(),
                      [x](std::uint32_t r) { return r <= x; }));
  }
  return m;
}

/// Checks a unit m-vector against the satisfactory-m laws and, directly
/// from the DAG, that promoting unit u once units 1..x finished is sound:
/// every in-block predecessor of a member of u <= m(x) lies in a unit <= x
/// or in u itself.
void expect_sound_unit_m(const graph::Dag& dag,
                         const graph::Numbering& numbering,
                         std::uint32_t begin, std::uint32_t end,
                         const Bounds& bounds, const Bounds& m) {
  const auto units = static_cast<std::uint32_t>(bounds.size() - 1);
  ASSERT_EQ(m.size(), units + 1U);
  EXPECT_EQ(m[units], units);
  for (std::uint32_t x = 0; x < units; ++x) {
    EXPECT_LE(m[x], m[x + 1]) << "m not monotone at " << x;
    EXPECT_GE(m[x], x + 1) << "m(x) < x + 1 at " << x;
  }
  for (std::uint32_t x = 0; x <= units; ++x) {
    for (std::uint32_t u = 1; u <= m[x]; ++u) {
      for (std::uint32_t y = bounds[u - 1] + 1; y <= bounds[u]; ++y) {
        for (const graph::Edge& e :
             dag.in_edges(numbering.vertex_at[begin + y - 1])) {
          const std::uint32_t pred = numbering.index_of[e.from];
          if (pred < begin || pred > end) {
            continue;  // remote: injected at phase start
          }
          const std::uint32_t pred_unit = unit_of(bounds, pred - begin + 1);
          EXPECT_TRUE(pred_unit == u || pred_unit <= x)
              << "unit " << u << " <= m(" << x << ") but its member " << y
              << " waits on unit " << pred_unit;
        }
      }
    }
  }
}

TEST(UnitM, OneMemberPerUnitReproducesTheVertexLevelM) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    support::Rng rng(seed);
    const graph::Dag dag =
        graph::random_dag(6 + static_cast<std::uint32_t>(seed * 2), 0.25, rng);
    const graph::Numbering numbering =
        graph::compute_satisfactory_numbering(dag);
    const std::uint32_t n = numbering.size();
    EXPECT_EQ(graph::block_local_m(dag, numbering, 1, n), numbering.m)
        << "seed " << seed;
    EXPECT_EQ(graph::block_local_m(dag, numbering, 1, n, identity_bounds(n)),
              numbering.m)
        << "seed " << seed;
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint32_t begin = 1 + rng.next_below(n);
      const std::uint32_t end = begin + rng.next_below(n - begin + 1);
      const Bounds expected = reference_block_m(dag, numbering, begin, end);
      EXPECT_EQ(graph::block_local_m(dag, numbering, begin, end), expected)
          << "seed " << seed << " block [" << begin << ", " << end << "]";
      EXPECT_EQ(graph::block_local_m(dag, numbering, begin, end,
                                     identity_bounds(end - begin + 1)),
                expected)
          << "seed " << seed << " block [" << begin << ", " << end << "]";
    }
  }
}

TEST(UnitM, PlannedUnitVectorsAreSoundAndReleaseSourceUnitsAtZero) {
  std::size_t coarse_plans = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    support::Rng rng(seed + 100);
    const graph::Dag dag = graph::random_dag(
        20 + static_cast<std::uint32_t>(seed * 3), 0.2, rng);
    const graph::Numbering numbering =
        graph::compute_satisfactory_numbering(dag);
    const std::uint32_t n = numbering.size();
    for (int trial = 0; trial < 4; ++trial) {
      // The whole program first, then random transport blocks.
      const std::uint32_t begin = trial == 0 ? 1 : 1 + rng.next_below(n);
      const std::uint32_t end =
          trial == 0 ? n : begin + rng.next_below(n - begin + 1);
      const std::uint32_t sources = block_sources(numbering, begin, end);
      for (std::size_t threads = 1; threads <= 4; ++threads) {
        const Bounds bounds = plan_units(end - begin + 1, sources, threads, 64);
        coarse_plans += bounds.size() - 1 < end - begin + 1 ? 1 : 0;
        const Bounds m =
            graph::block_local_m(dag, numbering, begin, end, bounds);
        expect_sound_unit_m(dag, numbering, begin, end, bounds, m);
        // Signal-source units are exactly those ending at or before S, and
        // each must enter the full set at phase start.
        for (std::uint32_t u = 1; u < bounds.size() && bounds[u] <= sources;
             ++u) {
          EXPECT_LE(u, m[0]) << "source unit " << u << " not released at 0";
        }
      }
    }
  }
  EXPECT_GT(coarse_plans, 100U) << "the sweep mostly tested identity plans";
}

TEST(UnitM, ArbitraryCutsAreSound) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    support::Rng rng(seed + 500);
    const graph::Dag dag = graph::random_dag(30, 0.15, rng);
    const graph::Numbering numbering =
        graph::compute_satisfactory_numbering(dag);
    const std::uint32_t n = numbering.size();
    Bounds bounds{0};
    while (bounds.back() < n) {
      const auto step = static_cast<std::uint32_t>(1 + rng.next_below(7));
      bounds.push_back(std::min<std::uint32_t>(n, bounds.back() + step));
    }
    const Bounds m = graph::block_local_m(dag, numbering, 1, n, bounds);
    expect_sound_unit_m(dag, numbering, 1, n, bounds, m);
  }
}

TEST(UnitM, RejectsMalformedBoundsAndHandlesTheEmptyBlock) {
  const graph::Dag dag = graph::chain(6);
  const graph::Numbering numbering = graph::compute_satisfactory_numbering(dag);
  EXPECT_THROW(graph::block_local_m(dag, numbering, 1, 6, Bounds{0, 3, 5}),
               support::check_error);
  EXPECT_THROW(graph::block_local_m(dag, numbering, 1, 6, Bounds{0, 3, 3, 6}),
               support::check_error);
  EXPECT_THROW(graph::block_local_m(dag, numbering, 1, 6, Bounds{1, 6}),
               support::check_error);
  // A chain cut in two: the second unit waits on the first.
  EXPECT_EQ(graph::block_local_m(dag, numbering, 1, 6, Bounds{0, 3, 6}),
            (Bounds{1, 2, 2}));
  EXPECT_EQ(graph::block_local_m(dag, numbering, 4, 3), (Bounds{0}));
  EXPECT_EQ(graph::block_local_m(dag, numbering, 4, 3, Bounds{0}),
            (Bounds{0}));
}

TEST(UnitPlan, TwoUnitsPerWorkerSourcesSplitApart) {
  // engine-dense's shape: 64 vertices, 8 sources, 3 workers -> U = 6. The
  // sources get round(6 * 8 / 64) = 1 unit, the rest the other 5.
  EXPECT_EQ(plan_units(64, 8, 3, 64), (Bounds{0, 8, 19, 30, 41, 52, 64}));
  // No sources (a downstream transport block): all U units on the rest.
  EXPECT_EQ(plan_units(16, 0, 2, 64), (Bounds{0, 4, 8, 12, 16}));
  // Only sources: all U units on them.
  EXPECT_EQ(plan_units(16, 16, 2, 64), (Bounds{0, 4, 8, 12, 16}));
  // One source still gets its own unit; the rest keep U - 1.
  EXPECT_EQ(plan_units(20, 1, 2, 64), (Bounds{0, 1, 7, 13, 20}));
  // A source share that rounds to all U units still leaves the rest one.
  EXPECT_EQ(plan_units(16, 15, 2, 64), (Bounds{0, 3, 7, 11, 15, 16}));
  // Two sources' share of 8 units over 40 vertices rounds down to one
  // unit; the rest get the other 7.
  EXPECT_EQ(plan_units(40, 2, 4, 0), (Bounds{0, 2, 7, 12, 18, 23, 29, 34, 40}));
}

TEST(UnitPlan, UnitsAreContiguousCountBalancedAndSplitAtTheSources) {
  for (std::uint32_t vertices = 0; vertices <= 80; ++vertices) {
    for (std::uint32_t sources = 0; sources <= vertices; sources += 3) {
      for (std::size_t threads = 1; threads <= 4; ++threads) {
        const Bounds bounds = plan_units(vertices, sources, threads, 0);
        ASSERT_EQ(bounds.front(), 0U);
        ASSERT_EQ(bounds.back(), vertices);
        bool split_at_sources = sources == 0 || sources == vertices;
        // Unit sizes per side of the split: count-balanced means they
        // differ by at most one.
        std::uint32_t lo[2] = {vertices + 1, vertices + 1};
        std::uint32_t hi[2] = {0, 0};
        for (std::size_t u = 1; u < bounds.size(); ++u) {
          ASSERT_LT(bounds[u - 1], bounds[u]);
          split_at_sources |= bounds[u] == sources;
          const int side = bounds[u] <= sources ? 0 : 1;
          lo[side] = std::min(lo[side], bounds[u] - bounds[u - 1]);
          hi[side] = std::max(hi[side], bounds[u] - bounds[u - 1]);
        }
        EXPECT_TRUE(split_at_sources)
            << vertices << " vertices, " << sources << " sources";
        for (int side = 0; side < 2; ++side) {
          EXPECT_LE(hi[side], lo[side] + 1)
              << vertices << " vertices, " << sources << " sources, "
              << threads << " threads";
        }
        if (bounds.size() - 1 < vertices) {
          EXPECT_LE(bounds.size() - 1, 2 * threads + 1);
        }
      }
    }
  }
}

TEST(UnitPlan, IdentityBelowTwoMembersPerUnit) {
  // B < 2U = 4T: fewer than two members per unit on average.
  EXPECT_EQ(plan_units(15, 2, 4, 64), identity_bounds(15));
  EXPECT_EQ(plan_units(16, 2, 4, 64).size(), 1U + 8U);
  EXPECT_EQ(plan_units(3, 1, 1, 64), identity_bounds(3));
  EXPECT_EQ(plan_units(4, 1, 1, 64), (Bounds{0, 1, 4}));
}

TEST(UnitPlan, IdentityWhenTheWindowIsNarrowerThanTheUnits) {
  // 0 < W < 2T: units pipeline across phases, so a window narrower than
  // the unit count cannot keep the workers busy.
  for (std::size_t window = 1; window < 6; ++window) {
    EXPECT_EQ(plan_units(64, 8, 3, window), identity_bounds(64))
        << "window " << window;
  }
  EXPECT_EQ(plan_units(64, 8, 3, 6).size(), 1U + 6U);
  EXPECT_EQ(plan_units(64, 8, 3, 0).size(), 1U + 6U);  // unbounded
}

TEST(UnitPlan, EmptyBlockAndBadInput) {
  EXPECT_EQ(plan_units(0, 0, 4, 64), (Bounds{0}));
  EXPECT_EQ(plan_units(0, 0, 1, 0), (Bounds{0}));
  EXPECT_THROW(plan_units(4, 5, 1, 64), support::check_error);
}

// --- the re-cut's weighted plan ----------------------------------------------

/// The fewest units a plan of `vertices` with `sources` signal sources can
/// have: one per nonempty side of the split.
std::size_t fewest_units(std::uint32_t vertices, std::uint32_t sources) {
  return (sources > 0 ? 1 : 0) + (vertices > sources ? 1 : 0);
}

/// Checks the laws every weighted plan obeys: it runs from 0 to
/// `vertices` in contiguous units of at most 2^16 members, splits at the
/// sources, and has U units with threads <= U <= vertices, and U no more
/// than a positive window.
void expect_weighted_plan_laws(const Bounds& bounds, std::uint32_t vertices,
                               std::uint32_t sources, std::size_t threads,
                               std::size_t window) {
  ASSERT_GE(bounds.size(), 2U);
  EXPECT_EQ(bounds.front(), 0U);
  EXPECT_EQ(bounds.back(), vertices);
  bool split_at_sources = sources == 0;
  for (std::size_t u = 1; u < bounds.size(); ++u) {
    EXPECT_LT(bounds[u - 1], bounds[u]) << "unit " << u << " is empty";
    EXPECT_LE(bounds[u] - bounds[u - 1], 65536U) << "unit " << u;
    split_at_sources |= bounds[u] == sources;
  }
  EXPECT_TRUE(split_at_sources);
  const std::size_t units = bounds.size() - 1;
  EXPECT_GE(units, threads);
  EXPECT_LE(units, vertices);
  if (window > 0) {
    EXPECT_LE(units, window);
  }
}

/// Calls `visit` with every plan the re-cut chooses from: each contiguous
/// cut of 1..vertices split at the sources into U units, threads <= U <=
/// min(vertices, window), or <= vertices when the window is 0.
template <typename Visit>
void for_each_admissible_plan(std::uint32_t vertices, std::uint32_t sources,
                              std::size_t threads, std::size_t window,
                              Visit&& visit) {
  const std::size_t most =
      window == 0 ? vertices : std::min<std::size_t>(vertices, window);
  // Bit i - 1 of `cuts` set: a unit ends at vertex i (1 <= i < vertices).
  for (std::uint32_t cuts = 0; cuts < (1U << (vertices - 1)); ++cuts) {
    if (sources > 0 && sources < vertices &&
        ((cuts >> (sources - 1)) & 1U) == 0) {
      continue;
    }
    Bounds bounds{0};
    for (std::uint32_t i = 1; i < vertices; ++i) {
      if ((cuts >> (i - 1)) & 1U) {
        bounds.push_back(i);
      }
    }
    bounds.push_back(vertices);
    const std::size_t units = bounds.size() - 1;
    if (units >= threads && units <= most) {
      visit(bounds);
    }
  }
}

TEST(WeightedPlan, IsolatesAHeavyVertex) {
  // Two 10 ns sources, then three 1 ns vertices and a 100 ns one; 2
  // workers, 5 ns per pair. Two units read max(108, 66.5); three with the
  // heavy vertex alone read max(105, 69); four cannot beat 105 and tie.
  const Costs costs{10, 10, 1, 1, 1, 100};
  EXPECT_EQ(plan_units(costs, 2, 5, 2, 64), (Bounds{0, 2, 5, 6}));
  EXPECT_EQ(predicted_period_ns(costs, Bounds{0, 2, 5, 6}, 5, 2), 105.0);
  EXPECT_EQ(predicted_period_ns(costs, Bounds{0, 2, 6}, 5, 2), 108.0);
  // One worker: every unit adds a pair's overhead to the serial sum, so
  // the fewest units win.
  EXPECT_EQ(plan_units(costs, 2, 5, 1, 64), (Bounds{0, 2, 6}));
}

TEST(WeightedPlan, MatchesABruteForceSearchOnSmallRandomCosts) {
  support::Rng rng(2024);
  std::size_t plans = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto vertices = static_cast<std::uint32_t>(1 + rng.next_below(10));
    const auto sources = static_cast<std::uint32_t>(
        rng.next_below(vertices + 1));
    const std::size_t threads = 1 + rng.next_below(4);
    const std::size_t window =
        rng.next_bernoulli(0.3) ? 0 : 1 + rng.next_below(vertices + 2);
    const std::uint64_t overhead = rng.next_below(3000);
    Costs costs(vertices);
    for (std::uint64_t& cost : costs) {
      cost = rng.next_bernoulli(0.2) ? 10000 + rng.next_below(30000)
                                     : rng.next_below(3000);
    }
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_units = 0;
    for_each_admissible_plan(
        vertices, sources, threads, window, [&](const Bounds& bounds) {
          const double period =
              predicted_period_ns(costs, bounds, overhead, threads);
          const std::size_t units = bounds.size() - 1;
          if (period < best || (period == best && units < best_units)) {
            best = period;
            best_units = units;
          }
        });
    const Bounds plan = plan_units(costs, sources, overhead, threads, window);
    const std::string where =
        "trial " + std::to_string(trial) + ": " + std::to_string(vertices) +
        " vertices, " + std::to_string(sources) + " sources, " +
        std::to_string(threads) + " threads, window " +
        std::to_string(window);
    if (best_units == 0) {
      EXPECT_TRUE(plan.empty()) << where;
      EXPECT_GT(std::max(threads, fewest_units(vertices, sources)),
                window == 0 ? vertices : std::min<std::size_t>(vertices, window))
          << where;
      continue;
    }
    ++plans;
    ASSERT_FALSE(plan.empty()) << where;
    expect_weighted_plan_laws(plan, vertices, sources, threads, window);
    EXPECT_LE(predicted_period_ns(costs, plan, overhead, threads), best)
        << where;
    EXPECT_EQ(plan.size() - 1, best_units)
        << where << ": not the fewest units at the least period";
  }
  EXPECT_GT(plans, 400U) << "the sweep mostly found no admissible plan";
}

TEST(WeightedPlan, LawsHoldOnLargerRandomCosts) {
  support::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const auto vertices = static_cast<std::uint32_t>(1 + rng.next_below(200));
    const auto sources = static_cast<std::uint32_t>(
        rng.next_below(vertices + 1));
    const std::size_t threads = 1 + rng.next_below(4);
    const std::size_t window =
        std::vector<std::size_t>{0, 1, 2, 3, 8, 64}[rng.next_below(6)];
    Costs costs(vertices);
    for (std::uint64_t& cost : costs) {
      cost = rng.next_below(rng.next_bernoulli(0.1) ? 100000 : 1000);
    }
    const Bounds plan =
        plan_units(costs, sources, rng.next_below(5000), threads, window);
    const std::size_t most =
        window == 0 ? vertices : std::min<std::size_t>(vertices, window);
    if (std::max(threads, fewest_units(vertices, sources)) > most) {
      EXPECT_TRUE(plan.empty()) << "trial " << trial;
    } else {
      expect_weighted_plan_laws(plan, vertices, sources, threads, window);
    }
  }
}

TEST(WeightedPlan, NoUnitExceedsTheMemberCap) {
  // Three and a bit units' worth of equal members: even one worker, for
  // which one unit per side would be cheapest, gets cap-sized units.
  const std::uint32_t vertices = 3 * 65536 + 5;
  const Costs costs(vertices, 1);
  for (const std::uint32_t sources : {0U, 65536U + 7U}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const Bounds plan = plan_units(costs, sources, 1000, threads, 0);
      expect_weighted_plan_laws(plan, vertices, sources, threads, 0);
      // Four units are the fewest the cap allows on either split, and a
      // fifth would only add its pair's overhead.
      EXPECT_EQ(plan.size() - 1, 4U)
          << sources << " sources, " << threads << " threads";
    }
  }
}

TEST(WeightedPlan, EmptyAndBadInput) {
  EXPECT_TRUE(plan_units(Costs{}, 0, 100, 2, 64).empty());
  // One unit cannot keep the sources apart from the rest.
  EXPECT_TRUE(plan_units(Costs{5, 5}, 1, 100, 1, 1).empty());
  EXPECT_EQ(plan_units(Costs{5, 5}, 1, 100, 1, 2), (Bounds{0, 1, 2}));
  EXPECT_THROW(plan_units(Costs{5, 5}, 3, 100, 1, 2), support::check_error);
  EXPECT_THROW(plan_units(Costs{5, 5}, 1, 100, 0, 2), support::check_error);
  EXPECT_THROW(predicted_period_ns(Costs{5, 5}, Bounds{0, 1}, 100, 1),
               support::check_error);
}

}  // namespace
}  // namespace df

// Unit tests for the P² streaming quantile estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "support/quantile.hpp"
#include "support/rng.hpp"

namespace df::support {
namespace {

TEST(P2Quantile, ExactForTinyStreams) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);  // median of {1,2,3}
}

TEST(P2Quantile, MedianOfUniformStream) {
  Rng rng(11);
  P2Quantile q(0.5);
  for (int i = 0; i < 100000; ++i) {
    q.add(rng.next_double(0.0, 1.0));
  }
  EXPECT_NEAR(q.value(), 0.5, 0.02);
}

TEST(P2Quantile, TailQuantileOfNormalStream) {
  Rng rng(13);
  P2Quantile q(0.95);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.next_normal(0.0, 1.0);
    q.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double exact = all[static_cast<std::size_t>(0.95 * all.size())];
  EXPECT_NEAR(q.value(), exact, 0.06);
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), check_error);
  EXPECT_THROW(P2Quantile(1.0), check_error);
}

TEST(P2Quantile, ResetClearsState) {
  P2Quantile q(0.5);
  for (int i = 0; i < 100; ++i) {
    q.add(100.0);
  }
  q.reset();
  EXPECT_EQ(q.count(), 0U);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.value(), 1.0);
}

}  // namespace
}  // namespace df::support

#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace chc::core {
namespace {

TEST(CCConfig, ResilienceBound) {
  // n >= (d+2)f + 1 (paper eq. 2).
  EXPECT_TRUE((CCConfig{.n = 4, .f = 1, .d = 1}).meets_resilience_bound());
  EXPECT_FALSE((CCConfig{.n = 3, .f = 1, .d = 1}).meets_resilience_bound());
  EXPECT_TRUE((CCConfig{.n = 5, .f = 1, .d = 2}).meets_resilience_bound());
  EXPECT_FALSE((CCConfig{.n = 4, .f = 1, .d = 2}).meets_resilience_bound());
  EXPECT_TRUE((CCConfig{.n = 9, .f = 2, .d = 2}).meets_resilience_bound());
  EXPECT_TRUE((CCConfig{.n = 11, .f = 2, .d = 3}).meets_resilience_bound());
  EXPECT_FALSE((CCConfig{.n = 10, .f = 2, .d = 3}).meets_resilience_bound());
  EXPECT_TRUE((CCConfig{.n = 100, .f = 0, .d = 7}).meets_resilience_bound());
}

TEST(CCConfig, TEndSatisfiesEq19) {
  // t_end is the smallest positive t with (1-1/n)^t * Omega_bound < eps.
  const std::vector<CCConfig> cases = {
      {.n = 7, .f = 1, .d = 2, .eps = 0.05, .input_magnitude = 1.0},
      {.n = 13, .f = 2, .d = 2, .eps = 0.01, .input_magnitude = 1.0},
      {.n = 5, .f = 1, .d = 1, .eps = 0.5, .input_magnitude = 2.0},
      {.n = 19, .f = 3, .d = 3, .eps = 1e-3, .input_magnitude = 1.0},
  };
  for (const auto& c : cases) {
    const std::size_t t = c.t_end();
    const double omega = std::sqrt(static_cast<double>(c.d)) *
                         static_cast<double>(c.n) * c.input_magnitude;
    const double shrink = 1.0 - 1.0 / static_cast<double>(c.n);
    EXPECT_LT(std::pow(shrink, static_cast<double>(t)) * omega, c.eps)
        << "n=" << c.n;
    if (t > 1) {
      EXPECT_GE(std::pow(shrink, static_cast<double>(t - 1)) * omega, c.eps)
          << "t_end not minimal for n=" << c.n;
    }
  }
}

TEST(CCConfig, TEndAtLeastOne) {
  // Even with huge eps, the algorithm runs at least one averaging round.
  const CCConfig c{.n = 4, .f = 1, .d = 1, .eps = 100.0};
  EXPECT_EQ(c.t_end(), 1u);
}

TEST(CCConfig, TEndGrowsWithPrecisionAndN) {
  CCConfig base{.n = 7, .f = 1, .d = 2, .eps = 0.1};
  CCConfig finer = base;
  finer.eps = 0.001;
  EXPECT_GT(finer.t_end(), base.t_end());
  CCConfig bigger = base;
  bigger.n = 21;
  EXPECT_GT(bigger.t_end(), base.t_end());
}

TEST(CCConfig, InvalidParamsRejected) {
  EXPECT_THROW((CCConfig{.n = 1, .f = 0, .d = 1}).t_end(), ContractViolation);
  EXPECT_THROW((CCConfig{.n = 5, .f = 1, .d = 1, .eps = 0.0}).t_end(),
               ContractViolation);
  EXPECT_THROW(
      (CCConfig{.n = 5, .f = 1, .d = 1, .eps = 0.1, .input_magnitude = 0.0})
          .t_end(),
      ContractViolation);
  // Non-finite bounds: ceil(+inf) rounds cannot be cast to a round count.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((CCConfig{.n = 5, .f = 1, .d = 1, .eps = inf}).t_end(),
               ContractViolation);
  EXPECT_THROW(
      (CCConfig{.n = 5, .f = 1, .d = 1, .eps = 0.1, .input_magnitude = inf})
          .t_end(),
      ContractViolation);
}

}  // namespace
}  // namespace chc::core

#include "core/config.hpp"

#include <cmath>

#include "common/check.hpp"

namespace chc::core {

std::size_t CCConfig::t_end() const {
  CHC_CHECK(n >= 2, "need at least two processes");
  CHC_CHECK(std::isfinite(eps) && eps > 0.0,
            "epsilon must be positive and finite");
  CHC_CHECK(std::isfinite(input_magnitude) && input_magnitude > 0.0,
            "input magnitude bound must be positive and finite");
  const double omega = std::sqrt(static_cast<double>(d)) *
                       static_cast<double>(n) * input_magnitude;
  const double shrink = 1.0 - 1.0 / static_cast<double>(n);
  // Smallest positive integer t with shrink^t * omega < eps.
  if (omega < eps) return 1;
  const double t = std::log(eps / omega) / std::log(shrink);
  auto t_int = static_cast<std::size_t>(std::ceil(t));
  if (t_int < 1) t_int = 1;
  // Guard against floating-point boundary: bump until strictly below.
  while (std::pow(shrink, static_cast<double>(t_int)) * omega >= eps) {
    ++t_int;
  }
  return t_int;
}

}  // namespace chc::core

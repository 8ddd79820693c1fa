// Strict command-line value parsing, shared by every tool.
//
// The whole value must parse: std::stoul / std::strtod alone would throw
// an uncaught exception on garbage or silently accept "5x", turning a
// typo into a crash or a misparse instead of a usage error. Reals must
// also be finite — an inf or nan reaching a protocol bound (ε, an input
// magnitude, a time scale) has no meaning.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

namespace chc::cli {

/// Decimal digits only (no sign, no blanks), without overflow.
inline bool parse_count(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9' || v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  out = v;
  return true;
}

/// A finite real spanning the whole string.
inline bool parse_real(const std::string& s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// The option-value forms for argv loops: a bad value prints what `opt`
/// needs and the tool's usage, then exits 2.
inline std::uint64_t count_arg(const std::string& opt, const std::string& val,
                               void (*usage)()) {
  std::uint64_t v = 0;
  if (!parse_count(val, v)) {
    std::cerr << opt << " needs a non-negative integer, got '" << val
              << "'\n";
    usage();
    std::exit(2);
  }
  return v;
}

inline double real_arg(const std::string& opt, const std::string& val,
                       void (*usage)()) {
  double v = 0.0;
  if (!parse_real(val, v)) {
    std::cerr << opt << " needs a finite number, got '" << val << "'\n";
    usage();
    std::exit(2);
  }
  return v;
}

}  // namespace chc::cli

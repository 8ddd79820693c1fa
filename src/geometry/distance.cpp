#include "geometry/distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace chc::geo {
namespace {

/// Solves the affine minimization min ||sum_i beta_i w_i||^2 s.t.
/// sum_i beta_i = 1 over the corral `S` (indices into w) via the KKT system
///   [2G 1; 1^T 0] [beta; mu] = [0; 1],   G = Gram matrix of the corral.
/// Returns false if the system is numerically singular (affinely dependent
/// corral — should not happen in exact arithmetic).
bool affine_minimizer(const std::vector<Vec>& w,
                      const std::vector<std::size_t>& S,
                      std::vector<double>* beta) {
  const std::size_t k = S.size();
  const std::size_t n = k + 1;
  std::vector<std::vector<double>> M(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      M[i][j] = 2.0 * w[S[i]].dot(w[S[j]]);
    }
    M[i][k] = 1.0;
    M[k][i] = 1.0;
  }
  M[k][n] = 1.0;  // rhs

  // Gaussian elimination with partial pivoting.
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t piv = c;
    for (std::size_t r = c + 1; r < n; ++r) {
      if (std::fabs(M[r][c]) > std::fabs(M[piv][c])) piv = r;
    }
    if (std::fabs(M[piv][c]) < 1e-13) return false;
    std::swap(M[c], M[piv]);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == c) continue;
      const double factor = M[r][c] / M[c][c];
      if (factor == 0.0) continue;
      for (std::size_t cc = c; cc <= n; ++cc) M[r][cc] -= factor * M[c][cc];
    }
  }
  beta->assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) (*beta)[i] = M[i][n] / M[i][i];
  return true;
}

}  // namespace

// Wolfe's min-norm-point algorithm (Wolfe 1976), the finite exact method
// behind GJK-style distance queries: translate so the query is the origin,
// then find the minimum-norm point of conv(w). A "corral" of affinely
// independent vertices is grown (major cycle) and pruned (minor cycle) until
// the affine minimizer over the corral is optimal over all vertices.
Vec nearest_point_in_hull(const std::vector<Vec>& verts, const Vec& p,
                          double tol, std::size_t max_iter) {
  CHC_CHECK(!verts.empty(), "nearest point in an empty hull");
  const std::size_t m = verts.size();
  if (m == 1) return verts[0];

  std::vector<Vec> w;
  w.reserve(m);
  for (const Vec& v : verts) w.push_back(v - p);

  double scale2 = 1.0;
  for (const Vec& v : w) scale2 = std::max(scale2, v.norm2());
  const double stop_tol = tol * scale2;
  const double zero_tol = 1e-12;

  // Start from the vertex nearest the origin.
  std::size_t start = 0;
  double best = w[0].norm2();
  for (std::size_t i = 1; i < m; ++i) {
    if (w[i].norm2() < best) {
      best = w[i].norm2();
      start = i;
    }
  }
  std::vector<std::size_t> S = {start};
  std::vector<double> alpha = {1.0};
  Vec x = w[start];

  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    // Major cycle: most-violating vertex for the optimality condition
    // x·w_j >= x·x for all j.
    std::size_t jmin = 0;
    double vmin = x.dot(w[0]);
    for (std::size_t j = 1; j < m; ++j) {
      const double v = x.dot(w[j]);
      if (v < vmin) {
        vmin = v;
        jmin = j;
      }
    }
    if (x.norm2() - vmin <= stop_tol) break;  // optimal
    if (std::find(S.begin(), S.end(), jmin) != S.end()) break;  // stalled
    S.push_back(jmin);
    alpha.push_back(0.0);

    // Minor cycle: move to the affine minimizer, pruning non-positive
    // weights along the way.
    for (std::size_t minor = 0; minor <= m + 2; ++minor) {
      std::vector<double> beta;
      if (!affine_minimizer(w, S, &beta)) {
        // Numerically dependent corral: drop the smallest-weight member.
        std::size_t drop = 0;
        for (std::size_t i = 1; i < S.size(); ++i) {
          if (alpha[i] < alpha[drop]) drop = i;
        }
        S.erase(S.begin() + static_cast<std::ptrdiff_t>(drop));
        alpha.erase(alpha.begin() + static_cast<std::ptrdiff_t>(drop));
        if (S.empty()) return x + p;
        continue;
      }
      bool interior = true;
      for (double b : beta) interior &= (b > zero_tol);
      if (interior) {
        alpha = beta;
        break;
      }
      // Step from alpha toward beta until the first weight hits zero.
      double theta = 1.0;
      for (std::size_t i = 0; i < S.size(); ++i) {
        if (beta[i] <= zero_tol) {
          const double denom = alpha[i] - beta[i];
          if (denom > 1e-300) theta = std::min(theta, alpha[i] / denom);
        }
      }
      theta = std::clamp(theta, 0.0, 1.0);
      for (std::size_t i = 0; i < S.size(); ++i) {
        alpha[i] = (1.0 - theta) * alpha[i] + theta * beta[i];
      }
      // Remove zeroed-out members (keep at least one).
      for (std::size_t i = S.size(); i-- > 0 && S.size() > 1;) {
        if (alpha[i] <= zero_tol) {
          S.erase(S.begin() + static_cast<std::ptrdiff_t>(i));
          alpha.erase(alpha.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    // Renormalize and rebuild x from the corral.
    double asum = 0.0;
    for (double a : alpha) asum += a;
    CHC_INTERNAL(asum > 0.0, "corral weights must stay positive");
    x = Vec(p.dim(), 0.0);
    for (std::size_t i = 0; i < S.size(); ++i) {
      x += w[S[i]] * (alpha[i] / asum);
    }
  }
  return x + p;
}

}  // namespace chc::geo

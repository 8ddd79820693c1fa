#include "geometry/quickhull.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common/check.hpp"

namespace chc::geo {
namespace {

/// Working facet record with adjacency and outside-point bookkeeping.
struct WorkFacet {
  std::vector<std::size_t> verts;   // point indices, |verts| == d
  Vec normal;                       // unit outward
  double offset = 0.0;
  std::vector<std::size_t> neighbors;
  std::vector<std::size_t> outside;  // points strictly above this facet
  bool alive = true;
};

double signed_dist(const WorkFacet& f, const Vec& p) {
  return f.normal.dot(p) - f.offset;
}

/// Orthonormal basis of span{vs} via pivoted modified Gram–Schmidt.
std::vector<Vec> orthonormalize(const std::vector<Vec>& vs, double tol) {
  std::vector<Vec> basis;
  for (const Vec& v : vs) {
    Vec r = v;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vec& b : basis) {
        const double c = r.dot(b);
        for (std::size_t i = 0; i < r.dim(); ++i) r[i] -= c * b[i];
      }
    }
    const double n = r.norm();
    if (n > tol) basis.push_back(r * (1.0 / n));
  }
  return basis;
}

/// Unit normal of the hyperplane through the given facet points
/// (d points spanning a (d-1)-flat). Returns a zero vector when the points
/// are degenerate.
Vec hyperplane_normal(const std::vector<Vec>& pts, double tol) {
  const std::size_t d = pts[0].dim();
  std::vector<Vec> edges;
  edges.reserve(pts.size() - 1);
  for (std::size_t i = 1; i < pts.size(); ++i) edges.push_back(pts[i] - pts[0]);
  std::vector<Vec> basis = orthonormalize(edges, tol);
  if (basis.size() != d - 1) return Vec(d, 0.0);
  // The normal is the direction orthogonal to all edges: take the canonical
  // axis with the largest residual and orthonormalize it against the basis.
  Vec best(d, 0.0);
  double best_norm = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    Vec e(d, 0.0);
    e[k] = 1.0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vec& b : basis) {
        const double c = e.dot(b);
        for (std::size_t i = 0; i < d; ++i) e[i] -= c * b[i];
      }
    }
    const double n = e.norm();
    if (n > best_norm) {
      best_norm = n;
      best = e;
    }
  }
  if (best_norm < tol) return Vec(d, 0.0);
  return best * (1.0 / best_norm);
}

/// Greedy affinely-independent subset of size d+1 (mirrors
/// AffineSubspace::from_points so tolerance behaviour matches).
std::vector<std::size_t> initial_simplex(const std::vector<Vec>& pts,
                                         double tol) {
  const std::size_t d = pts[0].dim();
  std::vector<std::size_t> chosen = {0};
  std::vector<Vec> basis;
  while (basis.size() < d) {
    double best_norm = 0.0;
    std::size_t best_idx = pts.size();
    Vec best_res;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      Vec r = pts[i] - pts[chosen[0]];
      for (int pass = 0; pass < 2; ++pass) {
        for (const Vec& b : basis) {
          const double c = r.dot(b);
          for (std::size_t k = 0; k < r.dim(); ++k) r[k] -= c * b[k];
        }
      }
      const double n = r.norm();
      if (n > best_norm) {
        best_norm = n;
        best_idx = i;
        best_res = r;
      }
    }
    if (best_norm <= tol) return {};  // not full-dimensional
    chosen.push_back(best_idx);
    basis.push_back(best_res * (1.0 / best_norm));
  }
  return chosen;
}

Hull hull_1d(const std::vector<Vec>& pts, double tol) {
  double lo = pts[0][0], hi = pts[0][0];
  for (const Vec& p : pts) {
    lo = std::min(lo, p[0]);
    hi = std::max(hi, p[0]);
  }
  CHC_CHECK(hi - lo > tol, "1-D quickhull input must span an interval");
  Hull h;
  h.vertices = {Vec{lo}, Vec{hi}};
  h.facets.push_back({{0}, Vec{-1.0}, -lo});
  h.facets.push_back({{1}, Vec{1.0}, hi});
  return h;
}

}  // namespace

Hull quickhull(const std::vector<Vec>& points, double rel_tol) {
  CHC_CHECK(!points.empty(), "hull of an empty point set");
  const std::size_t d = points[0].dim();
  CHC_CHECK(d >= 1, "points must have dimension >= 1");
  for (const Vec& p : points) {
    CHC_CHECK(p.dim() == d, "all points must share a dimension");
  }

  double scale = 1.0;
  for (const Vec& p : points) scale = std::max(scale, p.max_abs());
  const double tol = rel_tol * scale;

  // Dedupe within tolerance (multiset inputs are common in Algorithm CC).
  std::vector<Vec> pts;
  pts.reserve(points.size());
  for (const Vec& p : points) {
    bool dup = false;
    for (const Vec& q : pts) {
      if (approx_eq(p, q, tol)) {
        dup = true;
        break;
      }
    }
    if (!dup) pts.push_back(p);
  }

  if (d == 1) return hull_1d(pts, tol);

  const std::vector<std::size_t> simplex = initial_simplex(pts, tol);
  CHC_CHECK(!simplex.empty(),
            "quickhull input must affinely span its ambient space");

  Vec interior(d, 0.0);
  for (std::size_t idx : simplex) interior += pts[idx];
  interior *= 1.0 / static_cast<double>(simplex.size());

  std::vector<WorkFacet> facets;
  facets.reserve(2 * pts.size());

  auto make_facet = [&](std::vector<std::size_t> vs) -> std::size_t {
    WorkFacet f;
    f.verts = std::move(vs);
    std::vector<Vec> fp;
    fp.reserve(f.verts.size());
    for (std::size_t v : f.verts) fp.push_back(pts[v]);
    f.normal = hyperplane_normal(fp, tol);
    CHC_INTERNAL(f.normal.norm() > 0.5, "degenerate facet hyperplane");
    f.offset = f.normal.dot(fp[0]);
    if (f.normal.dot(interior) > f.offset) {  // orient away from interior
      f.normal *= -1.0;
      f.offset = -f.offset;
    }
    facets.push_back(std::move(f));
    return facets.size() - 1;
  };

  // Initial simplex facets: omit one simplex vertex each; all pairs adjacent.
  std::vector<std::size_t> initial_ids;
  for (std::size_t omit = 0; omit < simplex.size(); ++omit) {
    std::vector<std::size_t> vs;
    for (std::size_t k = 0; k < simplex.size(); ++k) {
      if (k != omit) vs.push_back(simplex[k]);
    }
    initial_ids.push_back(make_facet(std::move(vs)));
  }
  for (std::size_t a : initial_ids) {
    for (std::size_t b : initial_ids) {
      if (a != b) facets[a].neighbors.push_back(b);
    }
  }

  std::set<std::size_t> in_simplex(simplex.begin(), simplex.end());

  /// Distributes `pidxs` over the live facets in `candidates`: each point
  /// goes to the candidate it lies furthest outside of (strictly beyond
  /// tol), scanning candidates in order with a strict first-wins compare.
  auto assign_outside = [&](const std::vector<std::size_t>& pidxs,
                            const std::vector<std::size_t>& candidates) {
    if (pidxs.empty()) return;
    for (std::size_t pidx : pidxs) {
      double best = tol;
      std::size_t best_f = facets.size();
      for (std::size_t fid : candidates) {
        if (!facets[fid].alive) continue;
        const double sd = signed_dist(facets[fid], pts[pidx]);
        if (sd > best) {
          best = sd;
          best_f = fid;
        }
      }
      if (best_f != facets.size()) facets[best_f].outside.push_back(pidx);
    }
  };
  {
    std::vector<std::size_t> rest;
    rest.reserve(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (!in_simplex.count(i)) rest.push_back(i);
    }
    assign_outside(rest, initial_ids);
  }

  std::deque<std::size_t> pending;
  for (std::size_t fid : initial_ids) {
    if (!facets[fid].outside.empty()) pending.push_back(fid);
  }

  while (!pending.empty()) {
    const std::size_t fid = pending.front();
    pending.pop_front();
    if (!facets[fid].alive || facets[fid].outside.empty()) continue;

    // Apex: furthest outside point of this facet (first-wins ties).
    std::size_t apex = facets[fid].outside[0];
    double apex_d = signed_dist(facets[fid], pts[apex]);
    for (std::size_t p : facets[fid].outside) {
      const double sd = signed_dist(facets[fid], pts[p]);
      if (sd > apex_d) {
        apex_d = sd;
        apex = p;
      }
    }

    // Visible region: BFS over facets the apex sees.
    std::vector<std::size_t> visible;
    std::set<std::size_t> visited = {fid};
    std::deque<std::size_t> bfs = {fid};
    while (!bfs.empty()) {
      const std::size_t cur = bfs.front();
      bfs.pop_front();
      visible.push_back(cur);
      for (std::size_t nb : facets[cur].neighbors) {
        if (!facets[nb].alive || visited.count(nb)) continue;
        if (signed_dist(facets[nb], pts[apex]) > tol) {
          visited.insert(nb);
          bfs.push_back(nb);
        }
      }
    }
    const std::set<std::size_t> visible_set(visible.begin(), visible.end());

    // Horizon ridges: (visible facet, hidden neighbor, shared d-1 vertices).
    struct Horizon {
      std::size_t hidden;
      std::vector<std::size_t> ridge;
    };
    std::vector<Horizon> horizon;
    std::set<std::pair<std::size_t, std::size_t>> seen_pairs;
    for (std::size_t v : visible) {
      for (std::size_t nb : facets[v].neighbors) {
        if (!facets[nb].alive || visible_set.count(nb)) continue;
        if (!seen_pairs.insert({v, nb}).second) continue;
        std::vector<std::size_t> ridge;
        const std::set<std::size_t> nbv(facets[nb].verts.begin(),
                                        facets[nb].verts.end());
        for (std::size_t x : facets[v].verts) {
          if (nbv.count(x)) ridge.push_back(x);
        }
        CHC_INTERNAL(ridge.size() == d - 1, "ridge must have d-1 vertices");
        horizon.push_back({nb, std::move(ridge)});
      }
    }

    // Gather orphaned outside points, retire visible facets.
    std::vector<std::size_t> orphans;
    for (std::size_t v : visible) {
      for (std::size_t p : facets[v].outside) {
        if (p != apex) orphans.push_back(p);
      }
      facets[v].alive = false;
      facets[v].outside.clear();
    }

    // Build the new cone of facets around the apex.
    std::vector<std::size_t> fresh;
    fresh.reserve(horizon.size());
    for (const Horizon& hz : horizon) {
      std::vector<std::size_t> vs = hz.ridge;
      vs.push_back(apex);
      const std::size_t nf = make_facet(std::move(vs));
      fresh.push_back(nf);
      // Link across the horizon ridge.
      facets[nf].neighbors.push_back(hz.hidden);
      for (std::size_t& nb : facets[hz.hidden].neighbors) {
        if (visible_set.count(nb)) {
          // The hidden facet's neighbor on this ridge was visible; repoint
          // the first such entry at the new facet.
          nb = nf;
          break;
        }
      }
    }
    // Hidden facets adjacent to multiple visible facets may still hold stale
    // visible neighbors on other ridges; scrub them (the corresponding new
    // facets added themselves above via the repointing loop for one ridge
    // each, so remaining stale entries are duplicates of dead facets).
    for (const Horizon& hz : horizon) {
      auto& nbs = facets[hz.hidden].neighbors;
      nbs.erase(std::remove_if(nbs.begin(), nbs.end(),
                               [&](std::size_t x) { return !facets[x].alive; }),
                nbs.end());
    }

    // Link new facets to each other: two cone facets are adjacent iff they
    // share d-1 vertices (apex plus d-2 ridge vertices).
    std::map<std::vector<std::size_t>, std::size_t> ridge_index;
    for (std::size_t nf : fresh) {
      const auto& vs = facets[nf].verts;  // ridge verts..., apex
      for (std::size_t omit = 0; omit + 1 < vs.size(); ++omit) {
        std::vector<std::size_t> key;
        for (std::size_t k = 0; k < vs.size(); ++k) {
          if (k != omit) key.push_back(vs[k]);
        }
        std::sort(key.begin(), key.end());
        auto [it, inserted] = ridge_index.try_emplace(key, nf);
        if (!inserted) {
          facets[nf].neighbors.push_back(it->second);
          facets[it->second].neighbors.push_back(nf);
        }
      }
    }

    // Redistribute orphaned points over the new facets.
    assign_outside(orphans, fresh);
    for (std::size_t nf : fresh) {
      if (!facets[nf].outside.empty()) pending.push_back(nf);
    }
  }

  // Harvest: vertices = union of live facet vertices; remap indices.
  std::set<std::size_t> vset;
  for (const WorkFacet& f : facets) {
    if (!f.alive) continue;
    vset.insert(f.verts.begin(), f.verts.end());
  }
  Hull out;
  std::map<std::size_t, std::size_t> remap;
  for (std::size_t idx : vset) {
    remap[idx] = out.vertices.size();
    out.vertices.push_back(pts[idx]);
  }
  for (const WorkFacet& f : facets) {
    if (!f.alive) continue;
    Hull::Facet hf;
    hf.verts.reserve(f.verts.size());
    for (std::size_t v : f.verts) hf.verts.push_back(remap.at(v));
    hf.normal = f.normal;
    hf.offset = f.offset;
    out.facets.push_back(std::move(hf));
  }
  return out;
}

}  // namespace chc::geo

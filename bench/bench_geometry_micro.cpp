// E8a — Geometry kernel microbenchmarks (google-benchmark).
//
// The polytope operations dominate Algorithm CC's computation: round 0
// performs C(|X|,f) hulls plus one halfspace intersection; every later
// round performs an (n-f)-way weighted Minkowski sum and the analysis
// computes Hausdorff distances. These benches track their scaling in the
// point count and dimension.
// The engine benches (parallel subset hulls, k-way L) each have a
// `_Reference` twin running the preserved pre-engine serial kernel on the
// same inputs, so one run of this binary yields before/after speedups
// (bench/run_benches.sh extracts them into BENCH_geometry.json).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "geometry/distance.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/intern.hpp"
#include "geometry/ops.hpp"
#include "geometry/quickhull.hpp"

namespace {

using namespace chc;
using namespace chc::geo;

std::vector<Vec> cloud(std::size_t m, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> pts;
  pts.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Vec p(d);
    for (std::size_t c = 0; c < d; ++c) p[c] = rng.uniform(-1, 1);
    pts.push_back(std::move(p));
  }
  return pts;
}

void BM_Hull2d(benchmark::State& state) {
  const auto pts = cloud(static_cast<std::size_t>(state.range(0)), 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hull2d(pts));
  }
}
BENCHMARK(BM_Hull2d)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_QuickhullDim(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(128, d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quickhull(pts));
  }
}
BENCHMARK(BM_QuickhullDim)->Arg(2)->Arg(3)->Arg(4);

void BM_Minkowski2d(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto a = hull2d(cloud(m, 2, 3));
  const auto b = hull2d(cloud(m, 2, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(minkowski_sum2d(a, b));
  }
}
BENCHMARK(BM_Minkowski2d)->Arg(16)->Arg(64)->Arg(256);

std::vector<Polytope> round_polys(std::size_t k, std::size_t d,
                                  std::uint64_t seed0) {
  std::vector<Polytope> polys;
  const std::size_t m = d == 2 ? 12 : 10;
  for (std::size_t i = 0; i < k; ++i) {
    polys.push_back(Polytope::from_points(cloud(m, d, seed0 + i)));
  }
  return polys;
}

void BM_LinearCombinationL(benchmark::State& state) {
  // L over n-f polygons — one Algorithm CC round's computation (d = 2).
  // Engine path: single k-way rotating edge-vector merge.
  const auto polys = round_polys(static_cast<std::size_t>(state.range(0)),
                                 2, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal_weight_combination(polys));
  }
}
BENCHMARK(BM_LinearCombinationL)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LinearCombinationL_Reference(benchmark::State& state) {
  // Pre-engine baseline: sequential pairwise minkowski_sum2d fold.
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto polys = round_polys(k, 2, 10);
  const std::vector<double> w(k, 1.0 / static_cast<double>(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear_combination_pairwise(polys, w));
  }
}
BENCHMARK(BM_LinearCombinationL_Reference)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LinearCombinationL3d(benchmark::State& state) {
  // Engine path: balanced merge tree on the pool.
  const auto polys = round_polys(static_cast<std::size_t>(state.range(0)),
                                 3, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal_weight_combination(polys));
  }
}
BENCHMARK(BM_LinearCombinationL3d)->Arg(4)->Arg(8);

void BM_LinearCombinationL3d_Reference(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto polys = round_polys(k, 3, 20);
  const std::vector<double> w(k, 1.0 / static_cast<double>(k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear_combination_pairwise(polys, w));
  }
}
BENCHMARK(BM_LinearCombinationL3d_Reference)->Arg(4)->Arg(8);

void BM_LinearCombinationLThreads(benchmark::State& state) {
  // Thread scaling of the d = 3 merge tree: args are (k, threads).
  const auto polys = round_polys(static_cast<std::size_t>(state.range(0)),
                                 3, 20);
  common::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal_weight_combination(polys));
  }
  common::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_LinearCombinationLThreads)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4});

void BM_EqualWeightCombinationMemoized(benchmark::State& state) {
  // The steady-state round computation with interned operands: after the
  // first L the handle multiset repeats, so each iteration is a cache hit
  // (process_cc's fast path once states converge).
  const auto polys = round_polys(static_cast<std::size_t>(state.range(0)),
                                 2, 10);
  std::vector<PolytopeHandle> handles;
  for (const auto& p : polys) handles.push_back(intern(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal_weight_combination_interned(handles));
  }
  clear_intern_caches();
}
BENCHMARK(BM_EqualWeightCombinationMemoized)->Arg(8)->Arg(32);

void BM_SubsetHullIntersection(benchmark::State& state) {
  // Round 0, line 5: intersect C(m, f) subset hulls (m = n-f points, f=2).
  // Engine path: subset hulls built on the calling thread, then the
  // prechecked-clip ordered reduction.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersection_of_subset_hulls(pts, 2));
  }
}
BENCHMARK(BM_SubsetHullIntersection)->Arg(7)->Arg(10)->Arg(13)->Arg(17);

void BM_SubsetHullIntersection_Reference(benchmark::State& state) {
  // Pre-engine baseline: one canonical Polytope per subset, then a full
  // clip fold (intersect2d_clip).
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersection_of_subset_hulls_reference(pts, 2));
  }
}
BENCHMARK(BM_SubsetHullIntersection_Reference)
    ->Arg(7)->Arg(10)->Arg(13)->Arg(17);

void BM_SubsetHullIntersectionF1(benchmark::State& state) {
  // f = 1 variant (linear rather than quadratic subset count).
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersection_of_subset_hulls(pts, 1));
  }
}
BENCHMARK(BM_SubsetHullIntersectionF1)->Arg(10)->Arg(17);

void BM_SubsetHullIntersection3d(benchmark::State& state) {
  // d = 3, f = 1: pooled quickhulls + one big halfspace system.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 3, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersection_of_subset_hulls(pts, 1));
  }
}
BENCHMARK(BM_SubsetHullIntersection3d)->Arg(8)->Arg(12);

void BM_SubsetHullIntersection3d_Reference(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 3, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersection_of_subset_hulls_reference(pts, 1));
  }
}
BENCHMARK(BM_SubsetHullIntersection3d_Reference)->Arg(8)->Arg(12);

void BM_Hausdorff(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto a = Polytope::from_points(cloud(m, 2, 6));
  const auto b = Polytope::from_points(cloud(m, 2, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hausdorff(a, b));
  }
}
BENCHMARK(BM_Hausdorff)->Arg(16)->Arg(64)->Arg(256);

void BM_NearestPointWolfe3d(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(m, 3, 8);
  const Vec q{2.0, 2.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nearest_point_in_hull(pts, q));
  }
}
BENCHMARK(BM_NearestPointWolfe3d)->Arg(8)->Arg(32)->Arg(128);

void BM_HalfspaceIntersection(benchmark::State& state) {
  // Intersect k random square-ish polytopes.
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<Polytope> polys;
  Rng rng(9);
  for (std::size_t i = 0; i < k; ++i) {
    const double cx = rng.uniform(-0.2, 0.2), cy = rng.uniform(-0.2, 0.2);
    polys.push_back(Polytope::box(Vec{cx - 1, cy - 1}, Vec{cx + 1, cy + 1}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect(polys));
  }
}
BENCHMARK(BM_HalfspaceIntersection)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();

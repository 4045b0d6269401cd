#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "rng/splitmix64.hpp"

namespace cobra::graph {

namespace {

/// y = W_s x where W_s = (I + D^{-1/2} A D^{-1/2}) / 2 is the symmetrized
/// lazy walk operator (same spectrum as the lazy walk matrix).
void apply_lazy_sym(const Graph& g, const std::vector<double>& inv_sqrt_deg,
                    const std::vector<double>& x, std::vector<double>& y) {
  const std::uint32_t n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    double acc = 0.0;
    for (const Vertex u : g.neighbors(v)) {
      acc += x[u] * inv_sqrt_deg[u];
    }
    y[v] = 0.5 * x[v] + 0.5 * acc * inv_sqrt_deg[v];
  }
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

SpectralResult lazy_walk_spectrum(const Graph& g, std::uint32_t max_iterations,
                                  double tolerance) {
  const std::uint32_t n = g.num_vertices();
  if (n < 2) throw std::invalid_argument("lazy_walk_spectrum: n >= 2");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("lazy_walk_spectrum: isolated vertex");
  }

  std::vector<double> inv_sqrt_deg(n);
  std::vector<double> top(n);  // top eigenvector of W_s: D^{1/2} 1, normalized
  for (Vertex v = 0; v < n; ++v) {
    const double d = g.degree(v);
    inv_sqrt_deg[v] = 1.0 / std::sqrt(d);
    top[v] = std::sqrt(d);
  }
  const double top_norm = norm(top);
  for (double& t : top) t /= top_norm;

  // Deterministic pseudo-random start vector, deflated against `top`.
  std::vector<double> x(n);
  std::uint64_t s = 0x5eeded5eeded5eedULL;
  for (Vertex v = 0; v < n; ++v) {
    x[v] = static_cast<double>(rng::splitmix64_next(s) >> 11) * 0x1.0p-53 - 0.5;
  }
  const double proj0 = dot(x, top);
  for (Vertex v = 0; v < n; ++v) x[v] -= proj0 * top[v];
  double x_norm = norm(x);
  if (x_norm == 0.0) {
    x[0] = 1.0;
    x_norm = 1.0;
  }
  for (double& e : x) e /= x_norm;

  SpectralResult result;
  std::vector<double> y(n);
  double prev_lambda = 2.0;
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    apply_lazy_sym(g, inv_sqrt_deg, x, y);
    // Re-deflate each iteration: roundoff reintroduces the top component.
    const double proj = dot(y, top);
    for (Vertex v = 0; v < n; ++v) y[v] -= proj * top[v];
    const double y_norm = norm(y);
    if (y_norm == 0.0) {
      // x was (numerically) in the top eigenspace only: gap is maximal.
      result.lambda2 = 0.0;
      result.converged = true;
      result.iterations = it + 1;
      break;
    }
    const double lambda = dot(x, y);  // Rayleigh quotient (x normalized)
    for (Vertex v = 0; v < n; ++v) x[v] = y[v] / y_norm;
    result.iterations = it + 1;
    result.lambda2 = lambda;
    if (std::abs(lambda - prev_lambda) < tolerance) {
      result.converged = true;
      break;
    }
    prev_lambda = lambda;
  }

  result.lambda2 = std::clamp(result.lambda2, 0.0, 1.0);
  result.spectral_gap = 1.0 - result.lambda2;
  // Fiedler vector of the walk: D^{-1/2} times the symmetric eigenvector.
  result.fiedler.resize(n);
  for (Vertex v = 0; v < n; ++v) result.fiedler[v] = x[v] * inv_sqrt_deg[v];
  return result;
}

double sweep_cut_conductance(const Graph& g, const std::vector<double>& vector) {
  const std::uint32_t n = g.num_vertices();
  if (vector.size() != n || n < 2) {
    throw std::invalid_argument("sweep_cut_conductance: bad input");
  }
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](Vertex a, Vertex b) { return vector[a] < vector[b]; });

  // Incremental sweep: maintain vol(S) and |∂S| as vertices join S.
  std::vector<bool> in_set(n, false);
  std::uint64_t vol_s = 0;
  std::int64_t boundary = 0;
  double best = std::numeric_limits<double>::infinity();
  const std::uint64_t vol_total = g.volume();
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const Vertex v = order[i];
    in_set[v] = true;
    vol_s += g.degree(v);
    for (const Vertex u : g.neighbors(v)) {
      boundary += in_set[u] ? -1 : +1;  // edges to S stop being boundary
    }
    const std::uint64_t vol_min = std::min(vol_s, vol_total - vol_s);
    if (vol_min == 0) continue;
    best = std::min(best, static_cast<double>(boundary) /
                              static_cast<double>(vol_min));
  }
  return best;
}

ConductanceEstimate estimate_conductance(const Graph& g) {
  const SpectralResult spec = lazy_walk_spectrum(g);
  ConductanceEstimate est;
  // The Cheeger inequality for the *non-lazy* normalized Laplacian gap
  // lambda: lambda/2 <= Phi <= sqrt(2 lambda). The lazy gap is half the
  // non-lazy one, so lambda = 2 * spectral_gap(lazy).
  const double lambda = 2.0 * spec.spectral_gap;
  est.spectral_gap = spec.spectral_gap;
  est.cheeger_lower = lambda / 2.0;
  est.cheeger_upper = std::sqrt(2.0 * lambda);
  est.sweep_cut_upper = sweep_cut_conductance(g, spec.fiedler);
  return est;
}

}  // namespace cobra::graph

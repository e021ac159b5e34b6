#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace perfbench::oracle {

double Dtw(const Path& a, const Path& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t width = m + 1;
  // The full (n+1) x (m+1) table, row-major.
  std::vector<double> d((n + 1) * width,
                        std::numeric_limits<double>::infinity());
  d[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const double dx = a[i - 1].x - b[j - 1].x;
      const double dy = a[i - 1].y - b[j - 1].y;
      const double cost = std::sqrt(dx * dx + dy * dy);
      d[i * width + j] =
          cost + std::min({d[(i - 1) * width + j], d[i * width + j - 1],
                           d[(i - 1) * width + j - 1]});
    }
  }
  return d[n * width + m];
}

double DtwWithin(const Path& a, const Path& b, double limit) {
  const size_t m = b.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(m + 1, inf);
  std::vector<double> curr(m + 1, inf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = inf;
    double row_min = inf;
    for (size_t j = 1; j <= m; ++j) {
      const double dx = a[i - 1].x - b[j - 1].x;
      const double dy = a[i - 1].y - b[j - 1].y;
      curr[j] = std::sqrt(dx * dx + dy * dy) +
                std::min({prev[j], curr[j - 1], prev[j - 1]});
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > limit) return row_min;
    std::swap(prev, curr);
  }
  return prev[m];
}

namespace {
double PointDistance(const Point& p, const Point& q) {
  return std::sqrt((p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y));
}

// |a_1 - b_1| + |a_n - b_m| <= Dtw(a, b): every warping path starts at
// (1, 1) and ends at (n, m), which are distinct cells unless n = m = 1.
double EndpointBound(const Path& a, const Path& b) {
  const double first = PointDistance(a.front(), b.front());
  if (a.size() == 1 && b.size() == 1) return first;
  return first + PointDistance(a.back(), b.back());
}

bool Before(const Match& l, const Match& r) {
  return l.distance < r.distance ||
         (l.distance == r.distance && l.index < r.index);
}
}  // namespace

std::vector<Match> DtwTopK(const Path& query, const std::vector<Path>& base,
                           size_t k) {
  std::vector<Match> order(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    order[i] = {i, EndpointBound(query, base[i])};
  }
  std::sort(order.begin(), order.end(), Before);
  std::vector<Match> best;  // Sorted by Before; at most k entries.
  for (const Match& candidate : order) {
    const double limit = best.size() < k
                             ? std::numeric_limits<double>::infinity()
                             : best.back().distance;
    // A candidate whose bound exceeds the k-th distance cannot enter;
    // one that ties it may, if its index is smaller.
    if (candidate.distance > limit) break;
    const double d = DtwWithin(query, base[candidate.index], limit);
    const Match found{candidate.index, d};
    if (d > limit || (best.size() == k && !Before(found, best.back()))) {
      continue;
    }
    best.insert(std::upper_bound(best.begin(), best.end(), found, Before),
                found);
    if (best.size() > k) best.pop_back();
  }
  return best;
}

std::vector<size_t> TopK(const std::vector<double>& distances, size_t k) {
  std::vector<size_t> order(distances.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t l, size_t r) {
    return distances[l] < distances[r];
  });
  order.resize(std::min(k, order.size()));
  return order;
}

std::vector<Neighbor> BruteForceSqL2(
    const std::vector<std::vector<float>>& vectors, size_t count,
    const std::vector<float>& query, size_t k) {
  std::vector<Neighbor> all;
  all.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    float sum = 0.0f;
    for (size_t d = 0; d < query.size(); ++d) {
      const float delta = vectors[i][d] - query[d];
      sum += delta * delta;
    }
    all.push_back({i, sum});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& l, const Neighbor& r) {
                     return l.distance < r.distance;
                   });
  all.resize(std::min(k, all.size()));
  return all;
}

double HitRatio(const std::vector<size_t>& truth,
                const std::vector<size_t>& predicted) {
  if (truth.empty()) return 0.0;
  size_t hits = 0;
  for (size_t t : truth) {
    if (std::find(predicted.begin(), predicted.end(), t) != predicted.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace perfbench::oracle

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Reference answers the benchmark checks the library against. Written
// from the definitions alone, with no dependency on the library, and
// tested against hand-computed cases in oracle_test.cc.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench::oracle {

struct Point {
  double x = 0.0;
  double y = 0.0;
};
using Path = std::vector<Point>;

// Dynamic time warping with Euclidean point cost, by the full O(n*m)
// table: D(i,j) = |a_i - b_j| + min(D(i-1,j), D(i,j-1), D(i-1,j-1)),
// D(0,0) = 0, D(i,0) = D(0,j) = +inf. Both paths must be non-empty.
double Dtw(const Path& a, const Path& b);

// Dtw(a, b) when it is at most `limit`. Otherwise some value above
// `limit`: the table is filled row by row and abandoned once a whole row
// exceeds `limit`, since every warping path crosses every row and costs
// are non-negative.
double DtwWithin(const Path& a, const Path& b, double limit);

// One exact DTW neighbour: a position in the base and its distance.
struct Match {
  size_t index = 0;
  double distance = 0.0;
};

// The k nearest of `base` to `query` under Dtw, ordered by (distance,
// index): the same answer as TopK over the full row of Dtw distances.
// Candidates are visited in order of the endpoint lower bound
// |a_1 - b_1| + |a_n - b_m| and abandoned (DtwWithin) once they provably
// cannot enter the current top k, so most rows are never finished.
std::vector<Match> DtwTopK(const Path& query, const std::vector<Path>& base,
                           size_t k);

// The k smallest entries of `distances`, ordered by (distance, index).
std::vector<size_t> TopK(const std::vector<double>& distances, size_t k);

// One exact nearest neighbour under squared Euclidean distance.
struct Neighbor {
  uint64_t id = 0;
  float distance = 0.0f;
};

// Brute-force top-k over `vectors` (id i is vectors[i], all of one
// dimension) by squared Euclidean distance accumulated in float in
// dimension order, ordered by (distance, id). Only the first `count`
// vectors take part.
std::vector<Neighbor> BruteForceSqL2(
    const std::vector<std::vector<float>>& vectors, size_t count,
    const std::vector<float>& query, size_t k);

// Hit ratio |truth ∩ predicted| / |truth| (HR@k when both hold k ids).
double HitRatio(const std::vector<size_t>& truth,
                const std::vector<size_t>& predicted);

}  // namespace perfbench::oracle

#endif  // PERFBENCH_ORACLE_H_

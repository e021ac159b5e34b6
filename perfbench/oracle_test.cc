// Self-test of the benchmark's oracle against cases worked out by hand.
// Exits 0 when every case holds; prints each failure and exits 1
// otherwise. run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "oracle.h"

namespace {

using perfbench::oracle::Neighbor;
using perfbench::oracle::Path;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "oracle_test: FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestDtw() {
  using perfbench::oracle::Dtw;
  // One point each: the single cost |(0,0)-(3,4)| = 5.
  Expect(Near(Dtw({{0, 0}}, {{3, 4}}), 5.0), "dtw single points");
  // Identical paths align on the diagonal at zero cost.
  const Path p = {{0, 0}, {1, 0}, {2, 1}};
  Expect(Near(Dtw(p, p), 0.0), "dtw identity");
  // a = (0,0),(1,0),(2,0); b = (0,0),(2,0). Cost table |a_i - b_j|:
  //   row a1: 0 2;  row a2: 1 1;  row a3: 2 0.
  // D: row1 = 0, 2; row2 = 1, 1; row3 = 3, 1  ->  DTW = 1.
  Expect(Near(Dtw({{0, 0}, {1, 0}, {2, 0}}, {{0, 0}, {2, 0}}), 1.0),
         "dtw warps a repeated match");
  // Symmetric in its arguments.
  Expect(Near(Dtw({{0, 0}, {2, 0}}, {{0, 0}, {1, 0}, {2, 0}}), 1.0),
         "dtw symmetric");
  // a = (0,0),(0,1); b = (1,0),(1,1),(1,2). Costs:
  //   row a1: 1, sqrt2, sqrt5;  row a2: sqrt2, 1, sqrt2.
  // D: row1 = 1, 1+sqrt2, 1+sqrt2+sqrt5; row2 = 1+sqrt2, 2, 2+sqrt2.
  Expect(Near(Dtw({{0, 0}, {0, 1}}, {{1, 0}, {1, 1}, {1, 2}}),
              2.0 + std::sqrt(2.0)),
         "dtw unequal lengths");
}

void TestDtwWithin() {
  using perfbench::oracle::DtwWithin;
  const Path a = {{0, 0}, {0, 1}};
  const Path b = {{1, 0}, {1, 1}, {1, 2}};
  const double full = 2.0 + std::sqrt(2.0);
  // Within the limit: the exact value.
  Expect(Near(DtwWithin(a, b, 10.0), full), "dtw-within above the value");
  Expect(Near(DtwWithin(a, b, full), full), "dtw-within at the value");
  // Row 1 of the table is 1, 1+sqrt2, 1+sqrt2+sqrt5: its minimum 1 is
  // above a limit of 0.5, so the fill stops there and reports 1.
  Expect(Near(DtwWithin(a, b, 0.5), 1.0), "dtw-within abandons at row 1");
  // Row 2's minimum is 2, above 1.5 (row 1's minimum 1 is not).
  Expect(Near(DtwWithin(a, b, 1.5), 2.0), "dtw-within abandons at row 2");
}

void TestDtwTopK() {
  using perfbench::oracle::DtwTopK;
  using perfbench::oracle::Match;
  const Path q = {{0, 0}, {2, 0}};
  // Dtw(q, .): 0, 1 (see the warping case above), 2, 1, 7.
  const std::vector<Path> base = {{{0, 0}, {2, 0}},
                                  {{0, 0}, {1, 0}, {2, 0}},
                                  {{0, 1}, {2, 1}},
                                  {{0, 0}, {1, 0}, {2, 0}},
                                  {{3, 0}, {3, 0}, {5, 0}}};
  const std::vector<Match> top = DtwTopK(q, base, 3);
  Expect(top.size() == 3 && top[0].index == 0 && top[1].index == 1 &&
             top[2].index == 3 && Near(top[0].distance, 0.0) &&
             Near(top[1].distance, 1.0) && Near(top[2].distance, 1.0),
         "dtw top-k order, ties by index");
  const std::vector<Match> all = DtwTopK(q, base, 10);
  Expect(all.size() == 5 && all[3].index == 2 && Near(all[3].distance, 2.0) &&
             all[4].index == 4,
         "dtw top-k clamps to the base size");
}

void TestTopK() {
  using perfbench::oracle::TopK;
  const std::vector<double> d = {3.0, 1.0, 2.0, 1.0, 0.5};
  const std::vector<size_t> top3 = TopK(d, 3);
  // 0.5 at 4, then the tie 1.0 at 1 and 3 broken by index.
  Expect(top3 == std::vector<size_t>({4, 1, 3}), "top-k ties by index");
  Expect(TopK(d, 10).size() == 5, "top-k clamps to the input size");
  Expect(TopK(d, 0).empty(), "top-0 is empty");
}

void TestBruteForce() {
  using perfbench::oracle::BruteForceSqL2;
  const std::vector<std::vector<float>> v = {
      {0.0f, 0.0f}, {1.0f, 1.0f}, {2.0f, 0.0f}, {0.0f, 1.0f}, {5.0f, 5.0f}};
  // Query (0,0): squared distances 0, 2, 4, 1, 50.
  const std::vector<Neighbor> all = BruteForceSqL2(v, 5, {0.0f, 0.0f}, 3);
  Expect(all.size() == 3 && all[0].id == 0 && all[1].id == 3 &&
             all[2].id == 1 && all[1].distance == 1.0f &&
             all[2].distance == 2.0f,
         "brute force order and distances");
  // Only the first two vectors were acked: ids 0 and 1.
  const std::vector<Neighbor> prefix = BruteForceSqL2(v, 2, {2.0f, 0.0f}, 5);
  Expect(prefix.size() == 2 && prefix[0].id == 1 && prefix[1].id == 0 &&
             prefix[0].distance == 2.0f && prefix[1].distance == 4.0f,
         "brute force sees only the acked prefix");
  // Query (1,0) is at squared distance 1 from ids 0, 1 and 2: ties by id.
  const std::vector<Neighbor> ties = BruteForceSqL2(v, 5, {1.0f, 0.0f}, 3);
  Expect(ties.size() == 3 && ties[0].id == 0 && ties[1].id == 1 &&
             ties[2].id == 2,
         "brute force ties by id");
}

void TestHitRatio() {
  using perfbench::oracle::HitRatio;
  Expect(Near(HitRatio({1, 2, 3, 4}, {4, 3, 9, 8}), 0.5), "hit ratio half");
  Expect(Near(HitRatio({1, 2}, {2, 1}), 1.0), "hit ratio ignores order");
  Expect(Near(HitRatio({1, 2}, {}), 0.0), "hit ratio of nothing");
}

}  // namespace

int main() {
  TestDtw();
  TestDtwWithin();
  TestDtwTopK();
  TestTopK();
  TestBruteForce();
  TestHitRatio();
  if (failures > 0) return 1;
  std::fprintf(stderr, "oracle_test: all cases pass\n");
  return 0;
}

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the end-to-end benchmark: options, seeded inputs,
// timing, statistics, the oracle bridge and the result record that
// main.cc prints as the run's last line.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geo/trajectory.h"
#include "oracle.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Threads the load may use: the CPUs this process may run on.
  int threads = 1;
  // Scratch directory for index files; removed by the caller.
  std::string workdir;
};

// Metric names with their units, in report order.
using MetricSchema = std::vector<std::pair<std::string, std::string>>;

// The run record: correctness, operation counts and named metrics.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // The run's last output line. Metrics are printed in `schema` order;
  // one the workload did not add reads 0 when `zero_fill` is set and
  // fails the run otherwise, as does a metric outside the schema.
  std::string ToJson(const MetricSchema& schema, bool zero_fill);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Seconds on a monotonic clock.
double Now();

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// One group of Porto-like synthetic trajectories (data::GenerateSynthetic)
// of min_len..max_len points.
struct TrajectoryGroup {
  int size = 0;
  int min_len = 0;
  int max_len = 0;
};

// Generates each group from its own seed derived from `seed`, then
// normalizes all of them together into the unit square.
std::vector<std::vector<tmn::geo::Trajectory>> MakeTrajectories(
    uint64_t seed, const std::vector<TrajectoryGroup>& groups);

// The search corpus shared by search_ann, search_exact and the traced
// ingest round: [0] 4096 trajectories of 16..128 points, [1] a held-out
// pool of 512 queries of 72 points (the corpus mean), so that every query
// costs the same and a run's figures do not hinge on which queries Zipf
// favours.
std::vector<std::vector<tmn::geo::Trajectory>> SearchCorpus(uint64_t seed);

// `count` draws from [0, n) with Zipf(1) popularity over a seeded
// permutation of the ids, so popular ids differ from seed to seed.
std::vector<size_t> ZipfDraws(uint64_t seed, size_t n, size_t count);

oracle::Path ToPath(const tmn::geo::Trajectory& t);

// The oracle's exact DTW top-k of every query over `base`, computed on
// `threads` plain threads (never while a measurement runs).
std::vector<std::vector<oracle::Match>> OracleTopK(
    const std::vector<tmn::geo::Trajectory>& queries,
    const std::vector<tmn::geo::Trajectory>& base, size_t k, int threads);

// Ids of an oracle top-k, in order.
std::vector<size_t> Ids(const std::vector<oracle::Match>& top);

// Values the library recorded in obs::Registry::Global(); 0 when the
// metric was never registered. HistogramMean is sum / count of a
// histogram or timer.
double HistogramMean(const std::string& name);
double HistogramSum(const std::string& name);
double CounterValue(const std::string& name);
double GaugeValue(const std::string& name);

// |a - b| <= 1e-9 * max(|a|, |b|).
bool RelEqual(double a, double b);

// The workloads. Each fills `result` with the end-to-end metrics, or with
// the per-layer metrics when options.trace is set.
void RunSearchAnn(const Options& options, Result& result);
void RunSearchExact(const Options& options, Result& result);
void RunTrain(const Options& options, Result& result);

// The segmented-index layer's per-layer metrics: one ingest round over
// the sketches of the search corpus, in options.workdir.
void TraceSegmented(const Options& options, Result& result);

// Every end-to-end metric (name, unit), in report order. Each workload
// reports every one of them.
const MetricSchema& EndToEndMetrics();

// Every per-layer metric, in report order. A traced run reports each one;
// a layer the workload does no work in reads 0.
const MetricSchema& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

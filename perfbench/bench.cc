#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <thread>

#include "data/synthetic.h"
#include "geo/preprocess.h"
#include "obs/metrics.h"

namespace perfbench {

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct = false;
}

std::string Result::ToJson(const MetricSchema& schema, bool zero_fill) {
  for (const auto& [name, value] : metrics_) {
    const bool known =
        std::any_of(schema.begin(), schema.end(),
                    [&](const auto& entry) { return entry.first == name; });
    if (!known) Fail("metric outside the schema: " + name);
  }
  std::string body;
  for (const auto& [name, unit] : schema) {
    double value = 0.0;
    const auto it = metrics_.find(name);
    if (it != metrics_.end()) {
      value = it->second.first;
      if (it->second.second != unit) Fail("unit mismatch for " + name);
    } else if (!zero_fill) {
      Fail("workload did not report " + name);
    }
    if (!std::isfinite(value)) Fail("non-finite " + name);
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " + text + ", \"unit\": \"" +
            unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body + "}}";
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<std::vector<tmn::geo::Trajectory>> MakeTrajectories(
    uint64_t seed, const std::vector<TrajectoryGroup>& groups) {
  std::vector<tmn::geo::Trajectory> all;
  for (size_t g = 0; g < groups.size(); ++g) {
    tmn::data::SyntheticConfig config;
    config.kind = tmn::data::SyntheticKind::kPortoLike;
    config.num_trajectories = groups[g].size;
    config.min_length = groups[g].min_len;
    config.max_length = groups[g].max_len;
    config.seed = seed * 1000003 + g;
    for (tmn::geo::Trajectory& t : tmn::data::GenerateSynthetic(config)) {
      all.push_back(std::move(t));
    }
  }
  all = tmn::geo::NormalizeTrajectories(all, tmn::geo::ComputeNormalization(all));
  std::vector<std::vector<tmn::geo::Trajectory>> out;
  size_t next = 0;
  for (const TrajectoryGroup& group : groups) {
    out.emplace_back(all.begin() + next, all.begin() + next + group.size);
    next += group.size;
  }
  return out;
}

std::vector<std::vector<tmn::geo::Trajectory>> SearchCorpus(uint64_t seed) {
  return MakeTrajectories(seed, {{4096, 16, 128}, {512, 72, 72}});
}

namespace {
// splitmix64: a small, fully specified generator, so the inputs depend on
// the seed alone and not on a standard library's distributions.
uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Runs fn(i) for i in [0, n) on `threads` plain threads.
void ParallelOracle(size_t n, int threads,
                    const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}
}  // namespace

std::vector<size_t> ZipfDraws(uint64_t seed, size_t n, size_t count) {
  uint64_t state = seed;
  std::vector<size_t> ids(n);
  std::iota(ids.begin(), ids.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[SplitMix(state) % i]);
  }
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<size_t> draws(count);
  for (size_t i = 0; i < count; ++i) {
    const double u =
        static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53 * total;
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    draws[i] = ids[std::min(rank, n - 1)];
  }
  return draws;
}

oracle::Path ToPath(const tmn::geo::Trajectory& t) {
  oracle::Path path;
  path.reserve(t.size());
  for (const tmn::geo::Point& p : t.points()) path.push_back({p.lon, p.lat});
  return path;
}

std::vector<std::vector<oracle::Match>> OracleTopK(
    const std::vector<tmn::geo::Trajectory>& queries,
    const std::vector<tmn::geo::Trajectory>& base, size_t k, int threads) {
  std::vector<oracle::Path> base_paths;
  base_paths.reserve(base.size());
  for (const tmn::geo::Trajectory& t : base) base_paths.push_back(ToPath(t));
  std::vector<std::vector<oracle::Match>> top(queries.size());
  ParallelOracle(queries.size(), threads, [&](size_t q) {
    top[q] = oracle::DtwTopK(ToPath(queries[q]), base_paths, k);
  });
  return top;
}

std::vector<size_t> Ids(const std::vector<oracle::Match>& top) {
  std::vector<size_t> ids;
  for (const oracle::Match& m : top) ids.push_back(m.index);
  return ids;
}

namespace {
const tmn::obs::Metric* FindMetric(const std::string& name) {
  for (const tmn::obs::Metric* m :
       tmn::obs::Registry::Global().SortedMetrics()) {
    if (m->name() == name) return m;
  }
  return nullptr;
}
}  // namespace

double HistogramMean(const std::string& name) {
  const auto* h = dynamic_cast<const tmn::obs::Histogram*>(FindMetric(name));
  if (h == nullptr || h->count() == 0) return 0.0;
  return h->sum() / static_cast<double>(h->count());
}

double HistogramSum(const std::string& name) {
  const auto* h = dynamic_cast<const tmn::obs::Histogram*>(FindMetric(name));
  return h == nullptr ? 0.0 : h->sum();
}

double CounterValue(const std::string& name) {
  const auto* c = dynamic_cast<const tmn::obs::Counter*>(FindMetric(name));
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double GaugeValue(const std::string& name) {
  const auto* g = dynamic_cast<const tmn::obs::Gauge*>(FindMetric(name));
  return g == nullptr ? 0.0 : g->value();
}

bool RelEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

const MetricSchema& EndToEndMetrics() {
  static const MetricSchema metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"queries_per_s", "1/s"},
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"recall_at_10", "ratio"},
  };
  return metrics;
}

const MetricSchema& PerLayerMetrics() {
  static const MetricSchema metrics = {
      {"serve.self_us_per_query", "us"},
      {"serve.batch.occupancy_mean", "count"},
      {"serve.batch.formation_ms_mean", "ms"},
      {"serve.tier3.scan_ratio", "ratio"},
      {"common.pool.task_wait_ms_mean", "ms"},
      {"eval.encode_us_per_query", "us"},
      {"eval.batch_encode_us_per_query", "us"},
      {"eval.encode_database_s", "s"},
      {"eval.pair_forward_us", "us"},
      {"index.hnsw.search_us_per_query", "us"},
      {"index.hnsw.nodes_visited_per_query", "count"},
      {"index.hnsw.recall_at_10", "ratio"},
      {"index.hnsw.build_s", "s"},
      {"index.segmented.append_p50_ms", "ms"},
      {"index.segmented.append_p99_ms", "ms"},
      {"index.segmented.wal_bytes_per_record", "bytes"},
      {"index.segmented.flush_ms", "ms"},
      {"index.segmented.compact_ms_per_pass", "ms"},
      {"index.segmented.bytes_rewritten_per_record", "bytes"},
      {"index.segmented.search_us_per_source", "us"},
      {"index.segmented.segments_at_end", "count"},
      {"index.segmented.disk_bytes_per_user_byte", "ratio"},
      {"index.segmented.records_replayed_on_reopen", "count"},
      {"index.segmented.reopen_s", "s"},
      {"distance.resolve_us_per_query", "us"},
      {"distance.scan_ms_per_query", "ms"},
      {"distance.dtw_cells_per_query", "count"},
      {"distance.dtw_ns_per_cell", "ns"},
      {"distance.matrix_s", "s"},
      {"core.sampler_us_per_anchor", "us"},
      {"core.forward_us_per_pair", "us"},
      {"core.backward_us_per_pair", "us"},
      {"core.sub_distance_s_per_epoch", "s"},
      {"core.sub_cache_hit_ratio", "ratio"},
      {"nn.adam_step_us", "us"},
      {"nn.softmax_rows_us", "us"},
      {"nn.matmul_us", "us"},
  };
  return metrics;
}

}  // namespace perfbench

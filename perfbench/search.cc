// The two search workloads.
//
// search_ann: a SimilarityServer with every tier enabled serves 4096
// trajectories; tier 1 encodes with an untrained TMN-NM. One generator
// thread keeps kWindow SubmitTopK queries in flight (a closed loop).
//
// search_exact: the first 1024 of the same trajectories, no model and no
// tier 2, so every serial TopK is answered by the tier-3 exact scan.
//
// Queries are Zipf draws from a held-out pool. Every answer is checked
// against the oracle's DTW.
#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/tmn_model.h"
#include "distance/metric.h"
#include "eval/embedding_search.h"
#include "eval/evaluation.h"
#include "index/hnsw.h"
#include "obs/metrics.h"
#include "serve/similarity_server.h"

namespace perfbench {
namespace {

using tmn::geo::Trajectory;
using tmn::serve::QueryResult;
using tmn::serve::ServeTier;

constexpr int kAnnBase = 4096;
constexpr int kExactBase = 1024;
constexpr size_t kTopK = 10;
// Queries per round; every round replays the same draws.
constexpr size_t kRoundQueries = 1024;
// Closed-loop window: three batches of the default max_batch_size (8).
constexpr size_t kWindow = 24;
constexpr int kHidden = 64;
// Pool queries the search_exact trace times (each is 1024 DTW calls).
constexpr size_t kTracedQueries = 128;

struct SearchInputs {
  std::vector<Trajectory> base;  // The served database.
  std::vector<Trajectory> pool;  // Held-out queries.
  std::vector<size_t> draws;     // One round's query sequence (pool ids).
  std::vector<std::vector<oracle::Match>> oracle_top;  // Exact top-10.
};

SearchInputs MakeInputs(const Options& options, int base_size) {
  SearchInputs in;
  auto groups = SearchCorpus(options.seed);
  in.base.assign(groups[0].begin(), groups[0].begin() + base_size);
  in.pool = std::move(groups[1]);
  in.draws = ZipfDraws(options.seed * 7919 + 5, in.pool.size(), kRoundQueries);
  in.oracle_top = OracleTopK(in.pool, in.base, kTopK, options.threads);
  return in;
}

std::unique_ptr<tmn::core::TmnModel> MakeEncoder() {
  tmn::core::TmnModelConfig config;
  config.hidden_dim = kHidden;
  config.use_matching = false;  // TMN-NM: embeds without a partner.
  config.seed = 1;
  return std::make_unique<tmn::core::TmnModel>(config);
}

// Checks one answer to pool query `q`; returns false (and fails the run)
// when it is wrong. `exact` demands the oracle's ids as well.
bool CheckAnswer(const SearchInputs& in, size_t q, const QueryResult& r,
                 ServeTier tier, bool exact, Result& result) {
  if (r.tier != tier) {
    result.Fail("query answered by tier " +
                std::string(tmn::serve::ServeTierName(r.tier)));
    return false;
  }
  if (r.partial || r.indices.size() != kTopK ||
      r.distances.size() != kTopK) {
    result.Fail("answer is partial or not " + std::to_string(kTopK) +
                " long");
    return false;
  }
  if (std::set<size_t>(r.indices.begin(), r.indices.end()).size() != kTopK) {
    result.Fail("answer repeats an id");
    return false;
  }
  if (exact && r.indices != Ids(in.oracle_top[q])) {
    result.Fail("exact answer differs from the oracle's top-10");
    return false;
  }
  const oracle::Path query = ToPath(in.pool[q]);
  for (size_t j = 0; j < kTopK; ++j) {
    if (r.indices[j] >= in.base.size()) {
      result.Fail("answer id out of range");
      return false;
    }
    const double truth =
        exact ? in.oracle_top[q][j].distance
              : oracle::Dtw(query, ToPath(in.base[r.indices[j]]));
    if (!RelEqual(r.distances[j], truth)) {
      result.Fail("reported distance differs from the oracle's DTW");
      return false;
    }
  }
  return true;
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.indices == b.indices && a.distances == b.distances &&
         a.tier == b.tier && a.partial == b.partial;
}

// A run's rate is the median of its rounds' rates, so one disturbed round
// does not move it; its latency percentiles are taken over every sample
// of the run.
struct RunStats {
  std::vector<double> rate;
  std::vector<double> latencies_ms;

  void AddRound(size_t queries, double wall) { rate.push_back(queries / wall); }
  void Report(Result& result) const {
    // A query is the unit of work of both search workloads.
    result.Add("queries_per_s", Median(rate), "1/s");
    result.Add("ops_per_s", Median(rate), "1/s");
    result.Add("query_p50_ms", Quantile(latencies_ms, 0.50), "ms");
    result.Add("query_p99_ms", Quantile(latencies_ms, 0.99), "ms");
  }
};

// Keeps the first answer to each pool query; a later answer to the same
// query must equal it. The answers are checked against the oracle after
// the measurement, so no oracle work runs inside a timed span.
void Record(std::vector<std::optional<QueryResult>>& answers, size_t q,
            const QueryResult& r, Result& result) {
  if (!answers[q].has_value()) {
    answers[q] = r;
  } else if (!SameAnswer(*answers[q], r)) {
    result.Fail("a repeated query got a different answer");
  }
}

// One closed-loop round over `draws`: kWindow queries in flight, answers
// read in submission order. Appends each answered query's latency and
// records each answer in `answers`.
void ClosedLoopRound(const tmn::serve::SimilarityServer& server,
                     const SearchInputs& in, size_t count,
                     std::vector<std::optional<QueryResult>>& answers,
                     std::vector<double>& latencies_ms, Result& result) {
  struct Pending {
    std::future<tmn::common::StatusOr<QueryResult>> answer;
    double start;
    size_t q;
  };
  std::deque<Pending> inflight;
  size_t next = 0;
  auto finish = [&](Pending& p) {
    tmn::common::StatusOr<QueryResult> r = p.answer.get();
    const double end = Now();
    const bool ok = r.ok();
    result.Attempt(ok);
    if (!ok) {
      result.Fail("query failed: " + r.status().ToString());
      return;
    }
    latencies_ms.push_back((end - p.start) * 1e3);
    Record(answers, p.q, r.value(), result);
  };
  while (next < count || !inflight.empty()) {
    while (next < count && inflight.size() < kWindow) {
      const size_t q = in.draws[next % in.draws.size()];
      ++next;
      const double start = Now();
      auto submitted = server.SubmitTopK(in.pool[q], kTopK);
      if (!submitted.ok()) {
        result.Attempt(false);
        result.Fail("query shed: " + submitted.status().ToString());
        continue;
      }
      inflight.push_back({std::move(submitted.value()), start, q});
    }
    if (inflight.empty()) continue;  // Every submission was shed.
    finish(inflight.front());
    inflight.pop_front();
    while (!inflight.empty() &&
           inflight.front().answer.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      finish(inflight.front());
      inflight.pop_front();
    }
  }
}

// Per-layer split of a tier-1 query, measured by calling each module on
// the pool queries one at a time: encode, HNSW search and exact resolve,
// and the serial TopK whose remainder is the serving layer's own time.
void TraceTier1(const tmn::serve::SimilarityServer& server,
                const SearchInputs& in, const tmn::serve::ServerConfig& config,
                Result& result) {
  const std::unique_ptr<tmn::core::TmnModel> model = MakeEncoder();
  const auto metric = tmn::dist::CreateMetric(tmn::dist::MetricType::kDtw);

  double t0 = Now();
  const std::vector<std::vector<float>> db = tmn::eval::EncodeAll(*model, in.base);
  result.Add("eval.encode_database_s", Now() - t0, "s");

  t0 = Now();
  tmn::index::HnswIndex hnsw(db[0].size(), config.embedding_hnsw);
  for (const std::vector<float>& e : db) hnsw.Add(e);
  result.Add("index.hnsw.build_s", Now() - t0, "s");

  const size_t n = in.pool.size();
  std::vector<std::vector<float>> embeddings(n);
  t0 = Now();
  for (size_t q = 0; q < n; ++q) {
    auto e = tmn::eval::EncodeTrajectory(*model, in.pool[q]);
    if (!e.ok()) return result.Fail("encode failed");
    embeddings[q] = std::move(e.value());
  }
  const double encode_us = (Now() - t0) * 1e6 / n;
  result.Add("eval.encode_us_per_query", encode_us, "us");

  const size_t batch = config.batching.max_batch_size;
  t0 = Now();
  for (size_t first = 0; first < n; first += batch) {
    std::vector<tmn::eval::BatchEncodeRequest> requests;
    for (size_t q = first; q < std::min(n, first + batch); ++q) {
      requests.push_back({&in.pool[q], tmn::common::Deadline()});
    }
    for (const auto& e : tmn::eval::EncodeTrajectoriesBatched(*model, requests)) {
      if (!e.ok()) return result.Fail("batched encode failed");
    }
  }
  result.Add("eval.batch_encode_us_per_query", (Now() - t0) * 1e6 / n, "us");

  std::vector<std::vector<size_t>> nearest(n);
  const double visited_before = CounterValue("tmn.index.hnsw.nodes_visited");
  t0 = Now();
  for (size_t q = 0; q < n; ++q) {
    auto ids = hnsw.NearestChecked(embeddings[q], kTopK);
    if (!ids.ok()) return result.Fail("hnsw search failed");
    nearest[q] = std::move(ids.value());
  }
  const double search_us = (Now() - t0) * 1e6 / n;
  result.Add("index.hnsw.search_us_per_query", search_us, "us");
  result.Add("index.hnsw.nodes_visited_per_query",
             (CounterValue("tmn.index.hnsw.nodes_visited") - visited_before) / n,
             "count");
  std::vector<double> hnsw_recall;
  for (size_t q = 0; q < n; ++q) {
    std::vector<size_t> truth;
    for (const oracle::Neighbor& nb :
         oracle::BruteForceSqL2(db, db.size(), embeddings[q], kTopK)) {
      truth.push_back(nb.id);
    }
    hnsw_recall.push_back(oracle::HitRatio(truth, nearest[q]));
  }
  result.Add("index.hnsw.recall_at_10", Mean(hnsw_recall), "ratio");

  double checksum = 0.0;
  t0 = Now();
  for (size_t q = 0; q < n; ++q) {
    for (size_t id : nearest[q]) checksum += metric->Compute(in.pool[q], in.base[id]);
  }
  const double resolve_us = (Now() - t0) * 1e6 / n;
  result.Add("distance.resolve_us_per_query", resolve_us, "us");
  if (!(checksum > 0.0)) result.Fail("resolve distances are not positive");

  t0 = Now();
  for (size_t q = 0; q < n; ++q) {
    if (!server.TopK(in.pool[q], kTopK).ok()) return result.Fail("TopK failed");
  }
  const double topk_us = (Now() - t0) * 1e6 / n;
  result.Add("serve.self_us_per_query",
             topk_us - encode_us - search_us - resolve_us, "us");
}

// After the measurement: serves every pool query by serial TopK, checks
// each answer against the oracle's DTW, and demands that the batched
// answer recorded for a drawn query equals the serial one bit for bit.
// Returns the mean recall of the serial answers against the oracle's
// exact top-10 over the whole pool, drawn or not.
double CheckAnnAnswers(const tmn::serve::SimilarityServer& server,
                       const SearchInputs& in,
                       const std::vector<std::optional<QueryResult>>& answers,
                       Result& result) {
  std::vector<double> recalls;
  for (size_t q = 0; q < in.pool.size(); ++q) {
    auto serial = server.TopK(in.pool[q], kTopK);
    if (!serial.ok()) {
      result.Fail("serial TopK failed");
      return 0.0;
    }
    if (!CheckAnswer(in, q, serial.value(), ServeTier::kEmbeddingAnn,
                     /*exact=*/false, result)) {
      return 0.0;
    }
    if (answers[q].has_value() && !SameAnswer(serial.value(), *answers[q])) {
      result.Fail("batched answer differs from serial TopK");
      return 0.0;
    }
    recalls.push_back(
        oracle::HitRatio(Ids(in.oracle_top[q]), serial.value().indices));
  }
  return Mean(recalls);
}

// The set-up's last step: the fresh server's first answer, a serial TopK
// of the round's first query. Set-up is the time until a server started
// from the database can answer; without the query, search_exact's set-up
// is a sub-millisecond copy whose median moved by a quarter between sets
// of runs.
bool FirstAnswer(const tmn::serve::SimilarityServer& server,
                 const SearchInputs& in,
                 std::vector<std::optional<QueryResult>>& answers,
                 Result& result) {
  auto first = server.TopK(in.pool[in.draws[0]], kTopK);
  result.Attempt(first.ok());
  if (!first.ok()) {
    result.Fail("first TopK failed: " + first.status().ToString());
    return false;
  }
  Record(answers, in.draws[0], first.value(), result);
  return true;
}

}  // namespace

void RunSearchAnn(const Options& options, Result& result) {
  const SearchInputs in = MakeInputs(options, kAnnBase);
  tmn::serve::ServerConfig config;  // Tiers 1 and 2 on; tier 3 below.
  config.enable_embedding_tier = true;
  config.enable_rerank_tier = true;

  std::vector<std::optional<QueryResult>> answers(in.pool.size());
  const double t0 = Now();
  auto created = tmn::serve::SimilarityServer::Create(
      config, in.base, tmn::dist::CreateMetric(tmn::dist::MetricType::kDtw),
      MakeEncoder());
  if (!created.ok()) return result.Fail("Create: " + created.status().ToString());
  const auto& server = *created.value();
  if (!server.embedding_tier_available() || !server.rerank_tier_available()) {
    return result.Fail("a tier is down after Create");
  }
  if (!FirstAnswer(server, in, answers, result)) return;
  const double setup = Now() - t0;

  // Warm-up: untimed, uncounted.
  {
    Result warm;
    std::vector<double> latencies;
    ClosedLoopRound(server, in, kRoundQueries / 4, answers, latencies, warm);
    if (!warm.correct) return result.Fail("warm-up round failed");
  }

  if (options.trace) {
    // One round with the registry cleared: batch and pool figures.
    tmn::obs::Registry::Global().ResetValues();
    std::vector<double> latencies;
    ClosedLoopRound(server, in, kRoundQueries, answers, latencies, result);
    result.Add("serve.batch.occupancy_mean",
               HistogramMean("tmn.serve.batch.occupancy"), "count");
    result.Add("serve.batch.formation_ms_mean",
               HistogramMean("tmn.serve.batch.formation_seconds") * 1e3, "ms");
    result.Add("common.pool.task_wait_ms_mean",
               HistogramMean("tmn.common.pool.task_wait_seconds") * 1e3, "ms");
    CheckAnnAnswers(server, in, answers, result);
    TraceTier1(server, in, config, result);
    // The write path, on the sketches of the same corpus.
    TraceSegmented(options, result);
    return;
  }

  RunStats stats;
  const double start = Now();
  do {
    const double round_start = Now();
    ClosedLoopRound(server, in, kRoundQueries, answers, stats.latencies_ms,
                    result);
    stats.AddRound(kRoundQueries, Now() - round_start);
  } while (Now() - start < options.seconds && result.correct);

  const double recall = CheckAnnAnswers(server, in, answers, result);
  result.Add("setup_s", setup, "s");
  stats.Report(result);
  result.Add("recall_at_10", recall, "ratio");
}

void RunSearchExact(const Options& options, Result& result) {
  const SearchInputs in = MakeInputs(options, kExactBase);
  tmn::serve::ServerConfig config;
  config.enable_embedding_tier = false;
  config.enable_rerank_tier = false;
  // max_brute_force (4096) >= the database, so the scan is complete.

  std::vector<std::optional<QueryResult>> answers(in.pool.size());
  const double t0 = Now();
  auto created = tmn::serve::SimilarityServer::Create(
      config, in.base, tmn::dist::CreateMetric(tmn::dist::MetricType::kDtw),
      nullptr);
  if (!created.ok()) return result.Fail("Create: " + created.status().ToString());
  const auto& server = *created.value();
  if (!FirstAnswer(server, in, answers, result)) return;
  const double setup = Now() - t0;

  // Serves pool query q by serial TopK and returns its latency in ms.
  auto serve = [&](size_t q, Result& into) {
    const double t = Now();
    auto r = server.TopK(in.pool[q], kTopK);
    const double ms = (Now() - t) * 1e3;
    into.Attempt(r.ok());
    if (!r.ok()) {
      into.Fail("TopK failed: " + r.status().ToString());
    } else {
      Record(answers, q, r.value(), into);
    }
    return ms;
  };
  // After the measurement: every recorded answer must be the oracle's
  // top-10, from tier 3 and complete. Returns the mean recall.
  auto check = [&]() {
    std::vector<double> recalls;
    for (size_t q = 0; q < answers.size(); ++q) {
      if (!answers[q].has_value()) continue;
      if (!CheckAnswer(in, q, *answers[q], ServeTier::kExactBruteForce,
                       /*exact=*/true, result)) {
        return 0.0;
      }
      recalls.push_back(
          oracle::HitRatio(Ids(in.oracle_top[q]), answers[q]->indices));
    }
    return Mean(recalls);
  };
  {
    Result warm;
    for (size_t i = 0; i < 16; ++i) serve(in.draws[i], warm);
    if (!warm.correct) return result.Fail("warm-up queries failed");
  }

  if (options.trace) {
    // The first kTracedQueries pool queries once each: the serial TopK
    // against a bare scan of the same 1024 DTW calls.
    const auto metric = tmn::dist::CreateMetric(tmn::dist::MetricType::kDtw);
    const size_t n = kTracedQueries;
    double topk_ms = 0.0;
    for (size_t q = 0; q < n; ++q) topk_ms += serve(q, result);
    topk_ms /= n;
    double cells = 0.0;
    double checksum = 0.0;
    const double t = Now();
    for (size_t q = 0; q < n; ++q) {
      for (const Trajectory& b : in.base) {
        checksum += metric->Compute(in.pool[q], b);
        cells += static_cast<double>(in.pool[q].size() * b.size());
      }
    }
    const double scan_s = Now() - t;
    check();
    if (!(checksum > 0.0)) result.Fail("scan distances are not positive");
    result.Add("distance.scan_ms_per_query", scan_s * 1e3 / n, "ms");
    result.Add("distance.dtw_cells_per_query", cells / n, "count");
    result.Add("distance.dtw_ns_per_cell", scan_s * 1e9 / cells, "ns");
    result.Add("serve.tier3.scan_ratio", topk_ms / (scan_s * 1e3 / n), "ratio");
    result.Add("common.pool.task_wait_ms_mean",
               HistogramMean("tmn.common.pool.task_wait_seconds") * 1e3, "ms");
    return;
  }

  RunStats stats;
  const double start = Now();
  do {
    const double round_start = Now();
    for (size_t q : in.draws) stats.latencies_ms.push_back(serve(q, result));
    stats.AddRound(in.draws.size(), Now() - round_start);
  } while (Now() - start < options.seconds && result.correct);

  const double recall = check();
  result.Add("setup_s", setup, "s");
  stats.Report(result);
  result.Add("recall_at_10", recall, "ratio");
}

}  // namespace perfbench

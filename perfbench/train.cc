// The train workload: a PairTrainer trains TMN (matching on, sub-
// trajectory loss on) on 192 trajectories against a DTW ground truth,
// then the trained pairwise model ranks a held-out base for held-out
// queries. Each round trains a fresh model from the same initialization,
// so every round does the same work and reaches the same model.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/matrix.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/model.h"
#include "core/sampler.h"
#include "core/tmn_model.h"
#include "core/trainer.h"
#include "distance/distance_matrix.h"
#include "distance/metric.h"
#include "eval/evaluation.h"
#include "nn/kernels/arena.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/rng.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using tmn::geo::Trajectory;

constexpr int kTrain = 192;
constexpr int kQueryPool = 64;
constexpr int kEvalBase = 64;
constexpr int kMinLen = 16;
constexpr int kMaxLen = 64;
constexpr int kHeldOutLen = 40;
constexpr int kHidden = 32;
constexpr size_t kSamplingNum = 10;
// Timed epochs per round, after one untimed warm-up epoch.
constexpr int kTimedEpochs = 6;
// Held-out ranking queries per round: enough for a p99.
constexpr size_t kEvalQueries = 1024;
constexpr size_t kTopK = 10;

std::unique_ptr<tmn::core::TmnModel> MakeModel() {
  tmn::core::TmnModelConfig config;
  config.hidden_dim = kHidden;
  config.use_matching = true;
  config.seed = 1;
  return std::make_unique<tmn::core::TmnModel>(config);
}

struct TrainInputs {
  std::vector<Trajectory> train;
  std::vector<Trajectory> queries;  // Held out.
  std::vector<Trajectory> base;     // Held out; ranked for each query.
  std::vector<size_t> draws;        // One round's query sequence.
  std::vector<std::vector<size_t>> oracle_top;  // Exact top-10 per query.
};

// Checks the ground-truth matrix: symmetric, zero diagonal, and sampled
// entries equal to the oracle's DTW.
void CheckGroundTruth(const TrainInputs& in, const tmn::DoubleMatrix& d,
                      uint64_t seed, Result& result) {
  const size_t n = in.train.size();
  for (size_t i = 0; i < n; ++i) {
    if (d.at(i, i) != 0.0) return result.Fail("ground truth diagonal not 0");
    for (size_t j = 0; j < i; ++j) {
      if (d.at(i, j) != d.at(j, i)) {
        return result.Fail("ground truth not symmetric");
      }
    }
  }
  const std::vector<size_t> rows = ZipfDraws(seed, n, 64);
  const std::vector<size_t> cols = ZipfDraws(seed + 1, n, 64);
  for (size_t s = 0; s < rows.size(); ++s) {
    const double truth =
        oracle::Dtw(ToPath(in.train[rows[s]]), ToPath(in.train[cols[s]]));
    if (!RelEqual(d.at(rows[s], cols[s]), truth)) {
      return result.Fail("ground truth differs from the oracle's DTW");
    }
  }
}

struct Trained {
  std::unique_ptr<tmn::core::TmnModel> model;
  double warmup_loss = 0.0;
  std::vector<double> losses;       // Timed epochs.
  std::vector<double> pairs_per_s;  // Timed epochs.
};

Trained TrainRound(const TrainInputs& in, const tmn::DoubleMatrix& d,
                   const tmn::dist::DistanceMetric& metric, int threads,
                   int timed_epochs) {
  Trained out;
  out.model = MakeModel();
  tmn::core::RandomSortSampler sampler(&d, kSamplingNum);
  tmn::core::TrainConfig config;
  config.sampling_num = kSamplingNum;
  config.use_sub_loss = true;
  config.alpha = tmn::core::SuggestAlpha(d);
  config.num_threads = threads;
  tmn::core::PairTrainer trainer(out.model.get(), &in.train, &d, &metric,
                                 &sampler, config);
  out.warmup_loss = trainer.TrainEpoch();
  for (int e = 0; e < timed_epochs; ++e) {
    const double pairs = CounterValue("tmn.core.trainer.pairs");
    const double t0 = Now();
    out.losses.push_back(trainer.TrainEpoch());
    const double seconds = Now() - t0;
    out.pairs_per_s.push_back((CounterValue("tmn.core.trainer.pairs") - pairs) /
                              seconds);
  }
  return out;
}

// Ranks the held-out base for one query with the pairwise model: one
// tape-free joint forward per candidate, the candidates handed out one at
// a time to `threads` threads.
std::vector<size_t> RankBase(const tmn::core::SimilarityModel& model,
                             const TrainInputs& in, size_t q, int threads) {
  std::vector<double> predicted(in.base.size());
  tmn::common::ParallelFor(
      0, in.base.size(),
      [&](size_t c) {
        predicted[c] =
            tmn::eval::PredictDistance(model, in.queries[q], in.base[c]);
      },
      threads);
  return oracle::TopK(predicted, kTopK);
}

// Per-layer probes on the training inputs, one thread, outside any
// ParallelFor: sampler, grad-mode forward and backward, Adam, the
// matching block's kernels, and the tape-free pair forward.
void TraceLayers(const TrainInputs& in, const tmn::DoubleMatrix& d,
                 Result& result) {
  const std::unique_ptr<tmn::core::TmnModel> model = MakeModel();
  tmn::core::RandomSortSampler sampler(&d, kSamplingNum);
  tmn::nn::Rng rng(7);
  std::vector<std::vector<tmn::core::TrainingSample>> samples(in.train.size());
  double t0 = Now();
  for (size_t a = 0; a < in.train.size(); ++a) samples[a] = sampler.SampleFor(a, rng);
  result.Add("core.sampler_us_per_anchor", (Now() - t0) * 1e6 / in.train.size(),
             "us");

  const double alpha = tmn::core::SuggestAlpha(d);
  const size_t pairs = 64;
  double forward_s = 0.0;
  double backward_s = 0.0;
  for (size_t p = 0; p < pairs; ++p) {
    const size_t a = p % in.train.size();
    const size_t b = samples[a][p % samples[a].size()].index;
    t0 = Now();
    const tmn::core::PairOutput out = model->ForwardPair(in.train[a], in.train[b]);
    tmn::nn::Tensor loss = tmn::core::PairLoss(
        tmn::core::PredictedSimilarity(tmn::core::FinalRow(out.oa),
                                       tmn::core::FinalRow(out.ob)),
        std::exp(-alpha * d.at(a, b)), tmn::core::LossKind::kMse);
    const double t1 = Now();
    loss.Backward();
    backward_s += Now() - t1;
    forward_s += t1 - t0;
  }
  result.Add("core.forward_us_per_pair", forward_s * 1e6 / pairs, "us");
  result.Add("core.backward_us_per_pair", backward_s * 1e6 / pairs, "us");

  tmn::nn::Adam adam(model->Parameters(), 5e-3);
  const int steps = 200;
  t0 = Now();
  for (int s = 0; s < steps; ++s) adam.Step();
  result.Add("nn.adam_step_us", (Now() - t0) * 1e6 / steps, "us");

  // The matching block P = softmax(X_a X_b^T) at the mean training
  // length, with point embeddings of width hidden / 2.
  double mean_len = 0.0;
  for (const Trajectory& t : in.train) mean_len += t.size();
  const int len = static_cast<int>(std::lround(mean_len / in.train.size()));
  tmn::nn::Rng init(11);
  const tmn::nn::Tensor xa = tmn::nn::Tensor::XavierUniform(len, kHidden / 2, init);
  const tmn::nn::Tensor xbt = tmn::nn::Transpose(
      tmn::nn::Tensor::XavierUniform(len, kHidden / 2, init));
  {
    tmn::nn::NoGradGuard no_grad;
    tmn::nn::kernels::ArenaScope arena;
    const int reps = 2000;
    double checksum = 0.0;
    t0 = Now();
    for (int r = 0; r < reps; ++r) checksum += tmn::nn::MatMul(xa, xbt).data()[0];
    result.Add("nn.matmul_us", (Now() - t0) * 1e6 / reps, "us");
    const tmn::nn::Tensor scores = tmn::nn::MatMul(xa, xbt);
    t0 = Now();
    for (int r = 0; r < reps; ++r) checksum += tmn::nn::SoftmaxRows(scores).data()[0];
    result.Add("nn.softmax_rows_us", (Now() - t0) * 1e6 / reps, "us");
    if (!std::isfinite(checksum)) result.Fail("matching block is not finite");
  }

  const size_t predictions = 256;
  double checksum = 0.0;
  t0 = Now();
  for (size_t p = 0; p < predictions; ++p) {
    checksum += tmn::eval::PredictDistance(*model, in.queries[p % in.queries.size()],
                                           in.base[p % in.base.size()]);
  }
  result.Add("eval.pair_forward_us", (Now() - t0) * 1e6 / predictions, "us");
  if (!std::isfinite(checksum)) result.Fail("pair prediction is not finite");
}

}  // namespace

void RunTrain(const Options& options, Result& result) {
  TrainInputs in;
  {
    // Held-out queries and base are 40 points (the training mean), so
    // every ranking query costs the same whatever the seed.
    auto groups = MakeTrajectories(options.seed + 0x7261696E,
                                   {{kTrain, kMinLen, kMaxLen},
                                    {kQueryPool, kHeldOutLen, kHeldOutLen},
                                    {kEvalBase, kHeldOutLen, kHeldOutLen}});
    in.train = std::move(groups[0]);
    in.queries = std::move(groups[1]);
    in.base = std::move(groups[2]);
  }
  in.draws = ZipfDraws(options.seed * 7919 + 11, kQueryPool, kEvalQueries);
  for (const auto& top : OracleTopK(in.queries, in.base, kTopK, options.threads)) {
    in.oracle_top.push_back(Ids(top));
  }
  const auto metric = tmn::dist::CreateMetric(tmn::dist::MetricType::kDtw);

  double t0 = Now();
  const tmn::DoubleMatrix d =
      tmn::dist::ComputeDistanceMatrix(in.train, *metric, options.threads);
  const double setup = Now() - t0;
  CheckGroundTruth(in, d, options.seed, result);

  if (options.trace) {
    tmn::obs::Registry::Global().ResetValues();
    Trained trained = TrainRound(in, d, *metric, options.threads, kTimedEpochs);
    result.Attempt(std::isfinite(trained.warmup_loss));
    const double epochs = CounterValue("tmn.core.trainer.epochs");
    const double hits = CounterValue("tmn.core.trainer.sub_cache_hits");
    const double misses = CounterValue("tmn.core.trainer.sub_cache_misses");
    result.Add("distance.matrix_s", setup, "s");
    result.Add("core.sub_distance_s_per_epoch",
               HistogramSum("tmn.core.trainer.sub_distance_seconds") / epochs,
               "s");
    result.Add("core.sub_cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    result.Add("common.pool.task_wait_ms_mean",
               HistogramMean("tmn.common.pool.task_wait_seconds") * 1e3, "ms");
    TraceLayers(in, d, result);
    return;
  }

  std::vector<double> pairs_per_s;
  double eval_s = 0.0;
  std::vector<double> latencies_ms;  // Every ranking query of the run.
  std::vector<std::optional<std::vector<size_t>>> answers(in.queries.size());
  double first_warmup_loss = 0.0;
  const double start = Now();
  do {
    Trained trained = TrainRound(in, d, *metric, options.threads, kTimedEpochs);
    first_warmup_loss = trained.warmup_loss;
    pairs_per_s.insert(pairs_per_s.end(), trained.pairs_per_s.begin(),
                       trained.pairs_per_s.end());
    bool finite = std::isfinite(trained.warmup_loss);
    for (double loss : trained.losses) finite = finite && std::isfinite(loss);
    if (!finite) result.Fail("a training loss is not finite");
    if (!(trained.losses.back() < trained.warmup_loss)) {
      result.Fail("the last epoch's loss is not below the first's");
    }
    // One attempted operation per epoch, warm-up included.
    for (size_t e = 0; e <= trained.losses.size(); ++e) result.Attempt(finite);

    // Ranking queries run one at a time, each spread over all threads.
    // On the reference machine a thread ran a query in about 12 or about
    // 20 ms depending on the moment and the CPU it ran on; with one query
    // per thread, or queries on one thread, the run's median latency
    // jumped between the two from run to run. Handing out candidates one
    // at a time averages the CPUs' speeds inside every query.
    const double eval_start = Now();
    for (size_t q : in.draws) {
      const double t = Now();
      const std::vector<size_t> top =
          RankBase(*trained.model, in, q, options.threads);
      latencies_ms.push_back((Now() - t) * 1e3);
      result.Attempt(top.size() == kTopK);
      if (!answers[q].has_value()) {
        answers[q] = top;
      } else if (*answers[q] != top) {
        result.Fail("a repeated ranking query got a different answer");
      }
    }
    eval_s += Now() - eval_start;
  } while (Now() - start < options.seconds && result.correct);

  // Determinism across thread counts: the first epoch at one thread.
  {
    Trained serial = TrainRound(in, d, *metric, 1, 0);
    if (serial.warmup_loss != first_warmup_loss) {
      result.Fail("first-epoch loss at 1 thread differs from the pinned count");
    }
  }

  std::vector<double> hr;
  for (size_t q = 0; q < answers.size(); ++q) {
    if (answers[q].has_value()) hr.push_back(oracle::HitRatio(in.oracle_top[q], *answers[q]));
  }
  const double hr10 = Mean(hr);
  const double random_hr = static_cast<double>(kTopK) / in.base.size();
  if (!(hr10 > random_hr)) result.Fail("HR@10 does not beat a random ranking");

  result.Add("setup_s", setup, "s");
  // Training pairs per second: the median over timed epochs.
  result.Add("ops_per_s", Median(pairs_per_s), "1/s");
  result.Add("queries_per_s", latencies_ms.size() / eval_s, "1/s");
  result.Add("query_p50_ms", Quantile(latencies_ms, 0.50), "ms");
  result.Add("query_p99_ms", Quantile(latencies_ms, 0.99), "ms");
  result.Add("recall_at_10", hr10, "ratio");
}

}  // namespace perfbench

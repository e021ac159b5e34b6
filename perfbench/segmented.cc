// The segmented-index layer, traced beside search_ann: a fresh
// SegmentedIndex (dim 16) receives the sketch vectors of the search corpus
// from one thread. Every append is acked (fsync'd), a burst of
// kReadsPerBurst SearchTopK reads runs after every kReadEvery appends,
// and a CompactOnce pass runs after every kCompactEvery appends. The
// round then closes the index and reopens it. The round starts from an
// empty directory, so it always ends with the same index shape.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "index/segmented/segmented_index.h"
#include "obs/metrics.h"
#include "serve/similarity_server.h"

namespace perfbench {
namespace {

using tmn::index::SegmentedIndex;

constexpr size_t kSketchPoints = 8;  // dim = 2 * 8 = 16.
constexpr size_t kMemtableCapacity = 384;
// Reads come in bursts: a read right after a blocking fsync pays the
// CPU's wake-up, which made single interleaved reads measure the machine
// more than the index.
constexpr size_t kReadEvery = 256;
constexpr size_t kReadsPerBurst = 64;
constexpr size_t kCompactEvery = 1024;
constexpr size_t kTopK = 10;

struct Read {
  size_t acked = 0;  // Records acked when the read ran.
  size_t q = 0;      // Pool query.
  tmn::index::SegmentedSearchResult answer;
};

struct Round {
  double reopen_s = 0.0;
  std::vector<double> append_ms;
  std::vector<double> read_ms;
  std::vector<Read> reads;
  double wal_bytes_first_record = 0.0;
  std::vector<double> seal_ms;
  std::vector<double> compact_ms;
  double bytes_rewritten = 0.0;
  double sources_searched = 0.0;
  size_t segments_at_end = 0;
  double disk_bytes = 0.0;
  double replayed = 0.0;
};

tmn::index::SegmentedIndexOptions IndexOptions() {
  tmn::index::SegmentedIndexOptions options;
  options.dim = 2 * kSketchPoints;
  options.memtable_capacity = kMemtableCapacity;
  // Sequential scatter-gather: one thread does all of the ingest work,
  // and a read costs the scan and merge, not pool wake-ups (at 4096
  // vectors a parallel scan is dominated by them).
  options.max_parallelism = 1;
  return options;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

void RunRound(const std::string& dir,
              const std::vector<std::vector<float>>& vectors,
              const std::vector<std::vector<float>>& queries,
              const std::vector<size_t>& draws, Round& round, Result& result) {
  std::filesystem::remove_all(dir);
  const tmn::index::SegmentedIndexOptions index_options = IndexOptions();
  auto opened = SegmentedIndex::Open(dir, index_options);
  if (!opened.ok()) return result.Fail("Open: " + opened.status().ToString());
  std::unique_ptr<SegmentedIndex> index = std::move(opened.value());

  const tmn::index::CompactionPolicy policy;
  size_t next_read = 0;
  for (size_t i = 0; i < vectors.size(); ++i) {
    double t = Now();
    const tmn::common::Status appended = index->Append(i, vectors[i]);
    const double ms = (Now() - t) * 1e3;
    result.Attempt(appended.ok());
    if (!appended.ok()) return result.Fail("Append: " + appended.ToString());
    round.append_ms.push_back(ms);
    if (i == 0) {
      round.wal_bytes_first_record = GaugeValue("tmn.index.segment.wal_bytes");
    }
    if (index->memtable_size() == 0) round.seal_ms.push_back(ms);

    for (size_t r = 0; (i + 1) % kReadEvery == 0 && r < kReadsPerBurst; ++r) {
      Read read{i + 1, draws[next_read++ % draws.size()], {}};
      t = Now();
      auto found = index->SearchTopK(queries[read.q], kTopK);
      round.read_ms.push_back((Now() - t) * 1e3);
      result.Attempt(found.ok());
      if (!found.ok()) return result.Fail("SearchTopK: " + found.status().ToString());
      read.answer = std::move(found.value());
      round.sources_searched += read.answer.sources_searched;
      round.reads.push_back(std::move(read));
    }
    if ((i + 1) % kCompactEvery == 0) {
      t = Now();
      auto stats = index->CompactOnce(policy);
      const double compact_ms = (Now() - t) * 1e3;
      result.Attempt(stats.ok());
      if (!stats.ok()) return result.Fail("CompactOnce: " + stats.status().ToString());
      if (stats.value().compacted) {
        round.compact_ms.push_back(compact_ms);
        round.bytes_rewritten += stats.value().bytes_rewritten;
      }
    }
  }
  round.segments_at_end = index->segment_count();
  round.disk_bytes = DirectoryBytes(dir);
  index.reset();  // Close.

  tmn::index::RecoveryReport report;
  const double t = Now();
  auto reopened = SegmentedIndex::Open(dir, index_options, &report);
  round.reopen_s = Now() - t;
  result.Attempt(reopened.ok());
  if (!reopened.ok()) return result.Fail("reopen: " + reopened.status().ToString());
  round.replayed = static_cast<double>(report.wal_records_replayed);
  if (reopened.value()->size() != vectors.size()) {
    result.Fail("reopened index holds " + std::to_string(reopened.value()->size()) +
                " records, not " + std::to_string(vectors.size()));
  }
  reopened.value().reset();
  std::filesystem::remove_all(dir);
}

// Every read must equal the oracle's brute force over the vectors acked
// before it, and be complete.
void CheckReads(const Round& round, const std::vector<std::vector<float>>& vectors,
                const std::vector<std::vector<float>>& queries, Result& result) {
  for (const Read& read : round.reads) {
    const std::vector<oracle::Neighbor> truth =
        oracle::BruteForceSqL2(vectors, read.acked, queries[read.q], kTopK);
    bool equal = !read.answer.partial && read.answer.ids.size() == truth.size();
    for (size_t j = 0; j < truth.size(); ++j) {
      equal = equal && read.answer.ids[j] == truth[j].id &&
              read.answer.distances[j] == truth[j].distance;
    }
    if (!equal) return result.Fail("a read differs from the oracle's brute force");
  }
}

// Sketch vectors of the search corpus [0] and of its held-out pool [1].
void Sketches(uint64_t seed, std::vector<std::vector<float>>& vectors,
              std::vector<std::vector<float>>& queries) {
  const auto groups = SearchCorpus(seed);
  for (const auto& t : groups[0]) {
    vectors.push_back(tmn::serve::SimilarityServer::SketchTrajectory(t, kSketchPoints));
  }
  for (const auto& t : groups[1]) {
    queries.push_back(tmn::serve::SimilarityServer::SketchTrajectory(t, kSketchPoints));
  }
}

std::vector<size_t> ReadDraws(uint64_t seed, size_t pool, size_t appends) {
  return ZipfDraws(seed * 7919 + 23, pool, appends / kReadEvery * kReadsPerBurst);
}

}  // namespace

void TraceSegmented(const Options& options, Result& result) {
  std::vector<std::vector<float>> vectors;
  std::vector<std::vector<float>> queries;
  Sketches(options.seed, vectors, queries);
  const std::vector<size_t> draws =
      ReadDraws(options.seed, queries.size(), vectors.size());
  Round round;
  RunRound(options.workdir + "/segmented", vectors, queries, draws, round, result);
  CheckReads(round, vectors, queries, result);
  const double records = static_cast<double>(vectors.size());
  result.Add("index.segmented.append_p50_ms", Quantile(round.append_ms, 0.50), "ms");
  result.Add("index.segmented.append_p99_ms", Quantile(round.append_ms, 0.99), "ms");
  result.Add("index.segmented.wal_bytes_per_record", round.wal_bytes_first_record,
             "bytes");
  result.Add("index.segmented.flush_ms", Mean(round.seal_ms), "ms");
  result.Add("index.segmented.compact_ms_per_pass", Mean(round.compact_ms), "ms");
  result.Add("index.segmented.bytes_rewritten_per_record",
             round.bytes_rewritten / records, "bytes");
  double read_ms = 0.0;
  for (double ms : round.read_ms) read_ms += ms;
  result.Add("index.segmented.search_us_per_source",
             read_ms * 1e3 / round.sources_searched, "us");
  result.Add("index.segmented.segments_at_end",
             static_cast<double>(round.segments_at_end), "count");
  result.Add("index.segmented.disk_bytes_per_user_byte",
             round.disk_bytes / (records * 2 * kSketchPoints * sizeof(float)),
             "ratio");
  result.Add("index.segmented.records_replayed_on_reopen", round.replayed, "count");
  result.Add("index.segmented.reopen_s", round.reopen_s, "s");
}

}  // namespace perfbench

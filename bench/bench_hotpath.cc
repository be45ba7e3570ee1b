// Hot-path throughput of the simulated crowd: comparisons/sec of the
// batch-at-once vote generation path (VoteBatchComparator::GenerateVotes,
// DESIGN.md §14) against the per-virtual-call path, which stays its spec,
// for every worker model. The workload is miss-dominated — millions of
// mostly distinct random pairs — so the numbers measure vote generation
// itself, not cache hits.
//
// Rows per model:
//   percall      per-virtual-call Compare on the bare model.
//   bulk-scalar  GenerateVotes with the bulk draw layer (DESIGN.md §16)
//                pinned to the scalar kernels: block-generated raw draws,
//                integer-threshold compares, no SIMD.
//   bulk         GenerateVotes on the default path: bulk draw layer on
//                the best available backend (AVX2 when built with
//                CROWDMAX_SIMD on a capable CPU).
//   engine=d8    the batch path driven through the pipelined RoundEngine
//                at depth 8, with a per-stage split: time inside
//                GenerateVotes (votegen) vs everything else the engine
//                and executor stack add (dispatch).
//   engine=serial the same stream through the serial memoized RoundEngine
//                (one batch cache insert and one GenerateVotes per round,
//                no executor stack), with the same votegen/dispatch split.
//   par=T        ParallelBatchExecutor at T threads (forked models, batch
//                path inside each chunk).
//   filter       Phase 1 end to end: FilterCandidates at n = 20000,
//                u_n = 50, memo on, serial backend, over this model —
//                all-play-all groups the engine answers as player units.
//                Throughput is issued pairs per second (memo hits
//                included), with the engine rows' votegen/dispatch split.
//
// Self-checking in every mode: the bulk-scalar and bulk rows must each
// produce bit-identical votes to an identically seeded per-call run — the
// determinism contract the unit suites pin, re-verified on the bench
// workload for both draw backends — and engine=serial must reproduce one
// bulk GenerateVotes over its stream. The smoke run asserts only these
// identities, never a speed. The full run writes BENCH_hotpath.json.
//
// Flags:
//   --smoke            small self-checking CI run (skips the JSON artifact)
//   --pairs=N          pairs per row (default 2000000)
//   --out=PATH         JSON artifact path (default BENCH_hotpath.json)
//   --check            regression mode: measure, compare against the
//                      committed baseline JSON, exit nonzero when a serial
//                      row drops below tolerance * committed, or when a
//                      ratio of two rows (bulk/percall, engine=serial/bulk,
//                      par=8/par=1, filter/bulk, engine=d8/engine=serial)
//                      drops below tolerance * the same ratio in the
//                      committed file. Gated on the
//                      CROWDMAX_BENCH_CHECK environment variable so the CI
//                      entry is opt-in: without it the check is skipped
//                      before measuring.
//   --baseline=PATH    committed JSON to compare against (default
//                      BENCH_hotpath.json)
//   --check_tolerance=F fraction of the committed throughput (or ratio) a
//                      row must keep (default 0.6)

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/async_executor.h"
#include "core/batched.h"
#include "core/comparator.h"
#include "core/filter_phase.h"
#include "core/loss_matrix.h"
#include "core/pair_key.h"
#include "core/round_engine.h"
#include "core/worker_model.h"

namespace crowdmax {
namespace {

constexpr int64_t kChunk = 4096;

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// One measured configuration: name + a runner that answers all `pairs`
// with a fresh, identically seeded comparator stack and returns the votes.
struct Row {
  std::string name;
  double seconds = 0.0;
  double comparisons_per_sec = 0.0;
  // engine rows only: wall time inside GenerateVotes vs everything the
  // engine/executor stack adds around it. Negative means "not split".
  double votegen_seconds = -1.0;
  double dispatch_seconds = -1.0;
};

struct ModelReport {
  std::string model;
  std::vector<Row> rows;
};

// Builds a model over `setup`'s instance and thresholds.
using ModelFactory = std::function<std::unique_ptr<Comparator>(
    const bench::TwoClassSetup& setup, uint64_t seed)>;

std::vector<ComparisonPair> RandomPairs(int64_t n_elements, int64_t count,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<ComparisonPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    ElementId a =
        static_cast<ElementId>(rng.NextBounded(static_cast<uint64_t>(n_elements)));
    ElementId b =
        static_cast<ElementId>(rng.NextBounded(static_cast<uint64_t>(n_elements)));
    if (a == b) b = static_cast<ElementId>((a + 1) % n_elements);
    pairs.emplace_back(a, b);
  }
  return pairs;
}

// Streams a pre-deduplicated pair list through a RoundEngine in
// fixed-size rounds, collecting votes in stream order. The chunks are
// pair-disjoint by construction, so overlapping them in a pipelined
// engine is legal (CanPipelineNextRound).
class PairStreamSource : public RoundSource {
 public:
  PairStreamSource(const std::vector<ComparisonPair>* pairs, int64_t chunk,
                   std::vector<ElementId>* votes)
      : pairs_(pairs), chunk_(static_cast<size_t>(chunk)), votes_(votes) {}

  Result<bool> NextRound(EngineRound* round) override {
    if (next_emit_ >= pairs_->size()) return false;
    const size_t count = std::min(chunk_, pairs_->size() - next_emit_);
    RoundUnit unit;
    unit.pairs.assign(pairs_->begin() + static_cast<ptrdiff_t>(next_emit_),
                      pairs_->begin() +
                          static_cast<ptrdiff_t>(next_emit_ + count));
    round->units.push_back(std::move(unit));
    next_emit_ += count;
    return true;
  }

  Status ConsumeOutcome(const EngineRound& round,
                        const RoundOutcome& outcome) override {
    for (ElementId winner : outcome.winners[0]) {
      (*votes_)[next_consume_++] = winner;
    }
    (void)round;
    return Status::OK();
  }

  bool CanPipelineNextRound() const override { return true; }

 private:
  const std::vector<ComparisonPair>* pairs_;
  const size_t chunk_;
  std::vector<ElementId>* votes_;
  size_t next_emit_ = 0;
  size_t next_consume_ = 0;
};

// Forwarding decorator that accumulates the wall time spent inside the
// wrapped model's vote generation. Splits the engine rows into model time
// (votegen) and everything the dispatch stack adds around it — round
// assembly, cache resolve, pipeline bookkeeping — the baseline for the
// engine-overhead item on the roadmap. Checkpoint state stays on the inner
// comparator. The votes it forwards are charged to its own counter too, so
// the serial engine, which reads this comparator's count, sees what it
// paid; the pipelined row's executor keeps its own task counts.
class TimingComparator : public Comparator, public VoteBatchComparator {
 public:
  explicit TimingComparator(Comparator* inner)
      : inner_(inner), inner_batch_(inner->AsVoteBatch()) {}

  ElementId Compare(ElementId a, ElementId b) override {
    const auto begin = std::chrono::steady_clock::now();
    const ElementId winner = inner_->Compare(a, b);
    votegen_seconds_ += Seconds(begin, std::chrono::steady_clock::now());
    CountComparison();
    return winner;
  }

  VoteBatchComparator* AsVoteBatch() override {
    return inner_batch_ != nullptr ? this : nullptr;
  }

  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override {
    const auto begin = std::chrono::steady_clock::now();
    const int64_t produced = inner_batch_->GenerateVotes(pairs, out);
    votegen_seconds_ += Seconds(begin, std::chrono::steady_clock::now());
    AddComparisons(produced);
    return produced;
  }

  // A player unit's one call: the model's own tournament kernel, or its
  // written-out default, timed whole as votegen.
  int64_t GenerateTournament(std::span<const ElementId> players,
                             std::span<const uint64_t> skip,
                             LossMatrix* losses) override {
    const auto begin = std::chrono::steady_clock::now();
    const int64_t produced =
        inner_batch_->GenerateTournament(players, skip, losses);
    votegen_seconds_ += Seconds(begin, std::chrono::steady_clock::now());
    AddComparisons(produced);
    return produced;
  }

  double votegen_seconds() const { return votegen_seconds_; }

 private:
  ElementId DoCompare(ElementId a, ElementId b) override {
    return inner_->Compare(a, b);
  }

  Comparator* inner_;
  VoteBatchComparator* inner_batch_;
  double votegen_seconds_ = 0.0;
};

Row Measure(const std::string& name,
            const std::vector<ComparisonPair>& pairs,
            const std::function<void(std::vector<ElementId>*)>& run) {
  std::vector<ElementId> votes(pairs.size(), -1);
  const auto begin = std::chrono::steady_clock::now();
  run(&votes);
  const auto end = std::chrono::steady_clock::now();
  Row row;
  row.name = name;
  row.seconds = Seconds(begin, end);
  row.comparisons_per_sec =
      row.seconds > 0.0 ? static_cast<double>(pairs.size()) / row.seconds : 0.0;
  return row;
}

// Runs GenerateVotes over `pairs` in engine-round-sized chunks and checks
// the votes against the per-call reference — the shared body of the
// bulk-scalar / bulk rows, which differ only in which backend answers the
// open rows.
void RunChunkedBatch(Comparator* model,
                     const std::vector<ComparisonPair>& pairs,
                     const std::vector<ElementId>& reference,
                     std::vector<ElementId>* out) {
  VoteBatchComparator* batch = model->AsVoteBatch();
  CROWDMAX_CHECK(batch != nullptr);
  const std::span<const ComparisonPair> all(pairs);
  const std::span<ElementId> votes(*out);
  for (size_t begin = 0; begin < pairs.size(); begin += kChunk) {
    const size_t count = std::min<size_t>(kChunk, pairs.size() - begin);
    const int64_t produced = batch->GenerateVotes(
        all.subspan(begin, count), votes.subspan(begin, count));
    CROWDMAX_CHECK(produced == static_cast<int64_t>(count));
  }
  // Bit-identity with the identically seeded per-call run: the contract
  // that makes the throughput comparable — same draws, same votes.
  CROWDMAX_CHECK(*out == reference);
}

ModelReport BenchModel(const std::string& model_name,
                       const ModelFactory& make_on,
                       const bench::TwoClassSetup& setup,
                       const std::vector<ComparisonPair>& pairs,
                       const bench::TwoClassSetup& filter_setup,
                       uint64_t seed) {
  ModelReport report;
  report.model = model_name;
  const auto make = [&](uint64_t model_seed) {
    return make_on(setup, model_seed);
  };

  // percall: virtual Compare on the bare model.
  std::vector<ElementId> percall_votes;
  report.rows.push_back(Measure("percall", pairs, [&](std::vector<ElementId>* out) {
    std::unique_ptr<Comparator> model = make(seed);
    for (size_t i = 0; i < pairs.size(); ++i) {
      (*out)[i] = model->Compare(pairs[i].first, pairs[i].second);
    }
    percall_votes = *out;
  }));

  // bulk-scalar: bulk draw layer pinned to the scalar kernels. The
  // in-row CHECK doubles as the scalar-backend bit-identity proof on the
  // bench workload.
  report.rows.push_back(Measure(
      "bulk-scalar", pairs, [&](std::vector<ElementId>* out) {
        SetRngBulkSimd(false);
        std::unique_ptr<Comparator> model = make(seed);
        RunChunkedBatch(model.get(), pairs, percall_votes, out);
        SetRngBulkSimd(true);
      }));

  // bulk: the default path — bulk draw layer on the best available
  // backend. Same in-row CHECK, now proving the SIMD backend (when
  // active) bit-identical on the bench workload.
  report.rows.push_back(Measure("bulk", pairs, [&](std::vector<ElementId>* out) {
    std::unique_ptr<Comparator> model = make(seed);
    RunChunkedBatch(model.get(), pairs, percall_votes, out);
  }));

  // The engine rows run the batch path through a RoundEngine. The
  // pipelined engine requires in-flight rounds to be pair-disjoint, so the
  // stream is deduplicated first and throughput is per executed pair; the
  // serial row runs the same stream so the two compare directly. The
  // TimingComparator splits each row into votegen (model) and dispatch
  // (engine, plus the executor stack on d8) time.
  std::vector<ComparisonPair> unique_pairs;
  unique_pairs.reserve(pairs.size());
  {
    std::unordered_set<uint64_t> seen;
    seen.reserve(pairs.size() * 2);
    for (const ComparisonPair& pair : pairs) {
      if (seen.insert(PackPairKey(pair.first, pair.second)).second) {
        unique_pairs.push_back(pair);
      }
    }
  }
  const auto measure_engine = [&](const std::string& name,
                                  const std::function<void(
                                      std::vector<ElementId>*, double*)>& run) {
    double votegen_seconds = 0.0;
    Row row = Measure(name, unique_pairs, [&](std::vector<ElementId>* out) {
      run(out, &votegen_seconds);
    });
    row.votegen_seconds = votegen_seconds;
    row.dispatch_seconds = row.seconds - votegen_seconds;
    report.rows.push_back(row);
  };

  // engine=d8: the pipelined engine at depth 8 (round submission,
  // in-flight cache reservation, engine-owned scratch reuse all on the
  // measured path). Self-check: every vote names one of its pair's
  // endpoints and the engine paid for exactly the deduplicated stream.
  measure_engine("engine=d8", [&](std::vector<ElementId>* out,
                                  double* votegen_seconds) {
    std::unique_ptr<Comparator> model = make(seed);
    TimingComparator timed(model.get());
    ComparatorBatchExecutor executor(&timed);
    AsyncBatchAdapter async(&executor);
    Result<std::unique_ptr<RoundEngine>> engine =
        RoundEngine::CreatePipelined(&async, /*max_in_flight=*/8,
                                     /*memoize=*/true);
    CROWDMAX_CHECK(engine.ok());
    PairStreamSource source(&unique_pairs, kChunk, out);
    Result<DriveResult> drive = (*engine)->Drive(&source);
    CROWDMAX_CHECK(drive.ok());
    CROWDMAX_CHECK((*engine)->paid() ==
                   static_cast<int64_t>(unique_pairs.size()));
    for (size_t i = 0; i < unique_pairs.size(); ++i) {
      CROWDMAX_CHECK((*out)[i] == unique_pairs[i].first ||
                     (*out)[i] == unique_pairs[i].second);
    }
    *votegen_seconds = timed.votegen_seconds();
  });

  // engine=serial: the serial memoized engine — every pair a miss through
  // the batch cache insert, then one GenerateVotes per round. Self-check:
  // the votes equal one bulk GenerateVotes over the whole stream on an
  // identically seeded model (chunking never changes the draw sequence).
  std::vector<ElementId> unique_reference(unique_pairs.size(), -1);
  {
    std::unique_ptr<Comparator> model = make(seed);
    CROWDMAX_CHECK(model->AsVoteBatch()->GenerateVotes(
                       unique_pairs, unique_reference) ==
                   static_cast<int64_t>(unique_pairs.size()));
  }
  measure_engine("engine=serial", [&](std::vector<ElementId>* out,
                                      double* votegen_seconds) {
    std::unique_ptr<Comparator> model = make(seed);
    TimingComparator timed(model.get());
    const std::unique_ptr<RoundEngine> engine =
        RoundEngine::CreateSerial(&timed, /*memoize=*/true);
    PairStreamSource source(&unique_pairs, kChunk, out);
    Result<DriveResult> drive = engine->Drive(&source);
    CROWDMAX_CHECK(drive.ok());
    CROWDMAX_CHECK(engine->paid() ==
                   static_cast<int64_t>(unique_pairs.size()));
    CROWDMAX_CHECK(*out == unique_reference);
    *votegen_seconds = timed.votegen_seconds();
  });

  // par=T: the parallel executor's forked batch path. Forks draw from
  // their own streams, so no vote equality with the serial rows — the
  // self-check is the vote validity contract.
  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    report.rows.push_back(Measure(
        "par=" + std::to_string(threads), pairs,
        [&](std::vector<ElementId>* /*out*/) {
          std::unique_ptr<Comparator> model = make(seed);
          Result<std::unique_ptr<ParallelBatchExecutor>> executor =
              ParallelBatchExecutor::Create(model.get(), threads,
                                            /*seed=*/seed + 17,
                                            /*chunk_size=*/kChunk);
          CROWDMAX_CHECK(executor.ok());
          Result<std::vector<BatchTaskResult>> results =
              (*executor)->TryExecuteBatch(pairs);
          CROWDMAX_CHECK(results.ok() && results->size() == pairs.size());
        }));
  }

  // filter: Phase 1 on its own, larger instance, three passes on fresh,
  // identically seeded models (each pass issues the same pairs). Self-check:
  // every pass buys the same pairs, at most Lemma 3's 4 * n * u_n.
  {
    constexpr int kPasses = 3;
    const std::vector<ElementId> items = filter_setup.instance.AllElements();
    FilterOptions options;
    options.u_n = filter_setup.u_n;
    options.memoize = true;
    int64_t issued = 0;
    int64_t paid = -1;
    double votegen_seconds = 0.0;
    const auto begin = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      std::unique_ptr<Comparator> model = make_on(filter_setup, seed);
      TimingComparator timed(model.get());
      Result<FilterResult> result = FilterCandidates(items, options, &timed);
      CROWDMAX_CHECK(result.ok());
      CROWDMAX_CHECK(paid < 0 || result->paid_comparisons == paid);
      paid = result->paid_comparisons;
      CROWDMAX_CHECK(paid <= FilterComparisonUpperBound(
                                 filter_setup.instance.size(), options.u_n));
      issued += result->issued_comparisons;
      votegen_seconds += timed.votegen_seconds();
    }
    Row row;
    row.name = "filter";
    row.seconds = Seconds(begin, std::chrono::steady_clock::now());
    row.comparisons_per_sec =
        row.seconds > 0.0 ? static_cast<double>(issued) / row.seconds : 0.0;
    row.votegen_seconds = votegen_seconds;
    row.dispatch_seconds = row.seconds - votegen_seconds;
    report.rows.push_back(row);
  }
  return report;
}

const Row* FindRow(const ModelReport& report, const std::string& name) {
  for (const Row& row : report.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

// ---- --check: regression gate against the committed JSON ---------------
//
// The committed BENCH_hotpath.json is written by this binary, so a
// minimal line scan recovers (model, path) -> comparisons_per_sec without
// a JSON library: model lines carry "model": "<name>", row lines carry
// "path": "<name>" and "comparisons_per_sec": <value>, and the numerator
// row of a ratio gate "per_<denominator>": <ratio>, keyed
// "<model>/<path>/per_<denominator>".

bool ParseBaseline(
    const std::string& path,
    std::vector<std::pair<std::string, double>>* rows_out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  std::string model;
  auto quoted_value = [](const std::string& text, const std::string& key,
                         std::string* value) {
    const std::string needle = "\"" + key + "\": \"";
    const size_t at = text.find(needle);
    if (at == std::string::npos) return false;
    const size_t begin = at + needle.size();
    const size_t end = text.find('"', begin);
    if (end == std::string::npos) return false;
    *value = text.substr(begin, end - begin);
    return true;
  };
  while (std::getline(in, line)) {
    std::string value;
    if (quoted_value(line, "model", &value)) model = value;
    if (!quoted_value(line, "path", &value)) continue;
    const std::string key = "\"comparisons_per_sec\": ";
    const size_t at = line.find(key);
    if (at == std::string::npos) continue;
    rows_out->emplace_back(model + "/" + value,
                           std::strtod(line.c_str() + at + key.size(),
                                       nullptr));
    for (size_t per = line.find("\"per_"); per != std::string::npos;
         per = line.find("\"per_", per + 1)) {
      const size_t end = line.find("\": ", per + 1);
      if (end == std::string::npos) break;
      rows_out->emplace_back(model + "/" + value + "/" +
                                 line.substr(per + 1, end - per - 1),
                             std::strtod(line.c_str() + end + 3, nullptr));
    }
  }
  return !rows_out->empty();
}

// Serial deterministic rows only: the pipelined engine and par= rows
// depend on thread scheduling and pipeline timing, too noisy for a hard
// gate.
bool IsCheckedRow(const std::string& name) {
  return name == "percall" || name == "bulk-scalar" || name == "bulk" ||
         name == "engine=serial" || name == "filter";
}

// Ratio gates, checked beside the absolute floors and never in place of
// them. Two rows measured seconds apart in one process share the
// machine's speed, so their ratio cancels the drift of a shared VM that
// an absolute floor absorbs; each is gated against the ratio the
// committed file recorded on its numerator row ("per_<denominator>",
// measured in one run), or else against the ratio of the same two rows
// there. A row added to the file later than its denominator carries the
// recorded one: the two rows' own values would mix two machine speeds.
struct RatioGate {
  const char* numerator;
  const char* denominator;
};

constexpr RatioGate kRatioGates[] = {
    {"bulk", "percall"},
    {"engine=serial", "bulk"},
    {"par=8", "par=1"},
    {"filter", "bulk"},
    {"engine=d8", "engine=serial"},
};

int RunCheck(const std::vector<ModelReport>& reports,
             const std::string& baseline_path, double tolerance) {
  std::vector<std::pair<std::string, double>> baseline;
  if (!ParseBaseline(baseline_path, &baseline)) {
    std::cerr << "check: cannot read baseline " << baseline_path << "\n";
    return 1;
  }
  auto committed = [&baseline](const std::string& key) -> double {
    for (const auto& [name, cps] : baseline) {
      if (name == key) return cps;
    }
    return -1.0;
  };
  TablePrinter table({"row", "committed Mcmp/s", "measured Mcmp/s", "ratio",
                      "verdict"});
  int regressions = 0;
  for (const ModelReport& report : reports) {
    for (const Row& row : report.rows) {
      if (!IsCheckedRow(row.name)) continue;
      const std::string key = report.model + "/" + row.name;
      const double want = committed(key);
      if (want <= 0.0) continue;  // Row absent from the committed file.
      const double ratio = row.comparisons_per_sec / want;
      const bool ok = ratio >= tolerance;
      if (!ok) ++regressions;
      table.AddRow({key, FormatDouble(want / 1e6, 2),
                    FormatDouble(row.comparisons_per_sec / 1e6, 2),
                    FormatDouble(ratio, 2), ok ? "ok" : "REGRESSED"});
    }
  }
  table.Print(std::cout);

  TablePrinter ratios({"ratio", "committed", "measured", "measured/committed",
                       "verdict"});
  for (const ModelReport& report : reports) {
    for (const RatioGate& gate : kRatioGates) {
      const Row* numerator = FindRow(report, gate.numerator);
      const Row* denominator = FindRow(report, gate.denominator);
      const double want_numerator =
          committed(report.model + "/" + gate.numerator);
      const double want_denominator =
          committed(report.model + "/" + gate.denominator);
      const double recorded = committed(report.model + "/" + gate.numerator +
                                        "/per_" + gate.denominator);
      if (numerator == nullptr || denominator == nullptr ||
          denominator->comparisons_per_sec <= 0.0 ||
          (recorded <= 0.0 &&
           (want_numerator <= 0.0 || want_denominator <= 0.0))) {
        continue;  // A row absent from the run or the committed file.
      }
      const double want =
          recorded > 0.0 ? recorded : want_numerator / want_denominator;
      const double got =
          numerator->comparisons_per_sec / denominator->comparisons_per_sec;
      const bool ok = got >= tolerance * want;
      if (!ok) ++regressions;
      ratios.AddRow({report.model + "/" + gate.numerator + " / " +
                         gate.denominator,
                     FormatDouble(want, 3), FormatDouble(got, 3),
                     FormatDouble(got / want, 2), ok ? "ok" : "REGRESSED"});
    }
  }
  ratios.Print(std::cout);

  if (regressions > 0) {
    std::cerr << "check: " << regressions << " row(s) or ratio(s) below "
              << tolerance << "x the committed value in " << baseline_path
              << "\n";
    return 1;
  }
  std::cout << "check: OK (all rows and ratios within tolerance " << tolerance
            << " of " << baseline_path << ")\n";
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 1;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const bool check = flags.GetBool("check", false);
  const int64_t n_pairs =
      smoke ? 100000 : flags.GetBoundedInt("pairs", 2000000, 1, 100000000);
  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");

  if (check && std::getenv("CROWDMAX_BENCH_CHECK") == nullptr) {
    // Opt-in gate: the CI entry always exists, but only costs (and only
    // enforces) when the environment asks for it.
    std::cout << "check: skipped (set CROWDMAX_BENCH_CHECK=1 to run the "
                 "throughput regression gate)\n";
    return 0;
  }

  bench::PrintHeader("BENCH_hotpath",
                     "batch vote generation throughput (comparisons/sec)");
  std::cout << "rng bulk backend: " << RngBulkBackend() << "\n";

  // Miss-dominated workload: n large enough that the pair stream is
  // mostly distinct, with a threshold placed so both regimes (decided and
  // coin-flip pairs) occur.
  const int64_t n_elements = 4096;
  bench::TwoClassSetup setup =
      bench::MakeTwoClassSetup(n_elements, /*u_n_target=*/64,
                               /*u_e_target=*/8, /*seed=*/2024);
  const std::vector<ComparisonPair> pairs =
      RandomPairs(n_elements, n_pairs, /*seed=*/7);
  // The filter row's Phase-1 instance: the sweep's largest grid cell
  // (smaller in the smoke run, which only checks the row runs).
  const bench::TwoClassSetup filter_setup = bench::MakeTwoClassSetup(
      smoke ? 2000 : 20000, /*u_n_target=*/50, /*u_e_target=*/10,
      /*seed=*/2025);

  using Setup = bench::TwoClassSetup;
  // Built from one initializer list: GCC 12 reports a false -Warray-bounds
  // on emplace_back of a (string, std::function) pair into an empty vector.
  const std::vector<std::pair<std::string, ModelFactory>> models = {
      {"threshold",
       [](const Setup& on, uint64_t seed) -> std::unique_ptr<Comparator> {
         ThresholdComparator::Options options;
         options.model = ThresholdModel{on.delta_n, 0.15};
         return std::make_unique<ThresholdComparator>(&on.instance, options,
                                                      seed);
       }},
      {"relative_error",
       [](const Setup& on, uint64_t seed) -> std::unique_ptr<Comparator> {
         return std::make_unique<RelativeErrorComparator>(
             &on.instance, RelativeErrorComparator::Options{}, seed);
       }},
      {"distance_decay",
       [](const Setup& on, uint64_t seed) -> std::unique_ptr<Comparator> {
         DistanceDecayComparator::Options options;
         options.delta = on.delta_n;
         options.epsilon_at_threshold = 0.25;
         options.decay = 3.0 / on.delta_n;
         return std::make_unique<DistanceDecayComparator>(&on.instance,
                                                          options, seed);
       }},
      {"persistent_bias",
       [](const Setup& on, uint64_t seed) -> std::unique_ptr<Comparator> {
         PersistentBiasComparator::Options options;
         options.buckets = {{0.10, 0.60}, {0.20, 0.70}};
         options.individual_noise = 0.28;
         options.above_threshold_error = 0.15;
         return std::make_unique<PersistentBiasComparator>(&on.instance,
                                                           options, seed);
       }},
  };

  std::vector<ModelReport> reports;
  for (const auto& [name, factory] : models) {
    reports.push_back(BenchModel(name, factory, setup, pairs, filter_setup,
                                 /*seed=*/90210));
  }

  TablePrinter table({"model", "path", "Mcmp/s"});
  for (const ModelReport& report : reports) {
    for (const Row& row : report.rows) {
      table.AddRow({report.model, row.name,
                    FormatDouble(row.comparisons_per_sec / 1e6, 2)});
    }
  }
  bench::EmitTable(table, flags, "Vote-generation throughput (" +
                                     std::to_string(n_pairs) + " pairs/row)");

  // Engine per-stage split: where the gap between the bare batch path and
  // the engine-driven paths actually goes.
  for (const ModelReport& report : reports) {
    for (const Row& row : report.rows) {
      if (row.votegen_seconds < 0.0 || row.seconds <= 0.0) continue;
      std::cout << row.name << " " << report.model << ": votegen "
                << FormatDouble(row.votegen_seconds, 3) << "s, dispatch "
                << FormatDouble(row.dispatch_seconds, 3) << "s ("
                << FormatDouble(100.0 * row.dispatch_seconds / row.seconds, 1)
                << "% overhead)\n";
    }
  }

  if (check) {
    const std::string baseline =
        flags.GetString("baseline", "BENCH_hotpath.json");
    const double tolerance = flags.GetDouble("check_tolerance", 0.6);
    return RunCheck(reports, baseline, tolerance);
  }

  if (smoke) {
    // CI smoke contract: every serial chunked row re-verified
    // bit-identical to its per-call twin on both backends (checked inside
    // RunChunkedBatch) and the serial engine row to one bulk call. Speed
    // is judged only by --check, in an optimized build.
    std::cout << "smoke: OK (bulk-scalar/bulk bit-identical to per-call, "
                 "engine=serial to one bulk call, for "
              << reports.size() << " models)\n";
    return 0;
  }

  std::ofstream out(out_path);
  CROWDMAX_CHECK(out.good());
  out << "{\n  \"bench\": \"hotpath\",\n  \"pairs_per_row\": " << n_pairs
      << ",\n  \"n_elements\": " << n_elements << ",\n  \"rng_backend\": \""
      << RngBulkBackend() << "\",\n  \"models\": [\n";
  for (size_t m = 0; m < reports.size(); ++m) {
    out << "    {\"model\": \"" << reports[m].model << "\", \"rows\": [\n";
    for (size_t r = 0; r < reports[m].rows.size(); ++r) {
      const Row& row = reports[m].rows[r];
      out << "      {\"path\": \"" << row.name << "\", \"seconds\": "
          << row.seconds << ", \"comparisons_per_sec\": "
          << row.comparisons_per_sec;
      if (row.votegen_seconds >= 0.0) {
        out << ", \"votegen_seconds\": " << row.votegen_seconds
            << ", \"dispatch_seconds\": " << row.dispatch_seconds;
      }
      for (const RatioGate& gate : kRatioGates) {
        const Row* denominator = FindRow(reports[m], gate.denominator);
        if (row.name != gate.numerator || denominator == nullptr ||
            denominator->comparisons_per_sec <= 0.0) {
          continue;
        }
        out << ", \"per_" << gate.denominator << "\": "
            << row.comparisons_per_sec / denominator->comparisons_per_sec;
      }
      out << "}" << (r + 1 < reports[m].rows.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace crowdmax

int main(int argc, char** argv) { return crowdmax::Main(argc, argv); }

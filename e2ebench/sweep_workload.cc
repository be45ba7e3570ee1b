// `sweep` and `sweep_parallel`: Algorithm 1 (FindMaxWithExperts, 2-MaxFind
// in phase 2, Appendix-A memoization on) over the paper's Section-5
// simulation grid, one caller running queries back to back.
//
// The traced run wraps both worker classes in TimedComparator, a
// Comparator decorator that times every call into the worker model from
// outside the library. It forwards the batch vote interface and Fork, and
// charges every vote it forwards to its own counter, so the engine sees
// the same paid counts, the same batch path and the same fork seeds as in
// the untraced run; the benchmark checks that the answers match exactly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/comparator.h"
#include "core/cost.h"
#include "core/expert_max.h"
#include "core/instance.h"
#include "core/worker_model.h"
#include "datasets/instances.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {
namespace {

using crowdmax::Comparator;
using crowdmax::ComparisonPair;
using crowdmax::ComparisonStats;
using crowdmax::ElementId;
using crowdmax::Instance;

// The grid: every n crossed with both (u_n, u_e) targets. Cells get
// instances in inverse proportion to n, so each n takes a similar share
// of a pass's time while the small cells add many answers to mean_rank.
constexpr int64_t kSizes[] = {1000, 2000, 5000, 10000, 20000};
constexpr std::pair<int64_t, int64_t> kTargets[] = {{10, 5}, {50, 10}};
constexpr int64_t kElementsPerCell = 20000;
// Distinct passes: each has its own instances and worker seeds; later
// passes repeat them in order.
constexpr int64_t kInputPasses = 20;
// A run makes at least this many passes; the answer metrics (cost, steps,
// rank) are taken over exactly these, so they depend on the seed alone.
constexpr int64_t kQualityPasses = 8;
// The latency tail is taken in windows of this many passes (370 queries,
// so always p95) and the median over the run's whole windows is reported:
// the percentile does not change with the number of passes a machine or a
// program manages in --seconds.
constexpr int64_t kTailWindowPasses = 5;
const crowdmax::CostModel kPrices{1.0, 20.0};

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One query of the grid: uniform values with thresholds realizing the
/// cell's (u_n, u_e) targets, and the seeds of both worker classes.
struct SweepInput {
  explicit SweepInput(Instance inst) : instance(std::move(inst)) {}

  Instance instance;
  std::vector<ElementId> items;
  int64_t cell = 0;
  double delta_n = 0.0;
  double delta_e = 0.0;
  int64_t u_n = 0;
  ElementId max_element = -1;
  uint64_t naive_seed = 0;
  uint64_t expert_seed = 0;
};

/// Everything a run feeds the library, generated from the seed alone.
struct SweepInputs {
  std::vector<std::string> cell_names;
  /// kInputPasses grid passes; pass p runs passes[p % kInputPasses].
  std::vector<std::vector<SweepInput>> passes;
};

SweepInputs MakeInputs(uint64_t seed) {
  SweepInputs inputs;
  for (int64_t n : kSizes) {
    for (const auto& target : kTargets) {
      inputs.cell_names.push_back(Cat("n=", n, "/u_n=", target.first));
    }
  }
  uint64_t stream = Mix(seed ^ 0x5EEDULL);
  inputs.passes.resize(kInputPasses);
  for (std::vector<SweepInput>& pass : inputs.passes) {
    int64_t cell = 0;
    for (int64_t n : kSizes) {
      for (const auto& [u_n_target, u_e_target] : kTargets) {
        for (int64_t rep = 0; rep < kElementsPerCell / n; ++rep) {
          stream = Mix(stream);
          crowdmax::Result<Instance> instance =
              crowdmax::UniformInstance(n, stream);
          CROWDMAX_CHECK(instance.ok());
          SweepInput& in = pass.emplace_back(std::move(instance).value());
          in.items = in.instance.AllElements();
          in.cell = cell;
          in.delta_n = in.instance.DeltaForU(u_n_target);
          in.delta_e = in.instance.DeltaForU(u_e_target);
          in.u_n = in.instance.CountWithin(in.delta_n);
          in.max_element = in.instance.MaxElement();
          in.naive_seed = Mix(stream + 1);
          in.expert_seed = Mix(stream + 2);
        }
        ++cell;
      }
    }
  }
  return inputs;
}

/// Tallies of the traced run, shared by a decorator and all its forks
/// (forks vote on pool threads, hence the atomics).
struct LayerTally {
  SpanRecorder* spans = nullptr;
  /// Query and query-span ids of the query in flight; written before the
  /// call that spawns pool work, read by forks during it.
  std::atomic<int64_t> query{-1};
  std::atomic<int64_t> query_span{-1};
  std::atomic<int64_t> votes{0};
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> busy_ns{0};
  std::atomic<int64_t> forks{0};
  std::atomic<int64_t> fork_ns{0};
};

void RecordSpan(LayerTally* tally, const char* name, int64_t id,
                int64_t parent, int64_t start_ns, int64_t end_ns,
                int64_t value) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.query = tally->query.load(std::memory_order_relaxed);
  span.name = name;
  span.start_s = static_cast<double>(start_ns) * 1e-9;
  span.end_s = static_cast<double>(end_ns) * 1e-9;
  span.thread = ThreadIndex();
  span.value = value;
  tally->spans->Record(span);
}

void RecordLayerSpan(LayerTally* tally, const char* name, int64_t start_ns,
                     int64_t end_ns, int64_t value) {
  RecordSpan(tally, name, tally->spans->NextId(),
             tally->query_span.load(std::memory_order_relaxed), start_ns,
             end_ns, value);
}

/// Times every call into the wrapped worker model. Forwards AsVoteBatch
/// and Fork (forks are wrapped too) and charges forwarded votes to its own
/// counter, which is what the engine reads as paid.
class TimedComparator final : public Comparator,
                              public crowdmax::VoteBatchComparator {
 public:
  TimedComparator(Comparator* inner, const char* label, LayerTally* tally)
      : inner_(inner),
        batch_(inner->AsVoteBatch()),
        label_(label),
        tally_(tally) {}

  TimedComparator(std::unique_ptr<Comparator> owned, const char* label,
                  LayerTally* tally)
      : TimedComparator(owned.get(), label, tally) {
    owned_ = std::move(owned);
  }

  std::unique_ptr<Comparator> Fork(uint64_t seed) const override {
    const int64_t start = NowNanos();
    std::unique_ptr<Comparator> child = inner_->Fork(seed);
    const int64_t end = NowNanos();
    tally_->forks.fetch_add(1, std::memory_order_relaxed);
    tally_->fork_ns.fetch_add(end - start, std::memory_order_relaxed);
    RecordLayerSpan(tally_, "fork", start, end, -1);
    if (child == nullptr) return nullptr;
    return std::make_unique<TimedComparator>(std::move(child), label_, tally_);
  }

  crowdmax::VoteBatchComparator* AsVoteBatch() override {
    return batch_ != nullptr ? this : nullptr;
  }

  int64_t GenerateVotes(std::span<const ComparisonPair> pairs,
                        std::span<ElementId> out) override {
    const int64_t start = NowNanos();
    const int64_t answered = batch_->GenerateVotes(pairs, out);
    const int64_t end = NowNanos();
    AddComparisons(answered);
    Tally(start, end, answered);
    RecordLayerSpan(tally_, label_, start, end, answered);
    return answered;
  }

 private:
  // Per-call votes are timed but get no span of their own: a span per
  // comparison would cost more than the comparison.
  ElementId DoCompare(ElementId a, ElementId b) override {
    const int64_t start = NowNanos();
    const ElementId winner = inner_->Compare(a, b);
    Tally(start, NowNanos(), 1);
    return winner;
  }

  void Tally(int64_t start, int64_t end, int64_t votes) {
    tally_->votes.fetch_add(votes, std::memory_order_relaxed);
    tally_->calls.fetch_add(1, std::memory_order_relaxed);
    tally_->busy_ns.fetch_add(end - start, std::memory_order_relaxed);
  }

  std::unique_ptr<Comparator> owned_;
  Comparator* inner_;
  crowdmax::VoteBatchComparator* batch_;
  const char* label_;
  LayerTally* tally_;
};

/// What one query returned; the traced run must reproduce it exactly.
struct Outcome {
  bool ok = false;
  std::string error;
  ElementId best = -1;
  std::vector<ElementId> candidates;
  ComparisonStats paid;
  ComparisonStats issued;
  int64_t filter_rounds = 0;
  int64_t phase2_rounds = 0;

  bool operator==(const Outcome& o) const {
    return ok == o.ok && error == o.error && best == o.best &&
           candidates == o.candidates && paid.naive == o.paid.naive &&
           paid.expert == o.paid.expert && issued.naive == o.issued.naive &&
           issued.expert == o.issued.expert &&
           filter_rounds == o.filter_rounds &&
           phase2_rounds == o.phase2_rounds;
  }
};

/// Runs one query; returns the call's duration in seconds. With `tally`
/// set, both worker classes vote through TimedComparator and the query
/// gets a root span.
double RunQuery(const SweepInput& in, int64_t threads, int64_t query_id,
                LayerTally* tally, Outcome* out) {
  crowdmax::ThresholdComparator naive(
      &in.instance, crowdmax::ThresholdModel{in.delta_n, 0.0}, in.naive_seed);
  crowdmax::ThresholdComparator expert(
      &in.instance, crowdmax::ThresholdModel{in.delta_e, 0.0},
      in.expert_seed);
  std::unique_ptr<TimedComparator> timed_naive;
  std::unique_ptr<TimedComparator> timed_expert;
  Comparator* naive_top = &naive;
  Comparator* expert_top = &expert;
  int64_t span_id = -1;
  if (tally != nullptr) {
    timed_naive =
        std::make_unique<TimedComparator>(&naive, "naive_votes", tally);
    timed_expert =
        std::make_unique<TimedComparator>(&expert, "expert_votes", tally);
    naive_top = timed_naive.get();
    expert_top = timed_expert.get();
    span_id = tally->spans->NextId();
    tally->query.store(query_id, std::memory_order_relaxed);
    tally->query_span.store(span_id, std::memory_order_relaxed);
  }

  crowdmax::ExpertMaxOptions options;
  options.filter.u_n = in.u_n;
  options.filter.memoize = true;
  options.filter.threads = threads;

  const int64_t start = NowNanos();
  crowdmax::Result<crowdmax::ExpertMaxResult> result =
      crowdmax::FindMaxWithExperts(in.items, naive_top, expert_top, options);
  const int64_t end = NowNanos();
  if (tally != nullptr) {
    RecordSpan(tally, "query", span_id, -1, start, end, in.instance.size());
  }

  *out = Outcome{};
  out->ok = result.ok();
  if (!result.ok()) {
    out->error = result.status().ToString();
  } else {
    out->best = result->best;
    out->candidates = result->candidates;
    std::sort(out->candidates.begin(), out->candidates.end());
    out->paid = result->paid;
    out->issued = result->issued;
    out->filter_rounds = result->filter_rounds;
    out->phase2_rounds = result->phase2_rounds;
  }
  return static_cast<double>(end - start) * 1e-9;
}

/// The correctness gate of one sweep query: Lemmas 1-3 and Theorem 1.
void CheckQuery(const SweepInput& in, const Outcome& out,
                const std::string& where, Report* report) {
  report->CountCheck(4);
  if (!out.ok) {
    report->Violation(where + "failed: " + out.error);
    return;
  }
  if (!std::binary_search(out.candidates.begin(), out.candidates.end(),
                          in.max_element)) {
    report->Violation(where + "Lemma 1: the maximum is not a candidate");
  }
  const int64_t n = in.instance.size();
  if (n >= 2 * in.u_n &&
      static_cast<int64_t>(out.candidates.size()) > 2 * in.u_n - 1) {
    report->Violation(Cat(where, "Lemma 2: ", out.candidates.size(),
                          " candidates > 2u_n - 1"));
  }
  if (out.paid.naive > 4 * n * in.u_n) {
    report->Violation(
        Cat(where, "Lemma 3: naive paid ", out.paid.naive, " > 4 n u_n"));
  }
  if (in.instance.Distance(in.max_element, out.best) > 2.0 * in.delta_e) {
    report->Violation(where + "Theorem 1: d(M, best) > 2 delta_e");
  }
}

struct Pass {
  std::vector<Outcome> outcomes;
  std::vector<double> durations;
  double wall_s = 0.0;
};

const std::vector<SweepInput>& PassInputs(const SweepInputs& inputs,
                                          int64_t pass_index) {
  return inputs.passes[static_cast<size_t>(pass_index % kInputPasses)];
}

Pass RunPass(const SweepInputs& inputs, int64_t pass_index, int64_t threads,
             LayerTally* tally, int64_t first_query_id) {
  const std::vector<SweepInput>& queries = PassInputs(inputs, pass_index);
  Pass pass;
  pass.outcomes.resize(queries.size());
  pass.durations.resize(queries.size());
  const double start = NowSeconds();
  for (size_t i = 0; i < queries.size(); ++i) {
    pass.durations[i] =
        RunQuery(queries[i], threads, first_query_id + static_cast<int64_t>(i),
                 tally, &pass.outcomes[i]);
  }
  pass.wall_s = NowSeconds() - start;
  return pass;
}

/// Checks every answer of a pass; returns the number of failed queries.
int64_t CheckPass(const SweepInputs& inputs, const Pass& pass,
                  int64_t pass_index, Report* report) {
  const std::vector<SweepInput>& queries = PassInputs(inputs, pass_index);
  int64_t failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const SweepInput& in = queries[i];
    CheckQuery(in, pass.outcomes[i],
               Cat("pass ", pass_index, " query ", i, " (",
                   inputs.cell_names[static_cast<size_t>(in.cell)], "): "),
               report);
    failed += pass.outcomes[i].ok ? 0 : 1;
  }
  return failed;
}

}  // namespace

Metrics RunSweep(const RunArgs& args, int64_t threads, Report* report) {
  // Set-up: input generation plus a warm-up query per small cell
  // (allocator, page faults, instruction cache), repeated; the median is
  // setup_s.
  std::vector<double> setups;
  SweepInputs inputs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    inputs = SweepInputs{};  // Freeing the last set-up's inputs is not set-up.
    const double start = NowSeconds();
    inputs = MakeInputs(args.seed);
    Outcome warm;
    int64_t last_cell = -1;
    for (const SweepInput& in : inputs.passes[0]) {
      if (in.instance.size() > 2000 || in.cell == last_cell) continue;
      last_cell = in.cell;
      RunQuery(in, threads, -1, nullptr, &warm);
    }
    setups.push_back(NowSeconds() - start);
  }
  const int64_t per_pass = static_cast<int64_t>(inputs.passes[0].size());

  report->Context("client_threads", "1 (closed loop)");
  report->Context("engine_threads", std::to_string(threads));
  report->Context("grid", Cat("n in {1000,2000,5000,10000,20000} x (u_n,u_e) "
                              "in {(10,5),(50,10)}, 20000/n instances per "
                              "cell = ",
                              per_pass, " queries per pass, ", kInputPasses,
                              " distinct passes"));

  Metrics metrics;
  int64_t failed = 0;
  int64_t attempted = 0;
  const double deadline = NowSeconds() + args.seconds;

  if (!args.trace) {
    std::vector<double> durations;
    std::vector<std::vector<double>> cell_ms(inputs.cell_names.size());
    std::vector<double> pass_walls;
    double cost = 0.0;
    double steps = 0.0;
    double rank = 0.0;
    int64_t quality_failed = 0;
    int64_t pass_index = 0;
    for (; pass_index < kQualityPasses || NowSeconds() < deadline;
         ++pass_index) {
      const std::vector<SweepInput>& queries = PassInputs(inputs, pass_index);
      Pass pass = RunPass(inputs, pass_index, threads, nullptr, 0);
      pass_walls.push_back(pass.wall_s);
      for (size_t i = 0; i < queries.size(); ++i) {
        const double ms = pass.durations[i] * 1e3;
        durations.push_back(ms);
        cell_ms[static_cast<size_t>(queries[i].cell)].push_back(ms);
      }
      attempted += per_pass;
      const int64_t pass_failed = CheckPass(inputs, pass, pass_index, report);
      failed += pass_failed;
      if (pass_index >= kQualityPasses) continue;
      quality_failed += pass_failed;
      for (size_t i = 0; i < queries.size(); ++i) {
        const Outcome& o = pass.outcomes[i];
        if (!o.ok) continue;
        cost += kPrices.Cost(o.paid.naive, o.paid.expert);
        steps += static_cast<double>(o.filter_rounds + o.phase2_rounds);
        rank += static_cast<double>(queries[i].instance.Rank(o.best));
      }
    }
    const int64_t windows = pass_index / kTailWindowPasses;
    const Tail tail = TailOf(
        std::vector<double>(durations.begin(),
                            durations.begin() +
                                windows * kTailWindowPasses * per_pass),
        windows);
    const double quality_queries =
        static_cast<double>(kQualityPasses * per_pass);
    const double completed =
        quality_queries - static_cast<double>(quality_failed);
    // Over the median pass, so a few seconds of a slow machine move one
    // pass, not the result.
    metrics["queries_per_s"] =
        static_cast<double>(per_pass) / Median(pass_walls);
    metrics["latency_p50_ms"] = Median(durations);
    metrics["latency_tail_ms"] = tail.value;
    metrics["setup_s"] = Median(setups);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["crowd_cost_per_query"] = cost / completed;
    metrics["crowd_steps_per_query"] = steps / completed;
    metrics["mean_rank"] = rank / completed;
    metrics["ok_share"] = completed / quality_queries;
    report->Context("passes", Cat(pass_index, " (answer metrics over the "
                                  "first ",
                                  kQualityPasses, ")"));
    report->Context("latency_tail", Describe(tail));
    std::string walls;
    for (double w : pass_walls) {
      walls += Cat(walls.empty() ? "" : " ", Fixed(w, 3));
    }
    report->Context("pass_wall_s", walls);
    std::string cells;
    for (size_t c = 0; c < cell_ms.size(); ++c) {
      cells += Cat(c == 0 ? "" : ", ", inputs.cell_names[c], " ",
                   Fixed(Median(cell_ms[c]), 2));
    }
    report->Context("cell_p50_ms", cells);
    report->Context("failed_share",
                    Fixed(static_cast<double>(failed) /
                              static_cast<double>(attempted),
                          6));
    report->SetAttempted(attempted, failed);
    return metrics;
  }

  // Traced run: untraced and traced passes alternate, with the same seeds
  // in each pair, until time is up; every traced pass must reproduce its
  // untraced twin exactly.
  SpanRecorder spans;
  LayerTally tally;
  tally.spans = &spans;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double traced_query_s = 0.0;
  double issued = 0.0;
  double paid = 0.0;
  double rounds = 0.0;
  int64_t pass_index = 0;
  do {
    Pass reference = RunPass(inputs, pass_index, threads, nullptr, 0);
    failed += CheckPass(inputs, reference, pass_index, report);
    Pass traced = RunPass(inputs, pass_index, threads, &tally,
                          pass_index * per_pass);
    for (int64_t i = 0; i < per_pass; ++i) {
      const Outcome& o = traced.outcomes[static_cast<size_t>(i)];
      report->CountCheck();
      if (!(o == reference.outcomes[static_cast<size_t>(i)])) {
        report->Violation(Cat("traced pass ", pass_index, " query ", i,
                              " differs from the untraced run"));
      }
      issued += static_cast<double>(o.issued.naive + o.issued.expert);
      paid += static_cast<double>(o.paid.naive + o.paid.expert);
      rounds += static_cast<double>(o.filter_rounds + o.phase2_rounds);
      traced_query_s += traced.durations[static_cast<size_t>(i)];
    }
    untraced_s += reference.wall_s;
    traced_s += traced.wall_s;
    attempted += per_pass;
    ++pass_index;
  } while (NowSeconds() < deadline);

  const double q = static_cast<double>(attempted);
  const double busy_s = static_cast<double>(tally.busy_ns.load()) * 1e-9;
  const double self_s = traced_query_s - busy_s;
  metrics["worker_model.busy_s"] = busy_s / q;
  metrics["worker_model.votes"] = static_cast<double>(tally.votes.load()) / q;
  metrics["worker_model.votes_per_call"] =
      static_cast<double>(tally.votes.load()) /
      static_cast<double>(std::max<int64_t>(1, tally.calls.load()));
  metrics["worker_model.share"] = busy_s / traced_query_s;
  metrics["round_engine.self_s"] = self_s / q;
  metrics["round_engine.ns_per_pair"] = self_s * 1e9 / issued;
  metrics["round_engine.issued"] = issued / q;
  metrics["round_engine.paid"] = paid / q;
  metrics["round_engine.cache_hit_ratio"] = 1.0 - paid / issued;
  metrics["round_engine.rounds"] = rounds / q;
  metrics["round_engine.pairs_per_round"] = issued / rounds;
  metrics["thread_pool.forks"] = static_cast<double>(tally.forks.load()) / q;
  metrics["thread_pool.fork_s"] =
      static_cast<double>(tally.fork_ns.load()) * 1e-9 / q;
  metrics["thread_pool.utilization"] =
      threads > 0 ? busy_s / (static_cast<double>(threads) * traced_query_s)
                  : 0.0;
  metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0;

  report->Context("traced_passes", std::to_string(pass_index));
  report->Context("spans", std::to_string(spans.size()));
  if (!args.trace_path.empty()) {
    if (spans.WriteChromeJson(args.trace_path)) {
      report->Context("trace_file", args.trace_path);
    } else {
      report->Violation("cannot write trace file " + args.trace_path);
    }
  }
  report->SetAttempted(attempted, failed);
  return metrics;
}

}  // namespace e2e

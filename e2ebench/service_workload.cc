// `service_cpu` and `service_crowd`: independent tenants sending MAX,
// TOP-K and ABOVE queries to QueryService, one QueryService per client
// thread and one Run({spec}) per query.
//
// Phase 1 is a closed loop (each client sends its next query when the
// last one returns) over every spec at least once: it measures throughput
// and gives the answer metrics (cost, steps, rank, ok_share), taken over
// each spec's first send so they depend on the seed alone. Phase 2 is an
// open loop: the first specs are due on a seeded Poisson schedule at a
// fixed rate, a free client sends the next due query, and latency runs
// from the due time to completion, so a stall also delays the queries
// behind it.
//
// The traced run times the same traffic from outside the service (queue
// wait, Run call, the service's own execution time), turns on the
// service's per-query traces (collect_traces, audited with
// AuditServiceRun) and the metrics registry, and checks that every query
// reproduces the untraced run's outcome exactly.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/instance.h"
#include "core/trace.h"
#include "datasets/instances.h"
#include "query/service.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {
namespace {

using crowdmax::ElementId;
using crowdmax::Instance;
using crowdmax::QueryKind;
using crowdmax::QueryOutcome;
using crowdmax::QuerySpec;
using crowdmax::StatusCode;

constexpr int kClients = 3;
// Instances per shard size. Many small instances, not one per size, so
// the latency tail and the answer metrics do not hinge on a single
// random instance.
constexpr int64_t kInstancesPerSize = 64;
// Share of --seconds the closed loop runs at least (it also runs until
// every spec was sent once); the open loop gets the rest.
constexpr double kClosedShare = 0.4;
// latency_tail_ms is the median of the tail over consecutive windows of
// the open loop of at least this many queries each, so the tail is p95 in
// each window: p99 would need 1000, and over a few thousand queries it
// follows the multi-millisecond stalls of a shared VM, not the program.
constexpr int64_t kTailWindowQueries = 400;

struct ServiceConfig {
  bool crowd = false;
  std::vector<int64_t> shard_sizes;
  /// Offered load of the open loop, a quarter or less of the closed-loop
  /// capacity (2500-5000 and 330-505 queries/s on a shared 4-core VM,
  /// whose speed changes by a quarter within minutes). Near
  /// half capacity, queueing amplifies every change of the machine's
  /// speed into the latencies several times over.
  double open_rate_qps = 0.0;
  /// Specs the closed loop sends at least once, and so the sample of the
  /// answer metrics; the open loop sends the first of them. mean_rank on
  /// the crowd is dominated by rare far-off answers and needs thousands.
  int64_t specs = 0;
  int64_t warmup_queries = 0;
};

ServiceConfig ConfigFor(bool crowd) {
  if (crowd) return {true, {100, 200, 300, 400}, 100.0, 4500, 30};
  return {false, {500, 1000, 1500, 2000}, 400.0, 8000, 200};
}

struct Shard {
  explicit Shard(Instance inst) : instance(std::move(inst)) {}

  Instance instance;
  double delta_n = 0.0;
  double delta_e = 0.0;
  int64_t u_n = 0;
  ElementId max_element = -1;
};

/// Everything a run feeds the service, generated from the seed alone.
/// Not movable: the service options point into `shards`.
struct ServiceInputs {
  ServiceInputs() = default;
  ServiceInputs(const ServiceInputs&) = delete;
  ServiceInputs& operator=(const ServiceInputs&) = delete;

  std::vector<std::unique_ptr<Shard>> shards;
  crowdmax::QueryServiceOptions options;
  std::vector<QuerySpec> specs;
  /// Specs in the unaffordable-budget slice (expected typed rejections).
  std::vector<char> unaffordable;
  /// Open-loop due times, seconds after the open loop starts, of the
  /// first due_s.size() specs.
  std::vector<double> due_s;
};

std::unique_ptr<ServiceInputs> MakeInputs(const ServiceConfig& config,
                                          uint64_t seed, double open_seconds) {
  auto inputs = std::make_unique<ServiceInputs>();
  uint64_t stream = Mix(seed ^ (config.crowd ? 0xC20ADULL : 0xC9DULL));
  // Shard s has size shard_sizes[s % sizes], so spec i's shard (i modulo
  // the shard count) cycles through the sizes like bench_service's.
  const int64_t sizes = static_cast<int64_t>(config.shard_sizes.size());
  for (int64_t s = 0; s < sizes * kInstancesPerSize; ++s) {
    const int64_t n = config.shard_sizes[static_cast<size_t>(s % sizes)];
    stream = Mix(stream);
    crowdmax::Result<Instance> instance = crowdmax::UniformInstance(n, stream);
    CROWDMAX_CHECK(instance.ok());
    auto shard = std::make_unique<Shard>(std::move(instance).value());
    shard->delta_n = shard->instance.DeltaForU(4);
    shard->delta_e = shard->instance.DeltaForU(1);
    shard->u_n = shard->instance.CountWithin(shard->delta_n);
    shard->max_element = shard->instance.MaxElement();
    inputs->options.shards.push_back(
        {&shard->instance, shard->delta_n, shard->delta_e});
    inputs->shards.push_back(std::move(shard));
  }
  crowdmax::QueryServiceOptions& options = inputs->options;
  options.threads = 1;
  if (config.crowd) {
    options.use_platform = true;
    options.platform_workers = 40;
    options.naive_votes = 3;
    options.expert_votes = 7;
    options.fault.abandon_probability = 0.05;
    options.fault.straggler_probability = 0.02;
    options.fault.min_quorum = 2;
    options.latency.base_micros = 1000;
    options.latency.jitter_micros = 200;
    options.pipeline_depth = 8;
  }

  // The Poisson schedule fixes how many specs the open loop sends.
  double t = 0.0;
  while (true) {
    stream = Mix(stream);
    const double u = static_cast<double>(stream >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / config.open_rate_qps;
    if (t >= open_seconds) break;
    inputs->due_s.push_back(t);
  }

  // The bench_service mix: 2/5 MAX with spec u_n in 2..5 (so some
  // underestimate the shard's u_n of 4), 1/5 TOP-K, 1/5 ABOVE, and 1/5 MAX
  // with u_n 3, a fifth of which (1 in 25 overall) carries a budget no plan
  // can meet.
  const int64_t count = std::max<int64_t>(
      config.specs, static_cast<int64_t>(inputs->due_s.size()));
  inputs->specs.resize(static_cast<size_t>(count));
  inputs->unaffordable.assign(static_cast<size_t>(count), 0);
  for (int64_t i = 0; i < count; ++i) {
    QuerySpec& spec = inputs->specs[static_cast<size_t>(i)];
    stream = Mix(stream);
    spec.tenant = std::to_string(i);
    spec.shard = i % static_cast<int64_t>(inputs->shards.size());
    spec.seed = stream;
    spec.prices = crowdmax::CostModel{1.0, 40.0};
    switch (i % 5) {
      case 0:
      case 3:
        spec.kind = QueryKind::kMax;
        spec.u_n = 2 + i % 4;
        break;
      case 1:
        spec.kind = QueryKind::kTopK;
        spec.u_n = 2;
        spec.k = 1 + i % 3;
        break;
      case 2:
        spec.kind = QueryKind::kAbove;
        spec.anchor = static_cast<ElementId>(
            Mix(stream) %
            static_cast<uint64_t>(
                inputs->shards[static_cast<size_t>(spec.shard)]
                    ->instance.size()));
        spec.above.votes_per_item = 3;
        break;
      default:
        spec.kind = QueryKind::kMax;
        spec.u_n = 3;
        if (i % 25 == 4) {
          spec.budget = 1.0;
          inputs->unaffordable[static_cast<size_t>(i)] = 1;
        }
        break;
    }
  }
  return inputs;
}

uint64_t HashIds(uint64_t h, const std::vector<ElementId>& ids) {
  h = Mix(h ^ ids.size());
  for (ElementId id : ids) h = Mix(h ^ static_cast<uint64_t>(id));
  return h;
}

/// What one query produced and when; the fields before `due_s` are the
/// outcome the traced run must reproduce.
struct Record {
  StatusCode code = StatusCode::kOk;
  bool admitted = false;
  uint64_t answer_hash = 0;
  ElementId best = -1;
  int64_t paid_naive = 0;
  int64_t paid_expert = 0;
  int64_t issued_naive = 0;
  int64_t issued_expert = 0;
  int64_t naive_steps = 0;
  int64_t expert_steps = 0;
  double cost = 0.0;

  double due_s = 0.0;
  double ready_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t exec_us = 0;
  int64_t grants = 0;
  int64_t waits = 0;
  bool done = false;
  /// Empty when the answer's shape is valid (see CheckShape).
  std::string shape_error;
  /// Traced run: AuditServiceRun's verdict and the merged trace cells.
  std::string audit_error;
  crowdmax::TraceCellCounts cells;

  /// Hash of the outcome fields.
  uint64_t Fingerprint() const {
    uint64_t h = Mix(static_cast<uint64_t>(code) ^
                     (static_cast<uint64_t>(admitted) << 8) ^ answer_hash);
    for (int64_t v : {int64_t{best}, paid_naive, paid_expert, issued_naive,
                      issued_expert, naive_steps, expert_steps}) {
      h = Mix(h ^ static_cast<uint64_t>(v));
    }
    return Mix(h ^ static_cast<uint64_t>(cost * 1024.0));
  }
};

/// An OK TOP-K returns k distinct elements; an OK ABOVE splits all n - 1
/// non-anchor items between above and below.
std::string CheckShape(const QuerySpec& spec, const QueryOutcome& out,
                       const Instance& instance) {
  if (!out.status.ok()) return "";
  const int64_t n = instance.size();
  std::vector<char> seen(static_cast<size_t>(n), 0);
  auto mark = [&](const std::vector<ElementId>& ids) {
    for (ElementId id : ids) {
      if (!instance.Contains(id) || seen[static_cast<size_t>(id)]) return false;
      seen[static_cast<size_t>(id)] = 1;
    }
    return true;
  };
  if (spec.kind == QueryKind::kTopK) {
    if (static_cast<int64_t>(out.top.size()) != spec.k || !mark(out.top)) {
      return "TOP-K did not return k distinct elements";
    }
  } else if (spec.kind == QueryKind::kAbove) {
    if (!mark(out.above) || !mark(out.below) ||
        static_cast<int64_t>(out.above.size() + out.below.size()) != n - 1 ||
        seen[static_cast<size_t>(spec.anchor)]) {
      return "ABOVE did not split the n - 1 items between above and below";
    }
  } else if (!instance.Contains(out.best)) {
    return "MAX returned no element";
  }
  return "";
}

/// Per-run state shared by the client threads.
struct Harness {
  const ServiceInputs* inputs = nullptr;
  std::vector<crowdmax::QueryService>* services = nullptr;
  bool traced = false;
  SpanRecorder* spans = nullptr;
};

void RunOne(const Harness& harness, int client, int64_t index, double due_s,
            double ready_s, Record* record) {
  const QuerySpec& spec = harness.inputs->specs[static_cast<size_t>(index)];
  const Instance& instance =
      harness.inputs->shards[static_cast<size_t>(spec.shard)]->instance;
  const double start = NowSeconds();
  crowdmax::Result<crowdmax::ServiceRunResult> run =
      (*harness.services)[static_cast<size_t>(client)].Run({spec});
  const double end = NowSeconds();

  *record = Record{};
  record->due_s = due_s;
  record->ready_s = ready_s;
  record->start_s = start;
  record->end_s = end;
  record->done = true;
  if (!run.ok()) {
    // Run fails only on malformed service state, never per query.
    record->code = run.status().code();
    record->shape_error = "Run failed: " + run.status().ToString();
    return;
  }
  const QueryOutcome& out = run->outcomes[0];
  record->code = out.status.code();
  record->admitted = out.admitted;
  record->best = out.best;
  uint64_t h = Mix(static_cast<uint64_t>(out.best) ^
                   (static_cast<uint64_t>(out.partial) << 40) ^
                   (static_cast<uint64_t>(out.fault_status.code()) << 48));
  h = HashIds(h, out.top);
  h = HashIds(h, out.above);
  h = HashIds(h, out.below);
  h = HashIds(h, out.escalated);
  record->answer_hash = h;
  record->paid_naive = out.paid.naive;
  record->paid_expert = out.paid.expert;
  record->issued_naive = out.issued.naive;
  record->issued_expert = out.issued.expert;
  record->naive_steps = out.naive_steps;
  record->expert_steps = out.expert_steps;
  record->cost = out.cost;
  record->exec_us = out.latency_micros;
  record->grants = out.scheduler.grants;
  record->waits = out.scheduler.waits;
  record->shape_error = CheckShape(spec, out, instance);

  if (!harness.traced) return;
  crowdmax::Status audit = crowdmax::AuditServiceRun(*run);
  if (!audit.ok()) record->audit_error = audit.ToString();
  if (run->merged_trace != nullptr) {
    record->cells = run->merged_trace->Totals();
  }
  const int64_t root = harness.spans->NextId();
  const int thread = ThreadIndex();
  harness.spans->Record({root, -1, index, "query", due_s, end, thread,
                         static_cast<int64_t>(spec.kind)});
  harness.spans->Record({harness.spans->NextId(), root, index, "queue_wait",
                         due_s, start, thread, -1});
  harness.spans->Record({harness.spans->NextId(), root, index,
                         "QueryService::Run", start, end, thread,
                         record->exec_us});
}

bool Failed(const ServiceInputs& inputs, int64_t i, const Record& r) {
  if (r.admitted) return r.code != StatusCode::kOk;
  return !(inputs.unaffordable[static_cast<size_t>(i)] &&
           r.code == StatusCode::kResourceExhausted);
}

struct ClosedLoopRun {
  /// By spec index: the first time each spec was sent.
  std::vector<Record> first;
  /// (spec, outcome fingerprint) of later sends of a spec, once the clients
  /// cycled past the last one; only the fingerprint is kept, so memory
  /// does not grow with throughput.
  std::vector<std::pair<int64_t, uint64_t>> repeats;
  int64_t sent = 0;
  /// Queries that ended OK or in their expected rejection.
  int64_t ok = 0;
  double wall_s = 0.0;
};

/// Closed loop: the clients send queries back to back, cycling through the
/// specs, until `seconds` have passed and each spec was sent once.
ClosedLoopRun ClosedLoop(const Harness& harness, double seconds) {
  const int64_t count = static_cast<int64_t>(harness.inputs->specs.size());
  ClosedLoopRun run;
  run.first.assign(static_cast<size_t>(count), Record{});
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> repeats(kClients);
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> ok{0};
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<double> finished(kClients, start);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Record scratch;
      int64_t local_ok = 0;
      while (true) {
        const int64_t g = next.fetch_add(1);
        if (g >= count && NowSeconds() >= deadline) break;
        const int64_t i = g % count;
        Record* record =
            g < count ? &run.first[static_cast<size_t>(i)] : &scratch;
        const double now = NowSeconds();
        RunOne(harness, c, i, now, now, record);
        if (g >= count) {
          repeats[static_cast<size_t>(c)].emplace_back(i,
                                                       record->Fingerprint());
        }
        if (!Failed(*harness.inputs, i, *record)) ++local_ok;
      }
      ok.fetch_add(local_ok);
      finished[static_cast<size_t>(c)] = NowSeconds();
    });
  }
  for (std::thread& t : clients) t.join();
  run.wall_s = *std::max_element(finished.begin(), finished.end()) - start;
  run.ok = ok.load();
  for (auto& client : repeats) {
    run.repeats.insert(run.repeats.end(), client.begin(), client.end());
  }
  for (const Record& r : run.first) run.sent += r.done ? 1 : 0;
  run.sent += static_cast<int64_t>(run.repeats.size());
  return run;
}

/// A free client spins until the next query is due. Sleeping instead lets
/// a virtual CPU go idle, and on a shared VM waking it up again, with
/// caches others have since used, was seen to add milliseconds to one
/// query in a hundred.
void WaitUntil(double due) {
  while (NowSeconds() < due) std::this_thread::yield();
}

/// Open loop: every spec with a due time is sent once, at its due time or
/// as soon as a client is free after it.
void OpenLoop(const Harness& harness, std::vector<Record>* records) {
  const int64_t count = static_cast<int64_t>(harness.inputs->due_s.size());
  records->assign(static_cast<size_t>(count), Record{});
  std::atomic<int64_t> next{0};
  const double origin = NowSeconds() + 0.005;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (true) {
        const int64_t i = next.fetch_add(1);
        if (i >= count) break;
        const double ready = NowSeconds();
        const double due =
            origin + harness.inputs->due_s[static_cast<size_t>(i)];
        WaitUntil(due);
        RunOne(harness, c, i, due, ready, &(*records)[static_cast<size_t>(i)]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

/// How query/service.h documents an admitted query's non-OK end: a
/// deadline expired mid-run, or an error of the fault stack (crowd
/// unavailable, comparison budget spent, killed by a supervisor).
bool DocumentedRuntimeFailure(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kAborted;
}

/// The known defect the gate lets through: TOP-K with a spec u_n below the
/// shard's true u_n can end kInternal ("phase 1 returned fewer candidates
/// than k"). Such queries count as failed and are printed on the
/// known_defect context line; a kInternal end anywhere else is a violation.
bool KnownTopKDefect(const ServiceInputs& inputs, size_t i, const Record& r) {
  const QuerySpec& spec = inputs.specs[i];
  return r.admitted && r.code == StatusCode::kInternal &&
         spec.kind == QueryKind::kTopK &&
         spec.u_n < inputs.shards[static_cast<size_t>(spec.shard)]->u_n;
}

/// The correctness gate of one query (spec `i`).
void CheckRecord(const ServiceInputs& inputs, bool check_theorem1, size_t i,
                 const Record& r, const char* phase, Report* report) {
  const QuerySpec& spec = inputs.specs[i];
  const std::string where = Cat(phase, " query ", i, " (",
                                crowdmax::QueryKindName(spec.kind), "): ");
  report->CountCheck(3);
  if (!r.done) {
    report->Violation(where + "never ran");
    return;
  }
  if (inputs.unaffordable[i]) {
    if (r.admitted || r.code != StatusCode::kResourceExhausted) {
      report->Violation(where + "unaffordable budget not rejected with "
                                "kResourceExhausted");
    }
  } else if (!r.admitted) {
    report->Violation(where + "rejected outside the unaffordable slice");
  }
  if (r.admitted && r.code != StatusCode::kOk &&
      !DocumentedRuntimeFailure(r.code) && !KnownTopKDefect(inputs, i, r)) {
    report->Violation(Cat(where, "ended with ",
                          crowdmax::StatusCodeName(r.code),
                          ", which query/service.h does not document"));
  }
  if (!r.shape_error.empty()) report->Violation(where + r.shape_error);
  if (!r.audit_error.empty()) {
    report->Violation(where + "AuditServiceRun: " + r.audit_error);
  }
  if (check_theorem1 && spec.kind == QueryKind::kMax &&
      r.code == StatusCode::kOk) {
    const Shard& shard = *inputs.shards[static_cast<size_t>(spec.shard)];
    if (spec.u_n >= shard.u_n) {
      report->CountCheck();
      if (shard.instance.Distance(shard.max_element, r.best) >
          2.0 * shard.delta_e) {
        report->Violation(where + "Theorem 1: d(M, best) > 2 delta_e");
      }
    }
  }
}

/// The correctness gate over every spec sent once.
void CheckRecords(const ServiceInputs& inputs, bool check_theorem1,
                  const std::vector<Record>& records, const char* phase,
                  Report* report) {
  for (size_t i = 0; i < records.size(); ++i) {
    CheckRecord(inputs, check_theorem1, i, records[i], phase, report);
  }
}

/// Checks that `other` reproduces `reference` query by query, over the
/// specs both sent.
void CompareRecords(const std::vector<Record>& reference,
                    const std::vector<Record>& other, const char* what,
                    Report* report) {
  for (size_t i = 0; i < std::min(reference.size(), other.size()); ++i) {
    if (!reference[i].done || !other[i].done) continue;
    report->CountCheck();
    if (reference[i].Fingerprint() != other[i].Fingerprint()) {
      report->Violation(Cat(what, ": query ", i, " differs"));
    }
  }
}

std::vector<double> Collect(const std::vector<Record>& records,
                            double (*field)(const Record&)) {
  std::vector<double> values;
  values.reserve(records.size());
  for (const Record& r : records) values.push_back(field(r));
  std::sort(values.begin(), values.end());
  return values;
}

int64_t ReadCounter(const char* name) {
  return crowdmax::MetricsRegistry::Default()->GetCounter(name)->value();
}

}  // namespace

Metrics RunService(const RunArgs& args, bool crowd, Report* report) {
  const ServiceConfig config = ConfigFor(crowd);
  const double closed_seconds = kClosedShare * args.seconds;
  const double open_seconds = args.seconds - closed_seconds;

  // Set-up: inputs (shards, specs, Poisson schedule), one service per
  // client, and a warm-up of each service; repeated, median is setup_s.
  std::vector<double> setups;
  std::unique_ptr<ServiceInputs> inputs;
  std::vector<crowdmax::QueryService> services;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Tearing down the last set-up is not part of this one.
    services.clear();
    inputs.reset();
    const double start = NowSeconds();
    inputs = MakeInputs(config, args.seed, open_seconds);
    for (int c = 0; c < kClients; ++c) {
      crowdmax::Result<crowdmax::QueryService> service =
          crowdmax::QueryService::Create(inputs->options);
      CROWDMAX_CHECK(service.ok());
      services.push_back(std::move(service).value());
    }
    Harness warm{inputs.get(), &services, false, nullptr};
    Record scratch;
    for (int64_t i = 0; i < config.warmup_queries; ++i) {
      RunOne(warm, static_cast<int>(i % kClients), i, 0.0, 0.0, &scratch);
    }
    setups.push_back(NowSeconds() - start);
  }
  const int64_t count = static_cast<int64_t>(inputs->specs.size());
  const int64_t open_count = static_cast<int64_t>(inputs->due_s.size());

  std::string shards;
  for (int64_t n : config.shard_sizes) {
    shards += Cat(shards.empty() ? "" : ",", n);
  }
  report->Context("client_threads", Cat(kClients, " (one QueryService each, "
                                            "Run({spec}) per query, "
                                            "threads=1)"));
  report->Context("backend", crowd ? "simulated platform, pipeline_depth=8"
                                   : "comparator mode");
  report->Context("shards", Cat(kInstancesPerSize, " instances each of n = ",
                               shards, ", u_n target 4, u_e target 1"));
  report->Context("closed_loop",
                  Cat("at least ", Fixed(closed_seconds, 1), " s and ", count,
                      " specs, ", kClients, " clients"));
  report->Context("open_loop", Cat(Fixed(open_seconds, 1), " s, Poisson ",
                                   Fixed(config.open_rate_qps, 0),
                                   " queries/s offered, ", open_count,
                                   " queries"));

  Metrics metrics;
  if (!args.trace) {
    Harness harness{inputs.get(), &services, false, nullptr};
    const ClosedLoopRun closed = ClosedLoop(harness, closed_seconds);
    std::vector<Record> open;
    const double open_start = NowSeconds();
    OpenLoop(harness, &open);
    const double open_wall = NowSeconds() - open_start;

    // Every answer is checked; every spec sent more than once must give
    // the same outcome each time.
    CheckRecords(*inputs, !crowd, closed.first, "closed loop", report);
    CheckRecords(*inputs, !crowd, open, "open loop", report);
    CompareRecords(closed.first, open, "open loop", report);
    for (const auto& [i, fingerprint] : closed.repeats) {
      report->CountCheck();
      if (fingerprint != closed.first[static_cast<size_t>(i)].Fingerprint()) {
        report->Violation(
            Cat("closed loop repeat: query ", i, " differs from its first send"));
      }
    }

    // Answer metrics over each spec's first send.
    int64_t failed = 0;
    int64_t known_defect = 0;
    double cost = 0.0;
    double steps = 0.0;
    double rank = 0.0;
    int64_t completed = 0;
    int64_t max_queries = 0;
    std::vector<int64_t> by_code(16, 0);
    for (int64_t i = 0; i < count; ++i) {
      const Record& r = closed.first[static_cast<size_t>(i)];
      const QuerySpec& spec = inputs->specs[static_cast<size_t>(i)];
      known_defect += KnownTopKDefect(*inputs, static_cast<size_t>(i), r);
      if (Failed(*inputs, i, r)) {
        ++failed;
        ++by_code[std::min<size_t>(static_cast<size_t>(r.code), 15)];
        continue;
      }
      if (r.code != StatusCode::kOk) continue;
      ++completed;
      cost += r.cost;
      steps += static_cast<double>(r.naive_steps + r.expert_steps);
      if (spec.kind == QueryKind::kMax) {
        ++max_queries;
        rank += static_cast<double>(
            inputs->shards[static_cast<size_t>(spec.shard)]->instance.Rank(
                r.best));
      }
    }
    std::vector<double> latencies;
    for (int64_t i = 0; i < open_count; ++i) {
      const Record& r = open[static_cast<size_t>(i)];
      if (!Failed(*inputs, i, r)) {
        latencies.push_back((r.end_s - r.due_s) * 1e3);
      }
    }
    const Tail tail = TailOf(
        latencies, static_cast<int64_t>(latencies.size()) / kTailWindowQueries);
    metrics["queries_per_s"] = static_cast<double>(closed.ok) / closed.wall_s;
    metrics["latency_p50_ms"] = Median(latencies);
    metrics["latency_tail_ms"] = tail.value;
    metrics["setup_s"] = Median(setups);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["crowd_cost_per_query"] = cost / static_cast<double>(completed);
    metrics["crowd_steps_per_query"] = steps / static_cast<double>(completed);
    metrics["mean_rank"] = rank / static_cast<double>(max_queries);
    metrics["ok_share"] = static_cast<double>(count - failed) /
                          static_cast<double>(count);

    std::string failures;
    for (size_t c = 0; c < by_code.size(); ++c) {
      if (by_code[c] == 0) continue;
      failures += Cat(failures.empty() ? "" : ", ",
                      crowdmax::StatusCodeName(static_cast<StatusCode>(c)),
                      " x", by_code[c]);
    }
    report->Context("closed_loop_sent", Cat(closed.sent, " queries in ",
                                            Fixed(closed.wall_s, 3), " s"));
    report->Context("open_loop_wall", Cat(Fixed(open_wall, 3), " s"));
    report->Context("latency_tail", Describe(tail));
    report->Context("failed_share",
                    Cat(Fixed(static_cast<double>(failed) /
                                  static_cast<double>(count),
                              6),
                        " of ", count, " specs",
                        failures.empty() ? "" : " (", failures,
                        failures.empty() ? "" : ")"));
    report->Context("known_defect",
                    Cat(known_defect, " TOP-K specs with an underestimated "
                                      "u_n ended kInternal"));
    // One attempted query per spec: its later sends were checked above to
    // give the same outcome, so the counts depend on the seed alone.
    report->SetAttempted(count, failed);
    return metrics;
  }

  // Traced run. (1) Untraced closed loop over every spec once: the
  // reference outcomes and the untraced time. (2) The same with tracing
  // on: the tracing overhead. (3) The traced open loop: the per-layer
  // metrics. Phases 2 and 3 must reproduce phase 1 query by query.
  SpanRecorder spans;
  Harness untraced{inputs.get(), &services, false, nullptr};
  const ClosedLoopRun reference = ClosedLoop(untraced, 0.0);
  CheckRecords(*inputs, !crowd, reference.first, "untraced closed loop",
               report);

  std::vector<crowdmax::QueryService> traced_services;
  crowdmax::QueryServiceOptions traced_options = inputs->options;
  traced_options.collect_traces = true;
  for (int c = 0; c < kClients; ++c) {
    crowdmax::Result<crowdmax::QueryService> service =
        crowdmax::QueryService::Create(traced_options);
    CROWDMAX_CHECK(service.ok());
    traced_services.push_back(std::move(service).value());
  }
  Harness traced{inputs.get(), &traced_services, true, &spans};
  crowdmax::MetricsRegistry::Default()->Reset();
  crowdmax::SetMetricsEnabled(true);
  const ClosedLoopRun closed = ClosedLoop(traced, 0.0);
  CompareRecords(reference.first, closed.first, "traced closed loop", report);
  CheckRecords(*inputs, !crowd, closed.first, "traced closed loop", report);

  crowdmax::MetricsRegistry::Default()->Reset();
  std::vector<Record> open;
  OpenLoop(traced, &open);
  crowdmax::SetMetricsEnabled(false);
  CompareRecords(reference.first, open, "traced open loop", report);
  CheckRecords(*inputs, !crowd, open, "traced open loop", report);

  int64_t reference_failed = 0;
  for (int64_t i = 0; i < count; ++i) {
    reference_failed +=
        Failed(*inputs, i, reference.first[static_cast<size_t>(i)]) ? 1 : 0;
  }
  int64_t admitted = 0;
  int64_t rejected = 0;
  double grants = 0.0;
  double waits = 0.0;
  double issued = 0.0;
  double paid = 0.0;
  double rounds = 0.0;
  double exec_ms = 0.0;
  crowdmax::TraceCellCounts cells;
  for (int64_t i = 0; i < open_count; ++i) {
    const Record& r = open[static_cast<size_t>(i)];
    waits += static_cast<double>(r.waits);
    exec_ms += static_cast<double>(r.exec_us) * 1e-3;
    if (!r.admitted) {
      ++rejected;
      continue;
    }
    ++admitted;
    grants += static_cast<double>(r.grants);
    issued += static_cast<double>(r.issued_naive + r.issued_expert);
    paid += static_cast<double>(r.paid_naive + r.paid_expert);
    rounds += static_cast<double>(r.naive_steps + r.expert_steps);
    cells.dispatched += r.cells.dispatched;
    cells.answered += r.cells.answered;
    cells.cache_hits += r.cells.cache_hits;
    cells.degraded += r.cells.degraded;
    cells.retries += r.cells.retries;
  }
  const double q = static_cast<double>(open_count);
  const std::vector<double> queue_wait = Collect(
      open, [](const Record& r) { return (r.start_s - r.due_s) * 1e3; });
  const std::vector<double> overhead = Collect(open, [](const Record& r) {
    return (r.end_s - r.start_s) * 1e3 - static_cast<double>(r.exec_us) * 1e-3;
  });
  const std::vector<double> exec = Collect(open, [](const Record& r) {
    return static_cast<double>(r.exec_us) * 1e-3;
  });
  const std::vector<double> lag = Collect(open, [](const Record& r) {
    return (r.start_s - std::max(r.due_s, r.ready_s)) * 1e3;
  });
  crowdmax::MetricsRegistry* registry = crowdmax::MetricsRegistry::Default();
  const double crowd_wait_ms =
      static_cast<double>(
          registry
              ->GetHistogram("crowdmax.platform.batch_latency_micros",
                             crowdmax::ExponentialBounds(24))
              ->sum()) *
      1e-3;

  metrics["round_engine.issued"] = issued / q;
  metrics["round_engine.paid"] = paid / q;
  metrics["round_engine.cache_hit_ratio"] =
      issued > 0 ? 1.0 - paid / issued : 0.0;
  metrics["round_engine.rounds"] = rounds / q;
  metrics["round_engine.pairs_per_round"] = rounds > 0 ? issued / rounds : 0.0;
  metrics["query.queue_wait_ms.p50"] = Percentile(queue_wait, 50);
  metrics["query.queue_wait_ms.p99"] = Percentile(queue_wait, 99);
  metrics["query.overhead_ms.p50"] = Percentile(overhead, 50);
  metrics["query.overhead_ms.p99"] = Percentile(overhead, 99);
  metrics["query.exec_ms.p50"] = Percentile(exec, 50);
  metrics["query.exec_ms.p99"] = Percentile(exec, 99);
  metrics["query.grants_per_query"] =
      grants / static_cast<double>(std::max<int64_t>(1, admitted));
  metrics["query.scheduler_waits"] = waits / q;
  metrics["query.rejected"] = static_cast<double>(rejected) / q;
  metrics["executor.dispatched"] = static_cast<double>(cells.dispatched) / q;
  metrics["executor.answered_ratio"] =
      cells.dispatched > 0 ? static_cast<double>(cells.answered) /
                                 static_cast<double>(cells.dispatched)
                           : 0.0;
  metrics["executor.retries"] = static_cast<double>(cells.retries) / q;
  metrics["executor.degraded"] = static_cast<double>(cells.degraded) / q;
  metrics["executor.cache_hits"] = static_cast<double>(cells.cache_hits) / q;
  metrics["platform.votes"] =
      static_cast<double>(ReadCounter("crowdmax.platform.votes")) / q;
  metrics["platform.dropped_tasks"] =
      static_cast<double>(ReadCounter("crowdmax.platform.dropped_tasks")) / q;
  metrics["platform.no_quorum_tasks"] =
      static_cast<double>(ReadCounter("crowdmax.platform.no_quorum_tasks")) /
      q;
  metrics["platform.crowd_wait_ms"] = crowd_wait_ms / q;
  metrics["async.overlapped_rounds"] =
      static_cast<double>(ReadCounter("crowdmax.pipeline.overlapped_rounds")) /
      q;
  metrics["async.max_in_flight"] = static_cast<double>(
      registry->GetGauge("crowdmax.pipeline.max_in_flight")->value());
  metrics["async.hidden_wait_share"] =
      crowd_wait_ms > 0 ? 1.0 - exec_ms / crowd_wait_ms : 0.0;
  metrics["loadgen.lag_ms.p99"] = Percentile(lag, 99);
  metrics["trace.overhead_share"] = closed.wall_s / reference.wall_s - 1.0;

  report->Context("spans", std::to_string(spans.size()));
  if (!args.trace_path.empty()) {
    if (spans.WriteChromeJson(args.trace_path)) {
      report->Context("trace_file", args.trace_path);
    } else {
      report->Violation("cannot write trace file " + args.trace_path);
    }
  }
  // One attempted query per spec, as in the untraced run.
  report->SetAttempted(count, reference_failed);
  return metrics;
}

}  // namespace e2e

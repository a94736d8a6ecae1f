// Repo benchmark driver: runs one workload against the engine for a fixed
// time and prints its metrics as one JSON line. See perfbench/README.md for
// the workloads, the metrics and what each layer metric should move.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>] [--inject-exec-delay <factor>]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/fig8_queries.h"
#include "perfbench/trace.h"
#include "src/engine/database.h"
#include "src/exec/profile.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/xml/tagger.h"
#include "src/xml/view.h"
#include "src/xml/xquery.h"

namespace gapply::perfbench {
namespace {

// SF 0.05: 500 suppliers, 10,000 parts, 40,000 partsupp rows. The Fig. 8
// queries then take 50-200 ms each, far above timer noise, and a run still
// completes dozens of them.
constexpr double kScaleFactor = 0.05;
// Set-up (load + warm-up) is repeated and the median of all but the first,
// cold repetition reported.
constexpr int kSetupReps = 15;
constexpr int kFig8Queries = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  // Self-test of the comparison: spin after each fig8_gapply execution so
  // that it takes `inject_exec_delay` times as long. 1 = off.
  double inject_exec_delay = 1.0;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Busy-waits until the interval that began at `start_ns` has lasted
// `factor` times as long as it had so far (the self-test's injected delay).
void Stretch(int64_t start_ns, double factor) {
  if (factor <= 1.0) return;
  const int64_t until = start_ns + static_cast<int64_t>(
                                       static_cast<double>(NowNs() - start_ns) *
                                       factor);
  while (NowNs() < until) {
  }
}

// Operator kind of a profile node: its DebugName up to the first '('.
std::string OpKind(const std::string& debug_name) {
  return debug_name.substr(0, debug_name.find('('));
}

/// How one operation is driven.
enum class Mode {
  kPlain,   // through Session, as a client would (end-to-end run)
  kStats,   // through Session with QueryStats (untraced half of traced run)
  kTraced,  // layer by layer with spans and operator profiles
};

/// Per-layer totals of one client over its traced (and kStats) operations.
struct LayerTotals {
  ExecContext::Counters counters;
  std::map<std::string, uint64_t> op_self_ns;  // by operator kind
  uint64_t rules_fired = 0;
  uint64_t tag_tuples = 0;
  uint64_t stats_ops = 0;
  uint64_t cache_checked = 0;
  uint64_t cache_hits = 0;
  uint64_t admission_waits = 0;

  void AddProfile(const ProfileNode& node) {
    op_self_ns[OpKind(node.name)] += node.self_ns;
    for (const ProfileNode& child : node.children) AddProfile(child);
  }

  void AddStats(const QueryStats& stats) {
    ++stats_ops;
    cache_checked += stats.plan_cache_checked ? 1 : 0;
    cache_hits += stats.plan_cache_hit ? 1 : 0;
    admission_waits += stats.admission_waited ? 1 : 0;
  }

  void MergeFrom(const LayerTotals& o) {
    counters.MergeFrom(o.counters);
    for (const auto& [kind, ns] : o.op_self_ns) op_self_ns[kind] += ns;
    rules_fired += o.rules_fired;
    tag_tuples += o.tag_tuples;
    stats_ops += o.stats_ops;
    cache_checked += o.cache_checked;
    cache_hits += o.cache_hits;
    admission_waits += o.admission_waits;
  }
};

/// One client: a Session of its own, a seeded input stream, and what it
/// measured. Owned by exactly one thread.
struct Client {
  Client(Database* db, uint64_t seed) : session(db), rng(seed) {}

  Session session;
  std::mt19937_64 rng;
  Tracer tracer;
  LayerTotals layers;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // kPlain operations: calibrated (see Calibrator) and wall-clock. In the
  // traced run, latency_ms holds the wall-clock kStats latencies.
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  std::vector<double> traced_latency_ms;
  std::vector<int> kind;  // per latency_ms entry: the query of the mix
  double busy_s = 0;      // sum of latency_ms
  double raw_busy_s = 0;  // sum of raw_latency_ms
  uint64_t bytes = 0;     // document bytes of kPlain operations
};

/// A span on the traced path; nothing on the others.
std::optional<ScopedSpan> TracedSpan(Client* c, Mode mode, const char* name,
                                     uint64_t op) {
  if (mode != Mode::kTraced) return std::nullopt;
  return std::optional<ScopedSpan>(std::in_place, &c->tracer, name, op);
}

struct OpResult {
  bool ok = false;
  int64_t ns = 0;
  int kind = 0;
  uint64_t bytes = 0;
};

// --- layer-by-layer execution (the traced path) ----------------------------

/// Optimizes, lowers and executes `plan` as Session does at DOP 1, with a
/// span around each layer and operator profiling on. `exec_delay` > 1
/// stretches the ExecuteToVector call (comparison self-test).
Result<QueryResult> OptimizeAndExecute(Database* db, LogicalOpPtr plan,
                                       Client* c, uint64_t op,
                                       double exec_delay) {
  {
    ScopedSpan span(&c->tracer, "optimizer.optimize", op);
    Optimizer optimizer(db->catalog(), db->stats(), Optimizer::Options{});
    ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
    c->layers.rules_fired += optimizer.fired_rules().size();
  }
  PhysOpPtr phys;
  {
    ScopedSpan span(&c->tracer, "exec.lower", op);
    LoweringOptions lowering;
    lowering.gapply_parallelism = 1;
    lowering.exchange_parallelism = 1;
    lowering.columnar_storage = true;
    ASSIGN_OR_RETURN(phys, LowerPlan(*plan, lowering));
  }
  ExecContext ctx;
  ctx.set_profiling(true);
  Result<QueryResult> result = Status::Internal("not executed");
  {
    ScopedSpan span(&c->tracer, "exec.execute", op);
    const int64_t start = NowNs();
    result = ExecuteToVector(phys.get(), &ctx);
    Stretch(start, exec_delay);
  }
  c->layers.counters.MergeFrom(ctx.counters());
  c->layers.AddProfile(CollectProfile(*phys));
  return result;
}

Result<QueryResult> RunSqlLayers(Database* db, const std::string& sql,
                                 Client* c, uint64_t op, double exec_delay) {
  sql::QueryPtr ast;
  {
    ScopedSpan span(&c->tracer, "sql.parse", op);
    ASSIGN_OR_RETURN(ast, sql::Parse(sql));
  }
  LogicalOpPtr bound;
  {
    ScopedSpan span(&c->tracer, "sql.bind", op);
    sql::Binder binder(db->catalog());
    ASSIGN_OR_RETURN(bound, binder.Bind(*ast));
  }
  return OptimizeAndExecute(db, std::move(bound), c, op, exec_delay);
}

Result<QueryResult> RunSql(Database* db, const std::string& sql, Client* c,
                           uint64_t op, Mode mode, double exec_delay) {
  if (mode == Mode::kTraced) return RunSqlLayers(db, sql, c, op, exec_delay);
  QueryStats stats;
  const int64_t start = NowNs();
  Result<QueryResult> r = c->session.Query(
      sql, QueryOptions{}, mode == Mode::kStats ? &stats : nullptr);
  Stretch(start, exec_delay);
  if (mode == Mode::kStats) c->layers.AddStats(stats);
  return r;
}

Result<QueryResult> RunPlan(Database* db, const LogicalOp& plan, Client* c,
                            uint64_t op, Mode mode) {
  if (mode == Mode::kTraced) {
    return OptimizeAndExecute(db, plan.Clone(), c, op, 1.0);
  }
  QueryStats stats;
  Result<QueryResult> r = c->session.Execute(
      plan, QueryOptions{}, mode == Mode::kStats ? &stats : nullptr);
  if (mode == Mode::kStats) c->layers.AddStats(stats);
  return r;
}

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t clients() const { return 1; }
  /// Operations per traced/untraced block of the traced run, so that both
  /// halves see the whole query mix.
  virtual size_t trace_cycle() const { return 1; }
  virtual size_t warmup_ops() const = 0;

  /// Builds per-database state (plans, key sets) for the run's seed. Part
  /// of set-up.
  virtual Status Bind(Database* db, uint64_t seed) = 0;
  /// Computes the expected answers, once, after set-up.
  virtual Status ComputeReference(Client* c) = 0;
  /// Runs and times operation `i` of client `c`; checks the answer (outside
  /// the timed interval) once references exist.
  virtual OpResult Run(Client* c, uint64_t i, uint64_t op_id, Mode mode) = 0;
  virtual void PrintDetail(const std::vector<std::unique_ptr<Client>>&) const {
  }

 protected:
  bool checking_ = false;
};

/// Fig. 8 Q1-Q4 in turn from one session, in GApply form (`gapply`) or in
/// the decorrelated sorted-outer-union form.
class Fig8Workload : public Workload {
 public:
  Fig8Workload(bool gapply, double exec_delay)
      : gapply_(gapply), exec_delay_(gapply ? exec_delay : 1.0) {}

  size_t trace_cycle() const override { return kFig8Queries; }
  size_t warmup_ops() const override { return kFig8Queries; }

  Status Bind(Database* db, uint64_t) override {
    db_ = db;
    baselines_.clear();
    for (int q = 0; q < kFig8Queries; ++q) {
      ASSIGN_OR_RETURN(LogicalOpPtr plan, Fig8Baseline(*db->catalog(), q));
      baselines_.push_back(std::move(plan));
    }
    return Status::OK();
  }

  Status ComputeReference(Client* c) override {
    for (int q = 0; q < kFig8Queries; ++q) {
      ASSIGN_OR_RETURN(std::string sql, GApplySql(q, c, 0, Mode::kPlain));
      ASSIGN_OR_RETURN(QueryResult with, c->session.Query(sql));
      ASSIGN_OR_RETURN(QueryResult without,
                       c->session.Execute(*baselines_[q]));
      if (!SameRowMultiset(with.rows, without.rows)) {
        return Status::Internal(
            "Q" + std::to_string(q + 1) + ": GApply (" +
            std::to_string(with.rows.size()) + " rows) and no-GApply (" +
            std::to_string(without.rows.size()) + " rows) forms disagree");
      }
      reference_[q] = std::move(with.rows);
    }
    checking_ = true;
    return Status::OK();
  }

  OpResult Run(Client* c, uint64_t i, uint64_t op_id, Mode mode) override {
    OpResult out;
    out.kind = static_cast<int>(i % kFig8Queries);
    const int64_t start = NowNs();
    Result<QueryResult> r = RunQuery(out.kind, c, op_id, mode);
    out.ns = NowNs() - start;
    out.ok = r.ok() &&
             (!checking_ || SameRowMultiset(r->rows, reference_[out.kind]));
    return out;
  }

  void PrintDetail(
      const std::vector<std::unique_ptr<Client>>& clients) const override {
    std::vector<double> per_query[kFig8Queries];
    std::vector<double> raw_per_query[kFig8Queries];
    for (const auto& c : clients) {
      for (size_t k = 0; k < c->raw_latency_ms.size(); ++k) {
        per_query[c->kind[k]].push_back(c->latency_ms[k]);
        raw_per_query[c->kind[k]].push_back(c->raw_latency_ms[k]);
      }
    }
    std::printf("{\"detail\": {\"form\": \"%s\"",
                gapply_ ? "gapply" : "outer_union");
    for (int q = 0; q < kFig8Queries; ++q) {
      std::printf(
          ", \"q%d_p50_ms\": %.17g, \"q%d_raw_p50_ms\": %.17g, "
          "\"q%d_samples\": %zu",
          q + 1, Percentile(per_query[q], 0.5), q + 1,
          Percentile(raw_per_query[q], 0.5), q + 1, per_query[q].size());
    }
    std::printf("}}\n");
  }

 private:
  // Q1 and Q2 arrive as FLWR queries over the Figure-1 view; translating
  // them is part of the operation.
  Result<std::string> GApplySql(int q, Client* c, uint64_t op_id,
                                Mode mode) const {
    if (q >= 2) return std::string(q == 2 ? kQ3GApplySql : kQ4GApplySql);
    const xml::FlwrQuery flwr = q == 0 ? FlwrQ1() : FlwrQ2();
    const auto span = TracedSpan(c, mode, "xml.translate", op_id);
    return xml::TranslateToGApplySql(flwr, SupplierPartsBinding());
  }

  Result<QueryResult> RunQuery(int q, Client* c, uint64_t op_id, Mode mode) {
    const auto root = TracedSpan(c, mode, "op", op_id);
    if (!gapply_) return RunPlan(db_, *baselines_[q], c, op_id, mode);
    ASSIGN_OR_RETURN(std::string sql, GApplySql(q, c, op_id, mode));
    return RunSql(db_, sql, c, op_id, mode, exec_delay_);
  }

  bool gapply_;
  double exec_delay_;
  Database* db_ = nullptr;
  std::vector<LogicalOpPtr> baselines_;
  std::vector<Row> reference_[kFig8Queries];
};

/// Publishes the whole Figure-1 document per operation: view → sorted outer
/// union plan → execute → constant-space tagger.
class XmlPublishWorkload : public Workload {
 public:
  size_t warmup_ops() const override { return 1; }

  Status Bind(Database* db, uint64_t) override {
    db_ = db;
    expected_tuples_ = db->catalog()->FindTable("supplier")->num_rows() +
                       db->catalog()->FindTable("partsupp")->num_rows();
    return Status::OK();
  }

  Status ComputeReference(Client* c) override {
    uint64_t tuples = 0;
    RETURN_NOT_OK(Publish(c, 0, Mode::kPlain, &tuples));
    if (tuples != expected_tuples_) {
      return Status::Internal("document has " + std::to_string(tuples) +
                              " tuples, expected one per supplier and "
                              "partsupp row: " +
                              std::to_string(expected_tuples_));
    }
    digest_ = Fnv1a(doc_);
    doc_bytes_ = doc_.size();
    checking_ = true;
    return Status::OK();
  }

  OpResult Run(Client* c, uint64_t, uint64_t op_id, Mode mode) override {
    OpResult out;
    uint64_t tuples = 0;
    const int64_t start = NowNs();
    const Status st = Publish(c, op_id, mode, &tuples);
    out.ns = NowNs() - start;
    out.bytes = doc_.size();
    out.ok = st.ok() && (!checking_ || (tuples == expected_tuples_ &&
                                        doc_.size() == doc_bytes_ &&
                                        Fnv1a(doc_) == digest_));
    if (mode == Mode::kTraced) c->layers.tag_tuples += tuples;
    return out;
  }

  void PrintDetail(
      const std::vector<std::unique_ptr<Client>>& clients) const override {
    uint64_t bytes = 0;
    double busy_s = 0, raw_busy_s = 0;
    for (const auto& c : clients) {
      bytes += c->bytes;
      busy_s += c->busy_s;
      raw_busy_s += c->raw_busy_s;
    }
    const double mb = static_cast<double>(bytes) / 1e6;
    std::printf(
        "{\"detail\": {\"xml_mb_per_s\": %.17g, \"xml_raw_mb_per_s\": "
        "%.17g, \"doc_bytes\": %llu, \"doc_tuples\": %llu}}\n",
        busy_s > 0 ? mb / busy_s : 0.0, raw_busy_s > 0 ? mb / raw_busy_s : 0.0,
        static_cast<unsigned long long>(doc_bytes_),
        static_cast<unsigned long long>(expected_tuples_));
  }

 private:
  Status Publish(Client* c, uint64_t op_id, Mode mode, uint64_t* tuples) {
    const auto root = TracedSpan(c, mode, "op", op_id);
    auto layer = TracedSpan(c, mode, "xml.view_plan", op_id);
    ASSIGN_OR_RETURN(xml::XmlView view,
                     xml::MakeSupplierPartsView(*db_->catalog()));
    ASSIGN_OR_RETURN(xml::SouqPlan souq, xml::BuildSortedOuterUnion(view));
    layer.reset();
    ASSIGN_OR_RETURN(QueryResult rows,
                     RunPlan(db_, *souq.plan, c, op_id, mode));
    if (mode == Mode::kTraced) layer.emplace(&c->tracer, "xml.tag", op_id);
    doc_.clear();
    xml::Tagger tagger(souq, [this](const std::string& s) { doc_ += s; });
    tagger.Begin(view.root_element);
    for (const Row& row : rows.rows) RETURN_NOT_OK(tagger.Feed(row));
    RETURN_NOT_OK(tagger.Finish());
    *tuples = rows.rows.size();
    return Status::OK();
  }

  Database* db_ = nullptr;
  uint64_t expected_tuples_ = 0;
  uint64_t digest_ = 0;
  uint64_t doc_bytes_ = 0;
  std::string doc_;  // reused: the tagger appends into retained capacity
};

/// Concurrent clients, each with its own Session, issuing short statements
/// over a skewed key stream: 3 templates × every supplier key is more texts
/// than the plan cache holds, so both hits and evictions occur.
class SessionsMixedWorkload : public Workload {
 public:
  // Zipf exponent of the supplier-key stream.
  static constexpr double kSkew = 1.0;
  static constexpr int kTemplates = 3;
  static constexpr int64_t kAvailQtyCutoff = 5000;

  size_t clients() const override {
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min<size_t>(4, hw);
  }
  size_t warmup_ops() const override { return 600; }

  Status Bind(Database* db, uint64_t seed) override {
    db_ = db;
    keys_.clear();
    for (const Row& row : db->catalog()->FindTable("supplier")->rows()) {
      keys_.push_back(row[0].int_val());
    }
    std::sort(keys_.begin(), keys_.end());
    // Zipf CDF over key ranks; which key holds which rank is seeded.
    cdf_.clear();
    double total = 0;
    for (size_t r = 1; r <= keys_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kSkew);
      cdf_.push_back(total);
    }
    for (double& v : cdf_) v /= total;
    rank_to_key_.resize(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) rank_to_key_[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(rank_to_key_.begin(), rank_to_key_.end(), rng);
    return Status::OK();
  }

  // The expected answers come straight from the stored rows, not from the
  // engine.
  Status ComputeReference(Client*) override {
    const Catalog& cat = *db_->catalog();
    std::map<int64_t, size_t> index;
    for (size_t i = 0; i < keys_.size(); ++i) index[keys_[i]] = i;
    for (auto& per_key : reference_) {
      per_key.assign(keys_.size(), std::vector<Row>());
    }
    for (const Row& s : cat.FindTable("supplier")->rows()) {
      reference_[0][index[s[0].int_val()]].push_back({s[1], s[3]});
    }
    std::map<int64_t, const Row*> parts;
    for (const Row& p : cat.FindTable("part")->rows()) {
      parts[p[0].int_val()] = &p;
    }
    std::vector<std::vector<const Row*>> supplied(keys_.size());
    std::vector<int64_t> counts(keys_.size(), 0);
    for (const Row& ps : cat.FindTable("partsupp")->rows()) {
      const size_t k = index.at(ps[1].int_val());
      supplied[k].push_back(parts.at(ps[0].int_val()));
      if (ps[2].int_val() > kAvailQtyCutoff) ++counts[k];
    }
    for (size_t k = 0; k < keys_.size(); ++k) {
      double max_price = 0;
      for (const Row* p : supplied[k]) {
        max_price = std::max(max_price, (*p)[5].double_val());
      }
      for (const Row* p : supplied[k]) {
        if ((*p)[5].double_val() == max_price) {
          reference_[1][k].push_back(
              {Value::Int(keys_[k]), (*p)[1], (*p)[5]});
        }
      }
      reference_[2][k].push_back({Value::Int(counts[k])});
    }
    checking_ = true;
    return Status::OK();
  }

  OpResult Run(Client* c, uint64_t, uint64_t op_id, Mode mode) override {
    OpResult out;
    const int t = static_cast<int>(c->rng() % kTemplates);
    const double u = std::uniform_real_distribution<double>(0, 1)(c->rng);
    const size_t rank =
        std::min<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                             cdf_.begin(),
                         keys_.size() - 1);
    const size_t k = rank_to_key_[rank];
    const std::string sql = Sql(t, keys_[k]);
    out.kind = t;
    const int64_t start = NowNs();
    Result<QueryResult> r = Status::Internal("not executed");
    {
      const auto root = TracedSpan(c, mode, "op", op_id);
      r = RunSql(db_, sql, c, op_id, mode, 1.0);
    }
    out.ns = NowNs() - start;
    out.ok = r.ok() &&
             (!checking_ || SameRowMultiset(r->rows, reference_[t][k]));
    return out;
  }

  void PrintDetail(
      const std::vector<std::unique_ptr<Client>>& clients) const override {
    std::printf("{\"detail\": {\"clients\": %zu, \"keys\": %zu, "
                "\"zipf_skew\": %g}}\n",
                clients.size(), keys_.size(), kSkew);
  }

 private:
  static std::string Sql(int t, int64_t key) {
    const std::string k = std::to_string(key);
    switch (t) {
      case 0:
        return "select s_name, s_acctbal from supplier where s_suppkey = " +
               k;
      case 1:
        return "select gapply(select p_name, p_retailprice from g "
               "where p_retailprice = (select max(p_retailprice) from g)) "
               "from partsupp, part where ps_partkey = p_partkey and "
               "ps_suppkey = " +
               k + " group by ps_suppkey : g";
      default:
        return "select count(*) from partsupp where ps_suppkey = " + k +
               " and ps_availqty > " + std::to_string(kAvailQtyCutoff);
    }
  }

  Database* db_ = nullptr;
  std::vector<int64_t> keys_;
  std::vector<double> cdf_;
  std::vector<size_t> rank_to_key_;
  std::vector<std::vector<Row>> reference_[kTemplates];
};

// --- driver -----------------------------------------------------------------

// `calibrator` is null on the traced run, whose times are not calibrated.
void ClientLoop(Workload* w, Client* c, size_t index, int64_t deadline_ns,
                Calibrator* calibrator) {
  for (uint64_t i = 0;; ++i) {
    double scale = 1.0;
    if (calibrator != nullptr ? !calibrator->Next(deadline_ns, &scale)
                              : NowNs() >= deadline_ns) {
      break;
    }
    Mode mode = Mode::kPlain;
    if (calibrator == nullptr) {
      mode = (i / w->trace_cycle()) % 2 == 1 ? Mode::kTraced : Mode::kStats;
    }
    const uint64_t op_id = (static_cast<uint64_t>(index) << 40) | i;
    const OpResult r = w->Run(c, i, op_id, mode);
    ++c->attempted;
    if (!r.ok) {
      ++c->failed;
      continue;
    }
    const double ms = Ms(r.ns);
    if (mode == Mode::kTraced) {
      c->traced_latency_ms.push_back(ms);
      continue;
    }
    c->latency_ms.push_back(ms * scale);
    c->raw_latency_ms.push_back(ms);
    c->kind.push_back(r.kind);
    c->busy_s += ms * scale / 1e3;
    c->raw_busy_s += ms / 1e3;
    c->bytes += r.bytes;
  }
}

// Spans written per client; the per-layer metrics use all of them. Bounds
// the file of a sessions_mixed run (~40k spans per client) to ~4 MB per
// client while keeping every span of the Fig. 8 and XML runs.
constexpr size_t kMaxSpansWrittenPerClient = 25000;

void WriteSpans(const Args& args,
                const std::vector<std::unique_ptr<Client>>& clients,
                int64_t origin_ns) {
  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (size_t ci = 0; ci < clients.size(); ++ci) {
    const std::vector<Span>& spans = clients[ci]->tracer.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Stop at an operation boundary so no written span lacks its parent.
      if (i >= kMaxSpansWrittenPerClient && s.parent < 0) break;
      std::fprintf(f,
                   "{\"client\": %zu, \"op\": %llu, \"id\": %zu, "
                   "\"parent\": %d, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": %lld}\n",
                   ci, static_cast<unsigned long long>(s.op), i, s.parent,
                   s.name, static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns),
                   static_cast<long long>(self[i]));
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

class MetricWriter {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void AddLayerMetrics(const std::vector<std::unique_ptr<Client>>& clients,
                     double load_ms, MetricWriter* m) {
  LayerTotals t;
  std::map<std::string, int64_t> span_self_ns;
  uint64_t traced_ops = 0;
  std::vector<double> untraced, traced;
  for (const auto& c : clients) {
    t.MergeFrom(c->layers);
    const std::vector<Span>& spans = c->tracer.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      span_self_ns[spans[i].name] += self[i];
      if (spans[i].parent < 0) ++traced_ops;
    }
    untraced.insert(untraced.end(), c->latency_ms.begin(),
                    c->latency_ms.end());
    traced.insert(traced.end(), c->traced_latency_ms.begin(),
                  c->traced_latency_ms.end());
  }
  const double ops = std::max<uint64_t>(traced_ops, 1);
  auto per_op = [&](const char* span, double scale) {
    auto it = span_self_ns.find(span);
    return it == span_self_ns.end() ? 0.0
                                    : static_cast<double>(it->second) /
                                          scale / ops;
  };
  auto self_ms = [&](const char* kind) {
    auto it = t.op_self_ns.find(kind);
    return it == t.op_self_ns.end() ? 0.0
                                    : static_cast<double>(it->second) / 1e6 /
                                          ops;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const ExecContext::Counters& k = t.counters;

  m->Add("xml.translate_us", per_op("xml.translate", 1e3), "us");
  m->Add("xml.view_plan_ms", per_op("xml.view_plan", 1e6), "ms");
  m->Add("xml.tag_ms", per_op("xml.tag", 1e6), "ms");
  m->Add("xml.tag_ns_per_tuple",
         ratio(static_cast<double>(span_self_ns["xml.tag"]),
               static_cast<double>(t.tag_tuples)),
         "ns");
  m->Add("sql.parse_us", per_op("sql.parse", 1e3), "us");
  m->Add("sql.bind_us", per_op("sql.bind", 1e3), "us");
  m->Add("optimizer.optimize_us", per_op("optimizer.optimize", 1e3), "us");
  m->Add("optimizer.rules_fired", static_cast<double>(t.rules_fired) / ops,
         "count");
  m->Add("exec.lower_us", per_op("exec.lower", 1e3), "us");
  m->Add("exec.execute_ms", per_op("exec.execute", 1e6), "ms");
  m->Add("engine.plan_cache_hit_rate",
         ratio(static_cast<double>(t.cache_hits),
               static_cast<double>(t.cache_checked)),
         "fraction");
  m->Add("engine.admission_wait_frac",
         ratio(static_cast<double>(t.admission_waits),
               static_cast<double>(t.stats_ops)),
         "fraction");
  m->Add("exec.gapply_partition_ms",
         static_cast<double>(k.gapply_partition_ns) / 1e6 / ops, "ms");
  m->Add("exec.gapply_pgq_ms", static_cast<double>(k.gapply_pgq_ns) / 1e6 / ops,
         "ms");
  m->Add("exec.pgq_executions", static_cast<double>(k.pgq_executions) / ops,
         "count");
  m->Add("exec.pgq_us_per_group",
         ratio(static_cast<double>(k.gapply_pgq_ns) / 1e3,
               static_cast<double>(k.pgq_executions)),
         "us");
  m->Add("exec.batch_fill",
         ratio(static_cast<double>(k.batch_rows_produced),
               static_cast<double>(k.batches_produced)),
         "rows");
  m->Add("exec.rows_sorted", static_cast<double>(k.rows_sorted) / ops,
         "count");
  m->Add("exec.spill_bytes", static_cast<double>(k.spill_bytes), "bytes");
  for (const char* kind :
       {"GApply", "GroupScan", "Apply", "Project", "Filter", "ScalarAgg",
        "TableScan", "HashJoin", "HashGroupBy", "Sort", "UnionAll"}) {
    m->Add(std::string("exec.self_ms.") + kind, self_ms(kind), "ms");
  }
  m->Add("storage.morsel_prune_rate",
         ratio(static_cast<double>(k.morsels_pruned),
               static_cast<double>(k.morsels_pruned + k.morsels_scanned)),
         "fraction");
  m->Add("tpch.load_ms", load_ms, "ms");
  const double untraced_p50 = Percentile(untraced, 0.5);
  const double traced_p50 = Percentile(traced, 0.5);
  m->Add("trace.untraced_p50_ms", untraced_p50, "ms");
  m->Add("trace.traced_p50_ms", traced_p50, "ms");
  m->Add("trace.overhead_ratio", ratio(traced_p50, untraced_p50), "ratio");
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "fig8_gapply") {
    return std::make_unique<Fig8Workload>(true, args.inject_exec_delay);
  }
  if (args.workload == "fig8_outer_union") {
    return std::make_unique<Fig8Workload>(false, 1.0);
  }
  if (args.workload == "xml_publish") {
    return std::make_unique<XmlPublishWorkload>();
  }
  if (args.workload == "sessions_mixed") {
    return std::make_unique<SessionsMixedWorkload>();
  }
  return nullptr;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  // Client `i`'s input stream is seeded from the run's seed and `i`.
  auto client_seed = [&](size_t i) { return args.seed * 1000003 + i; };

  // Set-up: load, bind and warm up (plan cache, columnar mirror, lazy
  // state), repeated; the last database is the one measured.
  std::unique_ptr<Database> db;
  std::vector<double> setup_s, raw_setup_s, load_ms;
  Calibrator setup_calibrator(1);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    double scale = 1.0;
    setup_calibrator.Next(std::numeric_limits<int64_t>::max(), &scale);
    const int64_t start = NowNs();
    db = std::make_unique<Database>();
    tpch::TpchConfig config;
    config.scale_factor = kScaleFactor;
    config.seed = args.seed;
    if (Status st = db->LoadTpch(config); !st.ok()) {
      std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const int64_t loaded = NowNs();
    if (Status st = w->Bind(db.get(), args.seed); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Client warm(db.get(), client_seed(1000 + rep));
    for (size_t i = 0; i < w->warmup_ops(); ++i) {
      if (!w->Run(&warm, i, 0, Mode::kPlain).ok) {
        std::fprintf(stderr, "warm-up operation %zu failed\n", i);
        return 1;
      }
    }
    if (rep == 0) continue;
    raw_setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_s.push_back(raw_setup_s.back() * scale);
    load_ms.push_back(Ms(loaded - start));
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < w->clients(); ++i) {
    clients.push_back(
        std::make_unique<Client>(db.get(), client_seed(i)));
  }
  const Status ref = w->ComputeReference(clients[0].get());
  if (!ref.ok()) {
    std::fprintf(stderr, "reference failed: %s\n", ref.ToString().c_str());
  }

  Calibrator calibrator(clients.size());
  const int64_t origin = NowNs();
  if (ref.ok()) {
    const int64_t deadline =
        origin + static_cast<int64_t>(args.seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients.size(); ++i) {
      threads.emplace_back(ClientLoop, w.get(), clients[i].get(), i, deadline,
                           args.trace ? nullptr : &calibrator);
    }
    for (std::thread& t : threads) t.join();
  }

  // Closed loop: each client's rate is its completed operations over the
  // time it spent in them (correctness checks excluded).
  uint64_t attempted = 0, failed = 0;
  double qps = 0, raw_qps = 0;
  std::vector<double> latency, raw_latency;
  for (const auto& c : clients) {
    attempted += c->attempted;
    failed += c->failed;
    const double done = static_cast<double>(c->latency_ms.size());
    if (c->busy_s > 0) qps += done / c->busy_s;
    if (c->raw_busy_s > 0) raw_qps += done / c->raw_busy_s;
    latency.insert(latency.end(), c->latency_ms.begin(), c->latency_ms.end());
    raw_latency.insert(raw_latency.end(), c->raw_latency_ms.begin(),
                       c->raw_latency_ms.end());
  }
  if (!ref.ok()) {
    attempted = 1;
    failed = 1;
  }

  MetricWriter m;
  if (args.trace) {
    WriteSpans(args, clients, origin);
    AddLayerMetrics(clients, Percentile(load_ms, 0.5), &m);
  } else {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m.Add("setup_s", Percentile(setup_s, 0.5), "s");
    m.Add("throughput_qps", qps, "1/s");
    m.Add("latency_p50_ms", Percentile(latency, 0.5), "ms");
    m.Add("latency_p95_ms", Percentile(latency, 0.95), "ms");
    m.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    w->PrintDetail(clients);
    std::printf(
        "{\"detail\": {\"latency_samples\": %zu, \"kernel_p50_ms\": %.17g, "
        "\"kernel_samples\": %zu, \"raw_setup_s\": %.17g, "
        "\"raw_throughput_qps\": %.17g, \"raw_latency_p50_ms\": %.17g, "
        "\"raw_latency_p95_ms\": %.17g}}\n",
        latency.size(), Percentile(calibrator.samples(), 0.5),
        calibrator.samples().size(),
        Percentile(raw_setup_s, 0.5), raw_qps, Percentile(raw_latency, 0.5),
        Percentile(raw_latency, 0.95));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      ref.ok() && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.body().c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-dir") {
      args->trace_dir = v;
    } else if (flag == "--inject-exec-delay") {
      args->inject_exec_delay = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace gapply::perfbench

int main(int argc, char** argv) {
  gapply::perfbench::Args args;
  if (!gapply::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>] "
                 "[--inject-exec-delay <factor>]\n");
    return 2;
  }
  return gapply::perfbench::Run(args);
}

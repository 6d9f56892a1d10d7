// The repository benchmark (see README.md beside this file).
//
//   orpheus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates an SCI version history from the seed, ingests it through the
// public core::Cvd API into a fresh durable storage::Repository, then runs
// four closed-loop clients against it for the given time and checks every
// result. Prints one "name value unit" line per metric, then a JSON object
// with the same metrics as its last line. Exits 1 when a correctness check
// fails and 2 when the run could not be set up.
//
// With --trace 0 (the program's default: trace recorder off) it reports the
// end-to-end metrics. With --trace 1 it alternates traced and untraced
// windows and reports the per-layer metrics: its own timers around the
// calls it makes into session::Session, net::Client, storage::Repository
// and core::Cvd, plus the counters, histograms and spans the program
// already records (MetricsRegistry, the trace recorder).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchdata/generator.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/cvd.h"
#include "minidb/schema.h"
#include "minidb/table.h"
#include "minidb/value.h"
#include "net/client.h"
#include "net/server.h"
#include "session/session.h"
#include "storage/repository.h"

namespace orpheus::perfbench {
namespace {

using minidb::Table;

// History shape: SCI, 1000 versions, 100 branches, 20 int64 attributes.
// 200 operations per version give ~192k distinct records and ~2.5k rows
// per version on average.
constexpr int kVersions = 1000;
constexpr int kBranches = 100;
constexpr int kOpsPerVersion = 200;
constexpr int kAttrs = 20;
// Rows of the version commit cycles start from (about the median size).
constexpr int64_t kBaseRows = 2300;

constexpr int kClients = 4;
constexpr int kEditRows = 10;
constexpr int kRandomCheckoutsPerCycle = 3;
// checkout-history's commit probe: after every kProbeEverySeconds of
// reads, the readers pause while one more session runs kProbeCycles commit
// cycles back to back, alone (see README.md: every workload reports commit
// latency). The first cycle of a burst finds the caches full of the
// readers' data, which makes its latency swing with the shared machine's
// memory traffic; the later ones set the median. Short bursts spread over
// the whole run sample the machine's speed as evenly as the reads do.
constexpr double kProbeEverySeconds = 0.16;
constexpr int kProbeCycles = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Versions re-checked after close + reopen.
constexpr int kReopenChecks = 4;
// Traced and untraced windows alternate at this period in a --trace 1 run.
constexpr double kTraceWindowSeconds = 0.5;
// Per-thread trace ring, in events; enough for thousands of operations.
constexpr size_t kTraceRingEvents = size_t{1} << 15;
// Benchmark-level retries of an outcome the client reports as unknown.
constexpr int kMaxUnknownRetries = 20;

constexpr const char* kCvdName = "sci";

// The seeded ~5% net.* fault mix of bench/bench_net_session.cc.
constexpr const char* kFaultSpec =
    "net.server.recv=error:p0.05;net.server.send=error:p0.05;"
    "net.client.send=error:p0.05;net.client.recv=error:p0.05;"
    "net.server.drop_before_send=error:p0.03;"
    "net.server.drop_after_read=error:p0.03;"
    "net.server.send.partial=error:p0.02;"
    "net.client.send.partial=error:p0.02";

enum class Workload { kCheckoutHistory, kCommitContend, kRemoteMixed, kRemoteLossy };

bool IsRemote(Workload w) {
  return w == Workload::kRemoteMixed || w == Workload::kRemoteLossy;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
}

/// Linear-interpolated quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

constexpr uint64_t kRowSeed = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kRowMul = 0x100000001B3ULL;

/// Order-independent checksum of a checked-out table's data attributes
/// (columns 1..kAttrs; column 0 is `_rid`): the sum of a per-row hash.
uint64_t TableChecksum(const Table& t) {
  thread_local std::vector<uint64_t> acc;
  const size_t n = t.num_rows();
  acc.assign(n, kRowSeed);
  for (size_t c = 1; c < t.num_columns(); ++c) {
    const std::vector<int64_t>& col = t.column(c).int_data();
    if (col.size() != n) return 0;  // not a plain int64 column: mismatch
    for (size_t r = 0; r < n; ++r) {
      acc[r] = acc[r] * kRowMul + static_cast<uint64_t>(col[r]);
    }
  }
  uint64_t sum = 0;
  for (size_t r = 0; r < n; ++r) sum += Mix64(acc[r]);
  return sum;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The generated history plus what the checks need: every record's payload,
/// and each version's expected row count and checksum.
struct History {
  benchdata::VersionedDataset ds;
  std::vector<int64_t> payload;  // num_records x kAttrs, row-major
  std::vector<uint64_t> version_sum;
  // The generated version closest to kBaseRows rows. Ingest re-commits it
  // unchanged as the newest version, so commit cycles start from a tip of
  // the same size on every seed instead of whichever branch the generator
  // happened to extend last (version sizes range from ~2k to ~4k rows, and
  // commit cost grows with them).
  int base = 0;

  const int64_t* Payload(int64_t rid) const {
    return payload.data() + rid * kAttrs;
  }
  int num_versions() const { return ds.num_versions(); }
  /// Versions in the repository after ingest: the generated ones + base.
  int ingested_versions() const { return ds.num_versions() + 1; }
  const std::vector<int64_t>& BaseRecords() const {
    return ds.version(base).records;
  }
  size_t VersionRows(core::VersionId vid) const {
    return ds.version(vid - 1).records.size();
  }
};

History Generate(uint64_t seed) {
  History h;
  h.ds = benchdata::VersionedDataset::Generate(
      benchdata::SciConfig("SCI", kVersions, kBranches, kOpsPerVersion, seed));
  const int64_t n = h.ds.num_distinct_records();
  h.payload.resize(static_cast<size_t>(n) * kAttrs);
  std::vector<uint64_t> row_hash(n);
  for (int64_t rid = 0; rid < n; ++rid) {
    const std::vector<int64_t> p = h.ds.RecordPayload(rid);
    uint64_t acc = kRowSeed;
    for (int a = 0; a < kAttrs; ++a) {
      h.payload[rid * kAttrs + a] = p[a];
      acc = acc * kRowMul + static_cast<uint64_t>(p[a]);
    }
    row_hash[rid] = Mix64(acc);
  }
  auto distance = [&](int v) {
    const auto rows = static_cast<int64_t>(h.ds.version(v).records.size());
    return std::abs(rows - kBaseRows);
  };
  for (int v = 1; v < h.ds.num_versions(); ++v) {
    if (distance(v) < distance(h.base)) h.base = v;
  }
  for (const auto& spec : h.ds.versions()) {
    uint64_t sum = 0;
    for (int64_t rid : spec.records) sum += row_hash[rid];
    h.version_sum.push_back(sum);
  }
  return h;
}

minidb::Schema DataSchema(bool with_rid) {
  std::vector<minidb::ColumnDef> cols;
  if (with_rid) cols.push_back({"_rid", minidb::ValueType::kInt64});
  cols.push_back({"k", minidb::ValueType::kInt64});
  for (int a = 1; a < kAttrs; ++a) {
    std::string name = "a";
    name += std::to_string(a);
    cols.push_back({std::move(name), minidb::ValueType::kInt64});
  }
  return minidb::Schema(std::move(cols));
}

/// Ingest the history into a new Cvd through its public API: bulk-load
/// every generated version with Cvd::FromState (the path recovery takes),
/// then commit the base version unchanged as the newest version with
/// CommitTable. Record ids are the generator's; each record is stored by
/// the first version that contains it.
std::unique_ptr<core::Cvd> Ingest(const History& h) {
  const auto& ds = h.ds;
  core::CvdState st;
  st.name = kCvdName;
  st.model = core::DataModelType::kSplitByRlist;
  st.primary_key = {"k"};
  st.data_schema = DataSchema(false).columns();
  for (int a = 0; a < kAttrs; ++a) {
    st.attributes.push_back({a, st.data_schema[a].name, minidb::ValueType::kInt64});
    st.current_attr_ids.push_back(a);
  }
  std::vector<bool> stored(ds.num_distinct_records(), false);
  for (int v = 0; v < ds.num_versions(); ++v) {
    const auto& spec = ds.version(v);
    core::VersionMetadata md;
    md.vid = v + 1;
    md.commit_time = v + 1;
    md.message = "ingest";
    md.attributes = st.current_attr_ids;
    md.num_records = static_cast<int64_t>(spec.records.size());
    std::vector<int64_t> weights;
    for (int p : spec.parents) {
      md.parents.push_back(p + 1);
      weights.push_back(ds.CommonRecords(v, p));
    }
    std::vector<core::NewRecord> fresh;
    for (int64_t rid : spec.records) {
      if (stored[rid]) continue;
      stored[rid] = true;
      minidb::Row row;
      row.reserve(kAttrs);
      for (int a = 0; a < kAttrs; ++a) row.emplace_back(h.Payload(rid)[a]);
      fresh.push_back({rid, std::move(row)});
    }
    st.metadata.push_back(std::move(md));
    st.version_parents.push_back(spec.parents);
    st.version_weights.push_back(std::move(weights));
    st.version_rids.push_back(spec.records);
    st.version_new_records.push_back(std::move(fresh));
  }
  st.next_rid = ds.num_distinct_records();
  st.logical_clock = ds.num_versions();
  auto loaded = core::Cvd::FromState(st);
  CheckOk(loaded.status(), "Cvd::FromState");
  std::unique_ptr<core::Cvd> cvd = loaded.MoveValueOrDie();

  const auto& base = h.BaseRecords();
  Table t("base", DataSchema(true));
  std::vector<int64_t> rows;
  for (int64_t rid : base) {
    rows.push_back(rid);
    rows.insert(rows.end(), h.Payload(rid), h.Payload(rid) + kAttrs);
  }
  t.AppendIntRows(rows.data(), base.size());
  auto vid = cvd->CommitTable(t, {h.base + 1}, "base");
  CheckOk(vid.status(), "Cvd::CommitTable(base)");
  if (vid.ValueOrDie() != h.ingested_versions()) Fatal("ingest: unexpected base version id");
  return cvd;
}

// ---------------------------------------------------------------------------
// Deployment: one durable repository plus the serving layer a workload uses
// ---------------------------------------------------------------------------

struct Deployment {
  std::string dir;
  std::unique_ptr<storage::Repository> repo;
  std::unique_ptr<session::SessionManager> manager;  // in-process workloads
  std::unique_ptr<net::SessionServer> server;        // remote workloads
  std::vector<std::unique_ptr<session::Session>> sessions;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<uint64_t> sids;

  session::SessionManager* mgr() const {
    return server ? server->manager(kCvdName) : manager.get();
  }

  /// Hand back the Cvd, dropping sessions, clients and the server.
  std::unique_ptr<core::Cvd> Release() {
    for (size_t i = 0; i < clients.size(); ++i) {
      ORPHEUS_IGNORE_ERROR(clients[i]->CloseSession(sids[i]));
    }
    clients.clear();
    sessions.clear();
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    if (server) {
      server->Stop();
      cvds = server->ReleaseCvds();
      server.reset();
    } else if (manager) {
      cvds.push_back(manager->Release());
      manager.reset();
    }
    return cvds.empty() ? nullptr : std::move(cvds[0]);
  }
};

struct SetupTimes {
  double ingest_s = 0, log_create_s = 0, warmup_s = 0, total_s = 0;
};

net::ClientOptions ClientOpts(uint64_t seed, int w) {
  net::ClientOptions o;
  o.client_uuid = "perfbench-" + std::to_string(w);
  o.jitter_seed = seed * 16 + static_cast<uint64_t>(w);
  o.call_deadline_ms = 8000;
  o.max_attempts = 12;
  o.backoff_base_ms = 2;
  o.backoff_cap_ms = 100;
  return o;
}

/// Check out `vids` once in a fresh in-process session (the warm-up pass).
/// One thread does it: when four threads first-touch the history at once,
/// some checkouts stall for ~12 ms in stretches that come and go with the
/// shared machine's load, and setup_s would measure those stalls instead
/// of the work.
void WarmUp(session::SessionManager* mgr, const std::vector<core::VersionId>& vids) {
  std::unique_ptr<session::Session> s = mgr->Open();
  for (core::VersionId v : vids) {
    CheckOk(s->Checkout({v}, "warm"), "warm-up checkout");
    CheckOk(s->DiscardStaging("warm"), "warm-up discard");
  }
}

Deployment SetUp(const History& h, Workload wl, uint64_t seed,
                 const std::string& dir, SetupTimes* times) {
  Timer total;
  Deployment d;
  d.dir = dir;
  auto repo = storage::Repository::Open(dir);
  CheckOk(repo.status(), "Repository::Open");
  d.repo = repo.MoveValueOrDie();

  Timer phase;
  std::unique_ptr<core::Cvd> cvd = Ingest(h);
  times->ingest_s = phase.ElapsedSeconds();

  phase.Restart();
  CheckOk(d.repo->LogCreate(*cvd), "Repository::LogCreate");
  times->log_create_s = phase.ElapsedSeconds();

  phase.Restart();
  std::vector<core::VersionId> reads;
  if (wl == Workload::kCommitContend) {
    reads.push_back(cvd->latest());
  } else {
    for (core::VersionId v = 1; v <= cvd->latest(); ++v) reads.push_back(v);
  }
  if (IsRemote(wl)) {
    net::ServerOptions opts;
    opts.listen = "unix:" + dir + ".sock";
    std::vector<std::unique_ptr<core::Cvd>> cvds;
    cvds.push_back(std::move(cvd));
    auto server = net::SessionServer::Start(d.repo.get(), std::move(cvds), opts);
    CheckOk(server.status(), "SessionServer::Start");
    d.server = server.MoveValueOrDie();
    for (int w = 0; w < kClients; ++w) {
      auto c = net::Client::Connect(d.server->address(), ClientOpts(seed, w));
      CheckOk(c.status(), "Client::Connect");
      auto opened = c.ValueOrDie()->Open(kCvdName);
      CheckOk(opened.status(), "Client::Open");
      d.sids.push_back(opened.ValueOrDie().sid);
      d.clients.push_back(c.MoveValueOrDie());
    }
    WarmUp(d.mgr(), reads);
    // One call per client so each connection has served a checkout.
    for (int w = 0; w < kClients; ++w) {
      auto t = d.clients[w]->Checkout(d.sids[w], {reads.back()}, "warm");
      CheckOk(t.status(), "warm-up remote checkout");
    }
  } else {
    d.manager = std::make_unique<session::SessionManager>(std::move(cvd),
                                                          d.repo.get());
    WarmUp(d.manager.get(), reads);
    // One session per client, plus checkout-history's probe session.
    for (int w = 0; w <= kClients; ++w) d.sessions.push_back(d.manager->Open());
  }
  times->warmup_s = phase.ElapsedSeconds();
  times->total_s = total.ElapsedSeconds();
  return d;
}

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

struct Sample {
  double ms;
  bool traced;
};

/// What one client thread did in the timed phase.
struct ClientLog {
  std::vector<Sample> checkout, commit;
  uint64_t attempted = 0, failed = 0;
  uint64_t confirmed = 0, reconciled = 0, conflicted = 0;
  uint64_t ops_in_mode[2] = {0, 0};
  uint64_t retries = 0, reconnects = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// Shared run state: the stop flag; in a --trace 1 run, which kind of
/// window (0 untraced, 1 traced) is open; and the pause handshake that lets
/// checkout-history's commit probe run alone between read windows.
struct RunClock {
  std::atomic<bool> stop{false};
  std::atomic<int> mode{0};
  std::atomic<bool> paused{false};
  std::atomic<int> busy{0};

  /// Client side: false while paused; after true, call EndOp when done.
  bool BeginOp() {
    busy.fetch_add(1);
    if (!paused.load()) return true;
    busy.fetch_sub(1);
    return false;
  }
  void EndOp() { busy.fetch_sub(1); }
  /// Controller side: stop clients starting operations, wait out the ones
  /// in flight.
  void Pause() {
    paused.store(true);
    while (busy.load() != 0) std::this_thread::yield();
  }
  void Resume() { paused.store(false); }
};

bool Unknown(const Status& s) {
  return s.IsDeadlineExceeded() || s.IsUnavailable();
}

/// Per-client state of the commit cycle: the primary keys this client owns
/// (disjoint across clients) and the value it last wrote to each.
struct Editor {
  std::vector<int64_t> slice;
  std::unordered_map<int64_t, int64_t> written;
  uint64_t cycle = 0;
  int w = 0;

  /// Check a checkout of the latest version: the base's row count, and
  /// every edit this client made is visible (read-your-writes).
  bool CheckLatest(const Table& t, size_t expect_rows) const {
    if (t.num_rows() != expect_rows || t.num_columns() != kAttrs + 1) {
      return false;
    }
    const auto& pk = t.column(1).int_data();
    const auto& a1 = t.column(2).int_data();
    size_t seen = 0;
    for (size_t r = 0; r < pk.size(); ++r) {
      auto it = written.find(pk[r]);
      if (it == written.end()) continue;
      if (a1[r] != it->second) return false;
      ++seen;
    }
    return seen == written.size();
  }

  /// Set attribute a1 of the next kEditRows keys of the slice; returns the
  /// planned (pk, value) edits.
  std::vector<std::pair<int64_t, int64_t>> Edit(Table* t) {
    std::vector<std::pair<int64_t, int64_t>> edits;
    for (int i = 0; i < kEditRows; ++i) {
      const int64_t pk = slice[(cycle * kEditRows + i) % slice.size()];
      // Generated payloads are below 1e6, so an edit always changes a1.
      edits.emplace_back(pk, 1000000 + static_cast<int64_t>(cycle) * kClients + w);
    }
    ++cycle;
    const auto& pks = t->column(1).int_data();
    for (size_t r = 0; r < pks.size(); ++r) {
      for (const auto& [pk, value] : edits) {
        if (pks[r] == pk) t->mutable_column(2).SetValue(r, minidb::Value(value));
      }
    }
    return edits;
  }
};

struct Context {
  const History* h;
  Workload wl;
  uint64_t seed;
  size_t latest_rows = 0;  // rows of the base version
  std::vector<std::vector<int64_t>> slices;
};

bool CheckHistoryVersion(const History& h, core::VersionId v, const Table& t) {
  return t.num_rows() == h.VersionRows(v) &&
         t.num_columns() == kAttrs + 1 &&
         TableChecksum(t) == h.version_sum[v - 1];
}

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed operation: records its latency in `into` under the window
/// mode it ended in.
void Record(ClientLog* log, const RunClock& clock, std::vector<Sample>* into,
            double ms) {
  const int mode = clock.mode.load(std::memory_order_relaxed);
  into->push_back({ms, mode == 1});
  ++log->ops_in_mode[mode];
}

// --- in-process --------------------------------------------------------------

void LocalRandomCheckout(const Context& ctx, session::Session* s, Xorshift* rng,
                         const RunClock& clock, ClientLog* log) {
  const core::VersionId v =
      static_cast<core::VersionId>(rng->Uniform(ctx.h->num_versions())) + 1;
  ++log->attempted;
  Status st;
  const double ms = TimeMs([&] { st = s->Checkout({v}, "scan"); });
  if (!st.ok()) {
    log->Fail("checkout: " + st.ToString());
    return;
  }
  Record(log, clock, &log->checkout, ms);
  if (!CheckHistoryVersion(*ctx.h, v, *s->table("scan"))) {
    log->Fail("checkout of v" + std::to_string(v) + " differs from the generated version");
  }
  CheckOk(s->DiscardStaging("scan"), "discard");
}

/// refresh -> checkout latest -> edit own rows -> commit.
void LocalCommitCycle(const Context& ctx, session::Session* s, Editor* ed,
                      const RunClock& clock, ClientLog* log) {
  Status st = s->Refresh();
  if (!st.ok()) {
    ++log->attempted;
    log->Fail("refresh: " + st.ToString());
    return;
  }
  const core::VersionId latest = s->watermark();
  ++log->attempted;
  const double co_ms = TimeMs([&] { st = s->Checkout({latest}, "work"); });
  if (!st.ok()) {
    log->Fail("checkout latest: " + st.ToString());
    return;
  }
  Record(log, clock, &log->checkout, co_ms);
  Table* t = s->table("work");
  if (!ed->CheckLatest(*t, ctx.latest_rows)) {
    log->Fail("checkout of latest v" + std::to_string(latest) +
              " lost rows or this client's earlier edits");
  }
  auto edits = ed->Edit(t);
  ++log->attempted;
  Result<session::CommitOutcome> out = Status::Internal("not run");
  const double ci_ms = TimeMs([&] { out = s->Commit("work", "edit"); });
  if (!out.ok()) {
    log->Fail("commit: " + out.status().ToString());
    ORPHEUS_IGNORE_ERROR(s->DiscardStaging("work"));
    return;
  }
  Record(log, clock, &log->commit, ci_ms);
  ++log->confirmed;
  if (out.ValueOrDie().reconciled) ++log->reconciled;
  if (!out.ValueOrDie().conflicts.empty()) {
    ++log->conflicted;
    log->Fail("commit of disjoint keys reported conflicts");
    return;
  }
  for (const auto& [pk, value] : edits) ed->written[pk] = value;
}

// --- remote ------------------------------------------------------------------

/// Retry a call whose outcome is unknown (the client already retried
/// internally); a commit keeps its pinned stamp across these retries.
template <typename R, typename Fn>
R RetryUnknown(Fn&& fn) {
  R r = fn();
  for (int i = 0; i < kMaxUnknownRetries && !r.ok() && Unknown(r.status()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    r = fn();
  }
  return r;
}

void RemoteRandomCheckout(const Context& ctx, net::Client* c, uint64_t sid,
                          Xorshift* rng, const RunClock& clock, ClientLog* log) {
  const core::VersionId v =
      static_cast<core::VersionId>(rng->Uniform(ctx.h->num_versions())) + 1;
  ++log->attempted;
  Result<Table> t = Status::Internal("not run");
  const double ms = TimeMs([&] {
    t = RetryUnknown<Result<Table>>([&] { return c->Checkout(sid, {v}, "scan"); });
  });
  if (!t.ok()) {
    log->Fail("remote checkout: " + t.status().ToString());
    return;
  }
  Record(log, clock, &log->checkout, ms);
  if (!CheckHistoryVersion(*ctx.h, v, t.ValueOrDie())) {
    log->Fail("remote checkout of v" + std::to_string(v) +
              " differs from the generated version");
  }
}

void RemoteCommitCycle(const Context& ctx, net::Client* c, uint64_t sid,
                       Editor* ed, const RunClock& clock, ClientLog* log) {
  auto latest = RetryUnknown<Result<core::VersionId>>([&] { return c->Refresh(sid); });
  if (!latest.ok()) {
    ++log->attempted;
    log->Fail("remote refresh: " + latest.status().ToString());
    return;
  }
  const core::VersionId v = latest.ValueOrDie();
  ++log->attempted;
  Result<Table> t = Status::Internal("not run");
  const double co_ms = TimeMs([&] {
    t = RetryUnknown<Result<Table>>([&] { return c->Checkout(sid, {v}, "work"); });
  });
  if (!t.ok()) {
    log->Fail("remote checkout latest: " + t.status().ToString());
    return;
  }
  Record(log, clock, &log->checkout, co_ms);
  Table& table = t.ValueOrDie();
  if (!ed->CheckLatest(table, ctx.latest_rows)) {
    log->Fail("remote checkout of latest v" + std::to_string(v) +
              " lost rows or this client's earlier edits");
  }
  auto edits = ed->Edit(&table);
  ++log->attempted;
  Result<session::CommitOutcome> out = Status::Internal("not run");
  const double ci_ms = TimeMs([&] {
    out = RetryUnknown<Result<session::CommitOutcome>>(
        [&] { return c->Commit(sid, table, "edit"); });
  });
  if (!out.ok()) {
    log->Fail("remote commit unresolved: " + out.status().ToString());
    return;
  }
  Record(log, clock, &log->commit, ci_ms);
  ++log->confirmed;
  if (out.ValueOrDie().reconciled) ++log->reconciled;
  if (!out.ValueOrDie().conflicts.empty()) {
    ++log->conflicted;
    log->Fail("remote commit of disjoint keys reported conflicts");
    return;
  }
  for (const auto& [pk, value] : edits) ed->written[pk] = value;
}

void RunClient(const Context& ctx, Deployment* d, int w, RunClock& clock,
               ClientLog* log) {
  Xorshift rng(Mix64(ctx.seed * 1000 + static_cast<uint64_t>(w) + 1));
  Editor ed;
  ed.w = w;
  ed.slice = ctx.slices[w];
  while (!clock.stop.load(std::memory_order_relaxed)) {
    if (!clock.BeginOp()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    switch (ctx.wl) {
      case Workload::kCheckoutHistory:
        LocalRandomCheckout(ctx, d->sessions[w].get(), &rng, clock, log);
        break;
      case Workload::kCommitContend:
        LocalCommitCycle(ctx, d->sessions[w].get(), &ed, clock, log);
        break;
      case Workload::kRemoteMixed:
      case Workload::kRemoteLossy:
        for (int i = 0; i < kRandomCheckoutsPerCycle; ++i) {
          RemoteRandomCheckout(ctx, d->clients[w].get(), d->sids[w], &rng, clock, log);
        }
        RemoteCommitCycle(ctx, d->clients[w].get(), d->sids[w], &ed, clock, log);
        break;
    }
    clock.EndOp();
  }
  if (IsRemote(ctx.wl)) {
    log->retries = d->clients[w]->stats().retries;
    log->reconnects = d->clients[w]->stats().reconnects;
  }
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

/// Exact per-occurrence total and self durations of every span name in the
/// buffered trace. A span whose begin or end fell outside a traced window
/// (or was overwritten) is skipped.
struct SpanTimes {
  std::vector<double> total_us, self_us;
};

std::map<std::string, SpanTimes> SpanTimesFromTrace() {
  std::map<std::string, SpanTimes> out;
  struct Open {
    const char* name;
    uint64_t begin;
    uint64_t child;
  };
  for (const trace::ThreadTrace& th : trace::SnapshotAll()) {
    std::vector<Open> stack;
    for (const trace::Event& ev : th.events) {
      if (ev.type == trace::EventType::kBegin) {
        stack.push_back({ev.name, ev.ts_us, 0});
      } else if (ev.type == trace::EventType::kEnd) {
        size_t i = stack.size();
        while (i > 0 && std::strcmp(stack[i - 1].name, ev.name) != 0) --i;
        if (i == 0) continue;  // its begin is not in the buffer
        stack.resize(i);
        const Open open = stack.back();
        stack.pop_back();
        const uint64_t dur = ev.ts_us >= open.begin ? ev.ts_us - open.begin : 0;
        SpanTimes& st = out[open.name];
        st.total_us.push_back(static_cast<double>(dur));
        st.self_us.push_back(static_cast<double>(dur > open.child ? dur - open.child : 0));
        if (!stack.empty()) stack.back().child += dur;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// Forget the peak resident set so far (Linux clear_refs "5"); false when
/// the kernel refuses, in which case the peak covers the whole process.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Row counts and checksums of the last kReopenChecks versions, read
/// through a fresh session (before close) or the reopened Cvd (after). A
/// failed read is an audit failure.
std::vector<std::pair<size_t, uint64_t>> LatestDigests(
    const std::function<Result<Table>(core::VersionId)>& read,
    core::VersionId latest, std::vector<std::string>* failures) {
  std::vector<std::pair<size_t, uint64_t>> out;
  for (core::VersionId v = std::max(1, latest - kReopenChecks + 1); v <= latest; ++v) {
    Result<Table> t = read(v);
    if (!t.ok()) {
      failures->push_back("reading v" + std::to_string(v) + ": " + t.status().ToString());
      out.emplace_back(0, 0);
      continue;
    }
    out.emplace_back(t.ValueOrDie().num_rows(), TableChecksum(t.ValueOrDie()));
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Fatal("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else Fatal("unknown argument " + k);
  }
  if (a.seconds <= 0) Fatal("--seconds must be positive");
  return a;
}

Workload ParseWorkload(const std::string& name) {
  if (name == "checkout-history") return Workload::kCheckoutHistory;
  if (name == "commit-contend") return Workload::kCommitContend;
  if (name == "remote-mixed") return Workload::kRemoteMixed;
  if (name == "remote-lossy") return Workload::kRemoteLossy;
  Fatal("unknown workload \"" + name +
        "\" (checkout-history, commit-contend, remote-mixed, remote-lossy)");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload wl = ParseWorkload(args.workload);

  // Inputs (not part of set-up time).
  Timer gen_timer;
  const History h = Generate(args.seed);
  const double generate_s = gen_timer.ElapsedSeconds();
  Context ctx;
  ctx.h = &h;
  ctx.wl = wl;
  ctx.seed = args.seed;
  {
    const auto& last = h.BaseRecords();
    ctx.latest_rows = last.size();
    std::vector<int64_t> pks;
    for (int64_t rid : last) pks.push_back(h.Payload(rid)[0]);
    std::sort(pks.begin(), pks.end());
    ctx.slices.resize(kClients);
    for (size_t i = 0; i < pks.size(); ++i) ctx.slices[i % kClients].push_back(pks[i]);
  }

  // Set-up, repeated; the last deployment serves the timed phase.
  std::vector<double> setup_s, ingest_s, warmup_s, log_create_s;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    if (d.repo) {
      d.Release();
      d.repo.reset();
      std::filesystem::remove_all(d.dir);
    }
    SetupTimes t;
    d = SetUp(h, wl, args.seed, "repo" + std::to_string(i), &t);
    setup_s.push_back(t.total_s);
    ingest_s.push_back(t.ingest_s);
    warmup_s.push_back(t.warmup_s);
    log_create_s.push_back(t.log_create_s);
    std::printf("# set-up %d: ingest %.3f s, LogCreate %.3f s, warm-up %.3f s, total %.3f s\n", i,
                t.ingest_s, t.log_create_s, t.warmup_s, t.total_s);
  }

  // Timed phase.
  MetricsRegistry::Global().Reset();
  if (args.trace) {
    trace::SetRingCapacity(kTraceRingEvents);
    trace::Clear();
  }
  if (wl == Workload::kRemoteLossy) {
    failpoint::Reseed(args.seed);
    CheckOk(failpoint::ArmFromSpec(kFaultSpec), "arm fault spec");
  }
  const bool rss_reset = ResetPeakRss();
  RunClock clock;
  std::vector<ClientLog> logs(kClients);
  Editor probe_ed;
  probe_ed.slice = ctx.slices[0];
  ClientLog probe;
  double mode_seconds[2] = {0, 0};
  double timed_s = 0;
  Timer run_timer;
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kClients; ++w) {
      threads.emplace_back([&, w] {
        trace::SetCurrentThreadName("client-" + std::to_string(w));
        RunClient(ctx, &d, w, clock, &logs[w]);
      });
    }
    // Time spent in probe cycles counts toward neither window kind.
    Timer tick, since_toggle, since_probe;
    while (run_timer.ElapsedSeconds() < args.seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      mode_seconds[clock.mode.load()] += tick.ElapsedSeconds();
      tick.Restart();
      if (args.trace && since_toggle.ElapsedSeconds() >= kTraceWindowSeconds) {
        if (clock.mode.load() == 0) trace::Start(); else trace::Stop();
        clock.mode.store(1 - clock.mode.load());
        since_toggle.Restart();
      }
      if (wl == Workload::kCheckoutHistory &&
          since_probe.ElapsedSeconds() >= kProbeEverySeconds) {
        clock.Pause();
        for (int i = 0; i < kProbeCycles; ++i) {
          LocalCommitCycle(ctx, d.sessions[kClients].get(), &probe_ed, clock, &probe);
        }
        clock.Resume();
        since_probe.Restart();
        tick.Restart();
      }
    }
    clock.stop.store(true);
    for (auto& t : threads) t.join();
    timed_s = run_timer.ElapsedSeconds();
    trace::Stop();
  }
  const double peak_rss_mb = PeakRssMb();
  if (wl == Workload::kRemoteLossy) failpoint::DisarmAll();
  const MetricsRegistry::Snapshot reg = MetricsRegistry::Global().TakeSnapshot();
  std::map<std::string, SpanTimes> spans;
  if (args.trace) {
    spans = SpanTimesFromTrace();
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << trace::ToChromeJson();
    }
  }

  ClientLog all;
  for (const ClientLog& l : logs) {
    all.attempted += l.attempted;
    all.failed += l.failed;
    all.confirmed += l.confirmed;
    all.reconciled += l.reconciled;
    all.conflicted += l.conflicted;
    all.retries += l.retries;
    all.reconnects += l.reconnects;
    all.ops_in_mode[0] += l.ops_in_mode[0];
    all.ops_in_mode[1] += l.ops_in_mode[1];
    all.checkout.insert(all.checkout.end(), l.checkout.begin(), l.checkout.end());
    all.commit.insert(all.commit.end(), l.commit.begin(), l.commit.end());
    if (all.first_error.empty()) all.first_error = l.first_error;
  }
  const uint64_t timed_commits = all.commit.size();
  const uint64_t timed_checkouts = all.checkout.size();
  const uint64_t timed_ops = timed_commits + timed_checkouts;

  // checkout-history's readers never commit; its commit samples are the
  // probe's.
  if (wl == Workload::kCheckoutHistory) {
    all.attempted += probe.attempted;
    all.failed += probe.failed;
    all.confirmed += probe.confirmed;
    all.reconciled += probe.reconciled;
    all.commit = probe.commit;
    if (all.first_error.empty()) all.first_error = probe.first_error;
  }

  // Ledger audit: one version per ingested version, confirmed commit and
  // reconciliation merge; the server executed exactly the confirmed ones.
  std::vector<std::string> audit_failures;
  const uint64_t expect_versions =
      h.ingested_versions() + all.confirmed + all.reconciled;
  int versions = 0;
  CheckOk(d.mgr()->ReadCvd([&](const core::Cvd& cvd) {
            versions = cvd.num_versions();
            return Status::OK();
          }),
          "ReadCvd");
  if (static_cast<uint64_t>(versions) != expect_versions) {
    audit_failures.push_back("ledger holds " + std::to_string(versions) +
                             " versions, expected " + std::to_string(expect_versions));
  }
  net::SessionServer::Stats server_stats;
  if (d.server) {
    server_stats = d.server->stats();
    auto auditor = net::Client::Connect(d.server->address());
    CheckOk(auditor.status(), "auditor connect");
    auto listing = auditor.ValueOrDie()->Ls();
    if (!listing.ok() || listing.ValueOrDie().size() != 1 ||
        static_cast<uint64_t>(listing.ValueOrDie()[0].num_versions) != expect_versions ||
        listing.ValueOrDie()[0].failed) {
      audit_failures.push_back("remote ls disagrees with the version ledger");
    }
    if (server_stats.commits != all.confirmed) {
      audit_failures.push_back("server executed " + std::to_string(server_stats.commits) +
                               " commits, " + std::to_string(all.confirmed) + " confirmed");
    }
  }

  // Close (closing checkpoint), reopen, fsck, re-read the latest versions.
  Timer audit_timer;
  std::unique_ptr<session::Session> reader = d.mgr()->Open();
  const auto before = LatestDigests(
      [&](core::VersionId v) -> Result<Table> {
        ORPHEUS_RETURN_NOT_OK(reader->Checkout({v}, "audit"));
        Table t = reader->table("audit")->Clone("audit");
        ORPHEUS_RETURN_NOT_OK(reader->DiscardStaging("audit"));
        return t;
      },
      versions, &audit_failures);
  reader.reset();
  std::unique_ptr<core::Cvd> cvd = d.Release();
  Timer close_timer;
  CheckOk(d.repo->Close({cvd.get()}), "Repository::Close");
  const double close_s = close_timer.ElapsedSeconds();
  cvd.reset();
  d.repo.reset();
  const uint64_t repo_bytes = DirBytes(d.dir);
  auto fsck = storage::Repository::Fsck(d.dir);
  if (!fsck.ok()) audit_failures.push_back("fsck: " + fsck.status().ToString());
  double user_bytes = 0;
  {
    auto reopened = storage::Repository::Open(d.dir);
    CheckOk(reopened.status(), "reopen");
    auto cvds = reopened.ValueOrDie()->TakeCvds();
    if (cvds.size() != 1 || cvds[0]->num_versions() != versions) {
      audit_failures.push_back("reopened repository lost versions");
    } else {
      const auto after = LatestDigests(
          [&](core::VersionId v) { return cvds[0]->Materialize({v}, "audit"); },
          versions, &audit_failures);
      if (after != before) {
        audit_failures.push_back("latest versions check out differently after reopen");
      }
      auto state = cvds[0]->ExportState();
      CheckOk(state.status(), "ExportState");
      double records = 0;
      for (const auto& fresh : state.ValueOrDie().version_new_records) {
        records += static_cast<double>(fresh.size());
      }
      user_bytes = records * kAttrs * 8;
    }
  }
  std::filesystem::remove_all(d.dir);
  std::filesystem::remove(d.dir + ".sock");
  all.failed += audit_failures.size();
  all.attempted += audit_failures.size();
  const double audit_s = audit_timer.ElapsedSeconds();

  // --- metrics ---
  // Latencies scaled from ms (1000: to us), optionally only those of
  // operations that ended in a traced window.
  auto latencies = [](const std::vector<Sample>& v, bool traced_only, double scale) {
    std::vector<double> out;
    for (const Sample& s : v) {
      if (!traced_only || s.traced) out.push_back(s.ms * scale);
    }
    return out;
  };
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  };
  auto counter = [&](std::string_view name) -> double {
    for (const auto& [n, v] : reg.counters) {
      if (n == name) return static_cast<double>(v);
    }
    return 0.0;
  };
  const double setup_median = Median(setup_s);
  if (!args.trace) {
    const std::vector<double> co = latencies(all.checkout, false, 1.0);
    const std::vector<double> ci = latencies(all.commit, false, 1.0);
    const std::string nco = "n=" + std::to_string(co.size());
    const std::string nci = "n=" + std::to_string(ci.size());
    // The p95s are printed but left out of the result: on a shared host
    // they swing with its I/O and CPU stalls (see README.md).
    std::printf("# checkout_p95_ms %.6g ms, commit_p95_ms %.6g ms (not in the result)\n",
                Quantile(co, 0.95), Quantile(ci, 0.95));
    add("checkout_p50_ms", Quantile(co, 0.5), "ms", nco);
    add("commit_p50_ms", Quantile(ci, 0.5), "ms", nci);
    add("ops_per_s", Ratio(static_cast<double>(timed_ops), mode_seconds[0]), "ops/s",
        std::to_string(kClients) + " closed-loop clients");
    add("setup_s", setup_median, "s", "median of " + std::to_string(kSetups));
    add("storage_bytes_per_user_byte", Ratio(static_cast<double>(repo_bytes), user_bytes),
        "ratio");
    add("peak_rss_mb", peak_rss_mb, "MB", rss_reset ? "timed phase" : "whole process");
  } else {
    const double ops_traced = Ratio(static_cast<double>(all.ops_in_mode[1]), mode_seconds[1]);
    const double ops_untraced = Ratio(static_cast<double>(all.ops_in_mode[0]), mode_seconds[0]);
    auto span_med = [&](const char* name, bool self) {
      auto it = spans.find(name);
      if (it == spans.end()) return 0.0;
      return Median(self ? it->second.self_us : it->second.total_us);
    };
    auto span_count = [&](std::string_view name) -> double {
      double n = 0;
      for (const auto& s : reg.spans) {
        const size_t slash = s.path.rfind('/');
        const std::string_view leaf = slash == std::string::npos
                                          ? std::string_view(s.path)
                                          : std::string_view(s.path).substr(slash + 1);
        if (leaf == name) n += static_cast<double>(s.count);
      }
      return n;
    };
    const bool remote = IsRemote(wl);
    const double cvd_checkouts = span_count("cvd.checkout");
    const double commits = static_cast<double>(all.commit.size());
    const double ops = static_cast<double>(timed_ops);
    const std::vector<double> co_us = latencies(all.checkout, true, 1000.0);
    const std::vector<double> ci_us = latencies(all.commit, true, 1000.0);
    add("core.checkout_us", span_med("cvd.checkout", false), "us");
    add("core.checkout_self_us", span_med("cvd.checkout", true), "us");
    add("core.records_materialized_per_checkout",
        Ratio(counter("cvd.checkout.records_materialized"), cvd_checkouts), "count");
    add("core.commit_us", span_med("cvd.commit", false), "us");
    add("core.commit_rows_scanned_per_commit",
        Ratio(counter("cvd.commit.rows_scanned"), span_count("cvd.commit")), "count");
    add("minidb.join_us", span_med("minidb.join.ridset", false), "us");
    add("minidb.rows_copied_per_checkout", Ratio(counter("minidb.rows_copied"), cvd_checkouts),
        "count");
    add("ridset.scanned_per_row_out",
        Ratio(counter("ridset.intersect_rows.scanned"),
              counter("cvd.checkout.records_materialized")),
        "ratio");
    add("ridset.materialize_calls_per_commit", Ratio(counter("ridset.materialize.calls"), commits),
        "count");
    add("session.checkout_us", remote ? 0.0 : Median(co_us), "us");
    // Totals of a top-level span over every call (MetricsRegistry).
    struct SpanSums {
      double calls = 0, total_us = 0, self_us = 0;
    };
    auto span_sums = [&](std::string_view path) {
      SpanSums sums;
      for (const auto& s : reg.spans) {
        if (s.path != path) continue;
        sums.calls += static_cast<double>(s.count);
        sums.total_us += static_cast<double>(s.total_us);
        sums.self_us += static_cast<double>(s.self_us);
      }
      return sums;
    };
    // A mean: most checkouts wait ~1 us, so the median would hide the waits.
    const SpanSums checkout_span = span_sums("session.checkout");
    add("session.checkout_wait_us", Ratio(checkout_span.self_us, checkout_span.calls), "us");
    add("session.commit_us", remote ? 0.0 : Median(ci_us), "us");
    add("session.reconcile_us", span_med("session.reconcile", false), "us");
    const SpanSums commit_span = span_sums("session.commit");
    add("session.commit_unattributed_share",
        Ratio(commit_span.self_us, commit_span.total_us), "ratio");
    add("session.reconciled_ratio",
        Ratio(counter("session.commit.reconciled"), counter("session.commit.applied")), "ratio");
    add("storage.wal_append_batch_us", span_med("storage.wal.append_batch", false), "us");
    add("storage.fsyncs_per_commit", Ratio(counter("storage.wal.syncs"), commits), "ratio");
    double group_p50 = 0;
    for (const auto& [n, hs] : reg.histograms) {
      if (n == "session.commit.group_size") group_p50 = static_cast<double>(hs.p50);
    }
    add("storage.group_size_p50", group_p50, "count");
    add("storage.wal_bytes_per_commit", Ratio(counter("storage.wal.append_bytes"), commits),
        "bytes");
    add("storage.snapshot_write_s", Median(log_create_s) + close_s, "s");
    add("setup.ingest_s", Median(ingest_s), "s");
    add("setup.warmup_s", Median(warmup_s), "s");
    const double net_co = remote ? Median(co_us) : 0.0;
    const double net_ci = remote ? Median(ci_us) : 0.0;
    add("net.checkout_call_us", net_co, "us");
    add("net.commit_call_us", net_ci, "us");
    add("net.checkout_wire_us", remote ? net_co - span_med("session.checkout", false) : 0.0, "us");
    add("net.commit_wire_us", remote ? net_ci - span_med("session.commit", false) : 0.0, "us");
    add("net.bytes_per_op", Ratio(counter("net.bytes_sent") + counter("net.bytes_recv"), ops),
        "bytes");
    add("net.requests_per_op", Ratio(counter("net.server.requests"), ops), "ratio");
    // The fault path does work only under injected faults, so the retry
    // metrics are reported on remote-lossy alone.
    if (wl == Workload::kRemoteLossy) {
      add("net.retries_per_op", Ratio(static_cast<double>(all.retries), ops), "ratio");
      add("net.reconnects_per_retry",
          Ratio(static_cast<double>(all.reconnects), static_cast<double>(all.retries)), "ratio");
      add("net.replayed_share",
          Ratio(static_cast<double>(server_stats.commits_replayed),
                static_cast<double>(server_stats.commits)),
          "ratio");
    }
    add("trace.overhead_share", ops_untraced > 0 ? ops_traced / ops_untraced - 1.0 : 0.0,
        "ratio", "traced " + std::to_string(ops_traced) + " vs untraced " +
                     std::to_string(ops_untraced) + " ops/s");

    std::printf("# self-time share of top-level spans (traced run)\n");
    for (const auto& s : reg.spans) {
      if (s.path.find('/') != std::string::npos || s.total_us == 0) continue;
      std::printf("#   %-28s self share %.3f of %.3f s total, %" PRIu64 " calls\n", s.path.c_str(),
                  static_cast<double>(s.self_us) / static_cast<double>(s.total_us),
                  static_cast<double>(s.total_us) / 1e6, s.count);
    }
  }

  const bool correct = all.failed == 0;
  std::printf("# workload %s seed %" PRIu64 ": %" PRIu64 " checkouts, %" PRIu64
              " commits (%" PRIu64 " reconciled, %" PRIu64 " with conflicts), %" PRIu64
              " of %" PRIu64 " operations failed (op_fail_ratio %.6f)\n",
              args.workload.c_str(), args.seed, timed_checkouts,
              static_cast<uint64_t>(all.commit.size()), all.reconciled, all.conflicted, all.failed,
              all.attempted, Ratio(static_cast<double>(all.failed),
                                   static_cast<double>(all.attempted)));
  std::printf("# wall time: generate %.2f s, %d set-ups %.2f s, timed %.2f s, "
              "close/reopen/fsck %.2f s\n",
              generate_s, kSetups, [&] {
                double t = 0;
                for (double x : setup_s) t += x;
                return t;
              }(), timed_s, audit_s);
  if (!all.first_error.empty()) std::printf("# first failure: %s\n", all.first_error.c_str());
  for (const std::string& f : audit_failures) std::printf("# audit failure: %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted);
  json += ", \"failed\": " + std::to_string(all.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace orpheus::perfbench

int main(int argc, char** argv) { return orpheus::perfbench::Main(argc, argv); }

// socs_perfbench: the processes of one benchmark run. run.py starts them;
// each prints one JSON object as the last line of its standard output.
//
//   serve   --workload W --seed S --data-dir D
//       Builds P(ra, dec, objid) from the seed under a durable store, takes
//       the initial checkpoint, serves it with SqlServer on an ephemeral
//       port, prints "READY <port>", and stops gracefully on "stop" or EOF
//       on stdin. Reports the server's counters, ledger and peak RSS.
//   load    --workload W --seed S --port P --seconds T [--trace 1 --spans F]
//       The clients: one closed-loop TCP connection per stream, timed for
//       T seconds, then the write tail on one connection. Checks every reply
//       after the timed phase against the benchmark's own oracle.
//   replay  --workload W --seed S --seconds T --order F --data-dir D --spans F
//       The traced in-process replay of the statement order a traced load
//       recorded: parse, compile, optimize, interpret, serialize and parse
//       each reply, with one span per call; plus Session::Execute against
//       one TCP connection for the wire overhead.
//   recover --workload W --seed S --data-dir D --acked-rows N [--spans F]
//       A fresh process reopening the data directory: PersistentStore::Open
//       plus RestoreDatabase, then the recovery checks.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "core/apm.h"
#include "core/deferred_segmentation.h"
#include "engine/catalog.h"
#include "engine/mal_interpreter.h"
#include "engine/optimizer.h"
#include "exec/task_scheduler.h"
#include "oracle.h"
#include "persist/bootstrap.h"
#include "persist/store.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "sql/compiler.h"
#include "sql/parser.h"
#include "workload.h"

namespace perfbench {
namespace {

using socs::server::WireReply;

// The shipped socs_server's execution shape: 4 exec threads, 2 statement
// executors, APM bounds of 64 KiB / 256 KiB over deferred segmentation.
constexpr size_t kExecThreads = 4;
constexpr size_t kExecutors = 2;
// Untimed start of every run (see Load).
constexpr double kWarmupSeconds = 3.0;
// Slices of the timed window (see Load).
constexpr size_t kSlices = 5;
// Pace of the write tail (see Load).
constexpr int64_t kTailPeriodMs = 25;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- flags ------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = values_.find(k);
    return it == values_.end() ? def : it->second;
  }
  uint64_t Int(const std::string& k, uint64_t def = 0) const {
    auto it = values_.find(k);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- JSON output --------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(k, buf);
  }
  Json& Int(const std::string& k, uint64_t v) { return Raw(k, std::to_string(v)); }
  Json& Strs(const std::string& k, const std::vector<std::string>& v) {
    std::string a = "[";
    for (size_t i = 0; i < v.size(); ++i) a += (i ? "," : "") + Quote(v[i]);
    return Raw(k, a + "]");
  }
  Json& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + Quote(k) + ":" + v;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- spans ------------------------------------------------------------------

/// Spans of one thread, kept in memory until the process writes them out.
class SpanLog {
 public:
  SpanLog(bool on, uint64_t lane) : on_(on), next_id_((lane << 40) + 1) {}
  bool on() const { return on_; }
  uint64_t NewId() { return next_id_++; }
  void Add(uint64_t id, uint64_t parent, int64_t stmt, const char* cls,
           const char* name, int64_t t0, int64_t t1) {
    if (on_) spans_.push_back({id, parent, stmt, cls, name, t0, t1});
  }
  /// Convenience for a leaf span with a fresh id.
  void Leaf(uint64_t parent, int64_t stmt, const char* cls, const char* name,
            int64_t t0, int64_t t1) {
    if (on_) Add(NewId(), parent, stmt, cls, name, t0, t1);
  }

  static bool Write(const std::string& path, const std::string& process,
                    const std::vector<const SpanLog*>& logs) {
    std::ofstream out(path, std::ios::app);
    for (const SpanLog* log : logs) {
      for (const Span& s : log->spans_) {
        out << "{\"process\":" << Quote(process) << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"stmt\":" << s.stmt
            << ",\"class\":" << Quote(s.cls) << ",\"name\":" << Quote(s.name)
            << ",\"start_ns\":" << s.t0 << ",\"end_ns\":" << s.t1 << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    uint64_t id, parent;
    int64_t stmt;
    const char* cls;
    const char* name;
    int64_t t0, t1;
  };
  bool on_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Statement id carried by every span of one statement.
int64_t StmtId(size_t conn, uint64_t i) {
  return static_cast<int64_t>(conn) * 1'000'000'000LL + static_cast<int64_t>(i);
}

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v->size()) return v->back();
  return (*v)[i] + (pos - static_cast<double>(i)) * ((*v)[i + 1] - (*v)[i]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

uint64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// --- the served database --------------------------------------------------------

/// Catalog, segment space, scheduler and durable store of one process.
struct Database {
  socs::Catalog catalog;
  std::unique_ptr<socs::SegmentSpace> space;
  std::unique_ptr<socs::TaskScheduler> sched;
  std::unique_ptr<socs::persist::PersistentStore> store;
};

socs::SegmentSpace::Options SpaceOptions(const Spec& spec) {
  socs::SegmentSpace::Options o;
  o.compression = spec.compression;  // kernels stay at their default (on)
  return o;
}

std::string OpenStore(const std::string& dir, Database* db) {
  ::mkdir(dir.c_str(), 0755);
  socs::persist::PersistentStore::Options popts;
  popts.dir = dir;  // fsync_data stays at the shipped default (true)
  auto opened = socs::persist::PersistentStore::Open(std::move(popts));
  if (!opened.ok()) return "open " + dir + ": " + opened.status().ToString();
  db->store = std::move(*opened);
  db->space->set_durability(db->store.get());
  return "";
}

/// Builds P from the seed into a fresh durable store at `dir` and commits the
/// initial checkpoint (the shipped server's first boot with --data-dir).
std::string BuildDatabase(const Spec& spec, const std::string& dir,
                          Database* db, SpanLog* spans,
                          std::vector<double>* checkpoint_ms) {
  db->space = std::make_unique<socs::SegmentSpace>(socs::CostParams{}, 0,
                                                   SpaceOptions(spec));
  db->sched = std::make_unique<socs::TaskScheduler>(kExecThreads);
  if (std::string err = OpenStore(dir, db); !err.empty()) return err;

  Table t = MakeTable(spec);
  std::vector<socs::OidValue> ra(t.ra.size());
  std::vector<double> dec(t.dec.size());
  std::vector<int64_t> objid(t.ra.size());
  for (size_t i = 0; i < t.ra.size(); ++i) {
    ra[i] = {i, t.ra[i]};
    dec[i] = t.dec[i];
    objid[i] = kObjidBase + static_cast<int64_t>(i);
  }
  t = Table{};
  auto strat = std::make_unique<socs::DeferredSegmentation<socs::OidValue>>(
      std::move(ra), socs::ValueRange(kRaDomainLo, kRaDomainHi),
      std::make_unique<socs::Apm>(64 * socs::kKiB, 256 * socs::kKiB),
      db->space.get());
  auto col = std::make_unique<socs::SegmentedColumn>(
      socs::Catalog::SegHandle("P", "ra"), socs::ValType::kDbl, std::move(strat),
      db->space.get());
  socs::Status st = db->catalog.AddSegmentedColumn("P", "ra", std::move(col));
  if (st.ok()) st = db->catalog.AddColumn("P", "dec", socs::TypedVector::Of(dec));
  if (st.ok()) st = db->catalog.AddColumn("P", "objid", socs::TypedVector::Of(objid));
  if (!st.ok()) return "build catalog: " + st.ToString();

  const int64_t t0 = NowNs();
  auto gen = socs::persist::CheckpointNow(db->store.get(), db->catalog);
  const int64_t t1 = NowNs();
  spans->Leaf(0, -1, "checkpoint", "persist.CheckpointNow", t0, t1);
  checkpoint_ms->push_back(static_cast<double>(t1 - t0) / 1e6);
  if (!gen.ok()) return "initial checkpoint: " + gen.status().ToString();
  return "";
}

/// The introspection replies, read through an in-process session.
struct Introspection {
  uint64_t layout_segments = 0;
  uint64_t layout_count_sum = 0;
  uint64_t generation = 0, live_bytes = 0, dead_bytes = 0;
  std::string error;
};

/// Column `name` of a reply row, as an unsigned integer.
uint64_t Cell(const WireReply& r, const std::string& row, const std::string& name) {
  std::stringstream ss(row);
  std::string cell;
  for (const std::string& col : r.columns) {
    if (!std::getline(ss, cell, ',')) break;
    if (col == name) return std::strtoull(cell.c_str(), nullptr, 10);
  }
  return 0;
}

Introspection Introspect(Database* db) {
  Introspection in;
  socs::server::Session session(&db->catalog, nullptr);
  session.set_admin(db->store.get());
  const WireReply layout = session.Execute("#layout");
  const WireReply persist = session.Execute("#persist");
  if (!layout.ok || !persist.ok || persist.rows.size() != 1) {
    in.error = "introspection failed: " + layout.error + persist.error;
    return in;
  }
  for (const std::string& row : layout.rows) {
    ++in.layout_segments;
    in.layout_count_sum += Cell(layout, row, "count");
  }
  in.generation = Cell(persist, persist.rows[0], "generation");
  in.live_bytes = Cell(persist, persist.rows[0], "live_bytes");
  in.dead_bytes = Cell(persist, persist.rows[0], "dead_bytes");
  if (persist.rows[0].find(",ok") == std::string::npos) {
    in.error = "store health: " + persist.rows[0];
  }
  return in;
}

// --- serve ----------------------------------------------------------------------

int Serve(const Spec& spec, const Flags& flags) {
  SpanLog spans(false, 0);
  std::vector<double> checkpoint_ms;
  Database db;
  if (std::string err = BuildDatabase(spec, flags.Str("data-dir"), &db, &spans,
                                      &checkpoint_ms);
      !err.empty()) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return 1;
  }
  socs::server::SqlServer::Options opts;
  opts.executors = kExecutors;
  opts.persist = db.store.get();  // checkpoints at start and at Stop() only
  socs::server::SqlServer srv(&db.catalog, db.sched.get(), opts);
  if (socs::Status st = srv.Start(); !st.ok()) {
    std::fprintf(stderr, "serve: start: %s\n", st.ToString().c_str());
    return 1;
  }
  const Introspection before = Introspect(&db);
  std::printf("READY %u\n", srv.port());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
  }
  srv.Stop();
  const socs::server::SqlServer::MaintenanceLedger ledger = srv.Ledger();
  const uint64_t peak_rss_kb = PeakRssKb();
  const Introspection after = Introspect(&db);
  const socs::StatusOr<uint64_t> row_count = db.catalog.RowCount("P");
  const uint64_t rows = row_count.ok() ? *row_count : 0;

  std::vector<std::string> errors;
  if (!before.error.empty()) errors.push_back(before.error);
  if (!after.error.empty()) errors.push_back(after.error);
  if (ledger.schedules != ledger.runs + ledger.skips) {
    errors.push_back("maintenance ledger unbalanced: schedules " +
                     std::to_string(ledger.schedules) + " != runs " +
                     std::to_string(ledger.runs) + " + skips " +
                     std::to_string(ledger.skips));
  }
  if (ledger.columns_with_pending_work != 0) {
    errors.push_back("pending maintenance after Stop()");
  }
  if (after.layout_count_sum != rows) {
    errors.push_back("#layout counts sum to " + std::to_string(after.layout_count_sum) +
                     ", table has " + std::to_string(rows) + " rows");
  }
  Json j;
  j.Strs("errors", errors)
      .Int("statements", srv.statements_executed())
      .Int("admission_waits", srv.admission_waits())
      .Int("peak_session_queue", srv.peak_session_queue())
      .Int("batched_statements", srv.batched_statements())
      .Int("shared_scans_saved", srv.shared_scans_saved())
      .Int("maintenance_schedules", ledger.schedules)
      .Int("maintenance_runs", ledger.runs)
      .Int("maintenance_skips", ledger.skips)
      .Int("background_splits", ledger.background_total.splits)
      .Int("background_write_bytes", ledger.background_total.write_bytes)
      .Int("peak_rss_kb", peak_rss_kb)
      .Int("rows", rows)
      .Int("layout_segments", after.layout_segments)
      .Int("checkpoints", after.generation - before.generation)
      .Int("live_bytes", after.live_bytes)
      .Int("dead_bytes", after.dead_bytes)
      .Int("bytes_written", after.live_bytes + after.dead_bytes -
                                before.live_bytes - before.dead_bytes);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// --- load -----------------------------------------------------------------------

/// Where a statement ran: before the timed window, in it, or in the write
/// tail after it.
enum class Phase { kWarmup, kTimed, kTail };

struct Sample {
  size_t conn = 0;
  uint64_t i = 0;  // position in the connection's statement sequence
  int64_t t0 = 0, t1 = 0;
  Phase phase = Phase::kTimed;
  Digest digest;
  socs::QueryExecution stats;
};

struct ConnResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string broken;  // the connection itself failed
  int64_t end = 0;
};

/// Runs statement `i` of `stream` on `conn` and records it.
bool RunOne(socs::client::Connection* conn, const std::vector<Stmt>& stream,
            size_t c, uint64_t i, Phase phase, const Oracle& oracle,
            ConnResult* out) {
  const Stmt& st = stream[i % stream.size()];
  Sample s;
  s.conn = c;
  s.i = i;
  s.phase = phase;
  s.t0 = NowNs();
  auto reply = conn->Execute(st.text);
  s.t1 = NowNs();
  ++out->attempted;
  if (!reply.ok()) {
    ++out->failed;
    out->broken = reply.status().ToString();
    return false;
  }
  if (!reply->ok) ++out->failed;
  s.digest = DigestReply(*reply, st.kind, oracle);
  s.stats = reply->stats;
  out->samples.push_back(std::move(s));
  return true;
}

int Load(const Spec& spec, uint64_t seed, const Flags& flags) {
  const double seconds = static_cast<double>(flags.Int("seconds", 10));
  const bool trace = flags.Int("trace") != 0;
  const uint16_t port = static_cast<uint16_t>(flags.Int("port"));

  const Oracle oracle(spec, seed, MakeTable(spec));
  std::vector<std::vector<Stmt>> streams;
  for (size_t c = 0; c < spec.connections; ++c) {
    streams.push_back(MakeStream(spec, seed, c));
  }
  const std::vector<std::string> selftest = SelfTest(spec, streams[1].front(), oracle);
  std::vector<socs::client::Connection> conns;
  for (size_t c = 0; c < spec.connections; ++c) {
    auto conn = socs::client::Connection::Connect("127.0.0.1", port);
    if (!conn.ok()) {
      std::fprintf(stderr, "load: connect: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    conns.push_back(std::move(*conn));
  }

  // Every connection is a closed loop. The first kWarmupSeconds let the
  // freshly loaded, unsegmented column take its first splits; the timed
  // window follows.
  std::vector<ConnResult> per(spec.connections);
  const int64_t start = NowNs();
  const int64_t window = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t deadline = window + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; NowNs() < deadline; ++i) {
        const Phase phase = NowNs() < window ? Phase::kWarmup : Phase::kTimed;
        if (!RunOne(&conns[c], streams[c], c, i, phase, oracle, &per[c])) break;
      }
      per[c].end = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t end = window;
  for (const ConnResult& r : per) end = std::max(end, r.end);

  // The codec mix at the end of the timed window, before the write tail
  // rewrites the segments it touches raw.
  const auto compression = conns[0].Execute("#compression");
  uint64_t logical = 0, physical = 0, decode_cache = 0;
  if (compression.ok() && compression->ok) {
    for (const std::string& row : compression->rows) {
      logical += Cell(*compression, row, "logical_bytes");
      physical += Cell(*compression, row, "physical_bytes");
      decode_cache += Cell(*compression, row, "decode_cache_bytes");
    }
  }

  // Write tail: the insert stream on one connection after the reads are
  // done, one INSERT every kTailPeriodMs. Sent back to back, an INSERT
  // queued behind the background re-encoding its predecessor triggered, and
  // the tail's p95 spread by a third between runs; paced at 10 ms, the
  // tail's segment-file writes (about half a megabyte an INSERT) ran at
  // 50 MB/s and more tails ran slow throughout. No SELECT runs beside an
  // INSERT: a SELECT planned while an INSERT's copy-on-write frees a segment
  // can abort the server (see CHANGES.md), which no run may depend on.
  const std::vector<Stmt> tail = MakeInsertStream(spec, seed);
  const int64_t tail_start = NowNs();
  for (uint64_t i = 0; i < tail.size(); ++i) {
    const int64_t slot = tail_start + static_cast<int64_t>(i) * kTailPeriodMs * 1000000;
    std::this_thread::sleep_for(std::chrono::nanoseconds(slot - NowNs()));
    if (!RunOne(&conns[0], tail, 0, i, Phase::kTail, oracle, &per[0])) break;
  }
  for (socs::client::Connection& conn : conns) conn.Close();

  // Checks, off the timed path.
  const auto stmt_of = [&](const Sample& s) -> const Stmt& {
    const std::vector<Stmt>& stream = s.phase == Phase::kTail ? tail : streams[s.conn];
    return stream[s.i % stream.size()];
  };
  uint64_t attempted = 0, failed = 0, acked_rows = 0;
  for (const ConnResult& r : per) {
    attempted += r.attempted;
    failed += r.failed;
    for (const Sample& s : r.samples) {
      if (s.digest.error.empty() && stmt_of(s).kind == Kind::kInsert) {
        acked_rows += stmt_of(s).insert_rows;
      }
    }
  }
  std::vector<std::string> errors = selftest;
  if (!compression.ok() || !compression->ok) errors.push_back("#compression failed");
  uint64_t mismatches = 0;
  for (const ConnResult& r : per) {
    if (!r.broken.empty()) errors.push_back("connection broke: " + r.broken);
    for (const Sample& s : r.samples) {
      const Stmt& st = stmt_of(s);
      std::string err = s.digest.error;
      if (err.rfind("ERR ", 0) == 0) {  // a failed operation, counted above
        if (errors.size() < 10) errors.push_back(st.text.substr(0, 120) + ": " + err);
        continue;
      }
      err = CheckReply(st, s.digest, oracle);
      if (!err.empty() && ++mismatches <= 5) {
        errors.push_back(st.text.substr(0, 120) + ": " + err);
      }
    }
  }

  // Latencies and per-statement averages come from the timed window (the
  // write tail supplies the insert latencies); totals of adaptive work cover
  // the whole run.
  // The timed window is cut into kSlices equal slices; throughput and
  // SELECT latency are the median over the slices of each slice's figure,
  // so a burst of outside load in one slice does not move the result.
  // INSERT latency is likewise the median over kSlices runs of consecutive
  // INSERTs.
  const int64_t slice_ns = static_cast<int64_t>(seconds * 1e9 / kSlices);
  const auto slice_of = [&](const Sample& s) {
    return std::min<size_t>(kSlices - 1, static_cast<size_t>((s.t1 - window) / slice_ns));
  };
  std::vector<std::vector<double>> sel_ms(kSlices);
  std::vector<double> slice_stmts(kSlices, 0.0), ins_ms;
  uint64_t selects = 0, inserts = 0;
  socs::QueryExecution sel_sum, ins_sum, all_sum;
  double sel_wall_s = 0.0;
  for (const ConnResult& r : per) {
    for (const Sample& s : r.samples) {
      all_sum += s.stats;
      if (s.phase == Phase::kWarmup) continue;
      const double ms = static_cast<double>(s.t1 - s.t0) / 1e6;
      const bool timed = s.phase == Phase::kTimed;
      if (timed) slice_stmts[slice_of(s)] += 1.0;
      if (IsSelect(stmt_of(s).kind)) {
        ++selects;
        sel_ms[slice_of(s)].push_back(ms);
        sel_sum += s.stats;
        sel_wall_s += ms / 1e3;
      } else {
        ins_ms.push_back(ms);  // in send order: the tail uses one connection
        ins_sum += s.stats;
      }
    }
  }
  // The last slice also holds the statements in flight at the deadline.
  inserts = ins_ms.size();
  std::vector<double> rate(kSlices), p50(kSlices), p95(kSlices);
  std::vector<double> ins_p50(kSlices), ins_p95(kSlices);
  for (size_t k = 0; k < kSlices; ++k) {
    std::vector<double> run(ins_ms.begin() + k * inserts / kSlices,
                            ins_ms.begin() + (k + 1) * inserts / kSlices);
    ins_p50[k] = Quantile(&run, 0.50);
    ins_p95[k] = Quantile(&run, 0.95);
  }
  for (size_t k = 0; k < kSlices; ++k) {
    const double len_ns = k + 1 < kSlices ? static_cast<double>(slice_ns)
                                          : static_cast<double>(end - window) -
                                                static_cast<double>(slice_ns) * k;
    rate[k] = slice_stmts[k] / (len_ns / 1e9);
    p50[k] = Quantile(&sel_ms[k], 0.50);
    p95[k] = Quantile(&sel_ms[k], 0.95);
  }

  if (trace) {
    // One span per TCP statement, and the send order for the replay.
    static constexpr const char* kSpanName[] = {"tcp.warmup_statement", "tcp.statement",
                                                "tcp.tail_statement"};
    std::vector<SpanLog> logs;
    std::vector<std::pair<int64_t, std::string>> order;
    for (size_t c = 0; c < per.size(); ++c) {
      logs.emplace_back(true, c + 1);
      for (const Sample& s : per[c].samples) {
        logs.back().Leaf(0, StmtId(c, s.i), KindName(stmt_of(s).kind),
                         kSpanName[static_cast<int>(s.phase)], s.t0, s.t1);
        if (s.phase != Phase::kTail) {
          order.push_back({s.t0, std::to_string(c) + " " + std::to_string(s.i)});
        }
      }
    }
    std::vector<const SpanLog*> ptrs;
    for (const SpanLog& l : logs) ptrs.push_back(&l);
    SpanLog::Write(flags.Str("spans"), "load", ptrs);
    std::sort(order.begin(), order.end());
    std::ofstream out(flags.Str("order"));
    for (const auto& [t, line] : order) out << line << "\n";
  }

  const double n_sel = std::max<double>(1.0, static_cast<double>(selects));
  const double n_ins = std::max<double>(1.0, static_cast<double>(inserts));
  const double sim_s = sel_sum.TotalSeconds();
  Json j;
  j.Strs("errors", errors)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Int("mismatches", mismatches)
      .Int("acked_rows", acked_rows)
      .Int("selects", selects)
      .Int("inserts", inserts)
      .Num("stmt_per_s", Quantile(&rate, 0.5))
      .Num("select_p50_ms", Quantile(&p50, 0.5))
      .Num("select_p95_ms", Quantile(&p95, 0.5))
      .Num("insert_p50_ms", Quantile(&ins_p50, 0.5))
      .Num("insert_p95_ms", Quantile(&ins_p95, 0.5))
      .Num("read_bytes_per_select", sel_sum.read_bytes / n_sel)
      .Num("segments_scanned_per_select", sel_sum.segments_scanned / n_sel)
      .Num("decode_bytes_per_select", sel_sum.decode_bytes / n_sel)
      .Int("splits", all_sum.splits)
      .Int("reorg_write_bytes", all_sum.write_bytes - ins_sum.write_bytes)
      .Num("append_write_bytes_per_insert", ins_sum.write_bytes / n_ins)
      .Int("segments_recompressed", all_sum.segments_recompressed)
      .Int("logical_bytes", logical)
      .Int("physical_bytes", physical)
      .Int("decode_cache_bytes", decode_cache)
      .Num("simulated_ms_per_select", sim_s * 1e3 / n_sel)
      .Num("wall_per_simulated", sim_s > 0 ? sel_wall_s / sim_s : 0.0);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// --- replay -----------------------------------------------------------------------

/// Splits a serialized reply block into lines for server::ParseReply.
std::function<bool(std::string*)> LineReader(const std::string& block, size_t* pos) {
  return [&block, pos](std::string* line) {
    if (*pos >= block.size()) return false;
    const size_t nl = block.find('\n', *pos);
    const size_t stop = nl == std::string::npos ? block.size() : nl;
    line->assign(block, *pos, stop - *pos);
    *pos = stop + 1;
    return true;
  };
}

int Replay(const Spec& spec, uint64_t seed, const Flags& flags) {
  const double seconds = static_cast<double>(flags.Int("seconds", 10));
  SpanLog spans(true, 100);
  std::vector<double> checkpoint_ms;
  Database db;
  if (std::string err = BuildDatabase(spec, flags.Str("data-dir"), &db, &spans,
                                      &checkpoint_ms);
      !err.empty()) {
    std::fprintf(stderr, "replay: %s\n", err.c_str());
    return 1;
  }
  const Oracle oracle(spec, seed, MakeTable(spec));
  std::vector<std::vector<Stmt>> streams;
  for (size_t c = 0; c < spec.connections; ++c) {
    streams.push_back(MakeStream(spec, seed, c));
  }
  std::vector<std::pair<size_t, uint64_t>> order;
  {
    std::ifstream in(flags.Str("order"));
    size_t c = 0;
    uint64_t i = 0;
    while (in >> c >> i) {
      if (c < streams.size()) order.push_back({c, i});
    }
  }

  // A one-connection server on the same catalog for the wire comparison.
  socs::server::SqlServer::Options opts;
  opts.executors = kExecutors;
  socs::server::SqlServer srv(&db.catalog, db.sched.get(), opts);
  if (socs::Status st = srv.Start(); !st.ok()) {
    std::fprintf(stderr, "replay: start: %s\n", st.ToString().c_str());
    return 1;
  }
  auto conn = socs::client::Connection::Connect("127.0.0.1", srv.port());
  if (!conn.ok()) {
    std::fprintf(stderr, "replay: connect: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  socs::server::Session session(&db.catalog, db.sched.get());
  socs::MalInterpreter interp(&db.catalog);
  interp.set_exec(db.sched.get());

  std::vector<double> parse_us, compile_us, optimize_us, interpret_ms,
      serialize_ms, reply_parse_ms, execute_ms, wire_ms;
  uint64_t selects = 0, result_rows = 0, reply_bytes = 0;
  std::vector<std::string> errors;
  const auto note = [&errors](const std::string& err) {
    if (errors.size() < 10) errors.push_back(err);
  };
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t replayed = 0;
  for (const auto& [c, i] : order) {
    if (NowNs() >= deadline) break;
    ++replayed;
    const Stmt& st = streams[c][i % streams[c].size()];
    const char* cls = KindName(st.kind);
    const int64_t sid = StmtId(c, i);
    const uint64_t root = spans.NewId();
    const int64_t r0 = NowNs();

    // Session::Execute's pipeline, one span per public call.
    int64_t t0 = NowNs();
    auto stmt = socs::sql::ParseStatement(st.text);
    int64_t t1 = NowNs();
    spans.Leaf(root, sid, cls, "sql.ParseStatement", t0, t1);
    const double parse = static_cast<double>(t1 - t0) / 1e3;
    if (!stmt.ok()) {
      note("parse: " + stmt.status().ToString());
      continue;
    }
    t0 = NowNs();
    auto prog = socs::sql::Compile(*stmt, db.catalog);
    t1 = NowNs();
    spans.Leaf(root, sid, cls, "sql.Compile", t0, t1);
    const double compile = static_cast<double>(t1 - t0) / 1e3;
    if (!prog.ok()) {
      note("compile: " + prog.status().ToString());
      continue;
    }
    socs::OptContext octx;
    octx.catalog = &db.catalog;
    t0 = NowNs();
    socs::PassManager pm = socs::MakeDefaultPipeline();
    const socs::Status opt = pm.Run(&prog.value(), &octx);
    t1 = NowNs();
    spans.Leaf(root, sid, cls, "engine.PassManager.Run", t0, t1);
    const double optimize = static_cast<double>(t1 - t0) / 1e3;
    if (!opt.ok()) {
      note("optimize: " + opt.ToString());
      continue;
    }
    t0 = NowNs();
    auto rs = interp.Run(*prog);
    t1 = NowNs();
    spans.Leaf(root, sid, cls, "engine.MalInterpreter.Run", t0, t1);
    const double interpret = static_cast<double>(t1 - t0) / 1e6;
    if (!rs.ok()) {
      note("execute: " + rs.status().ToString());
      continue;
    }
    t0 = NowNs();
    const std::string block =
        socs::server::MakeResultReply(**rs, interp.last_execution()).Serialize();
    t1 = NowNs();
    spans.Leaf(root, sid, cls, "server.MakeResultReply+Serialize", t0, t1);
    const double serialize = static_cast<double>(t1 - t0) / 1e6;
    size_t pos = 0;
    t0 = NowNs();
    auto parsed = socs::server::ParseReply(LineReader(block, &pos));
    t1 = NowNs();
    spans.Leaf(root, sid, cls, "server.ParseReply", t0, t1);
    spans.Add(root, 0, sid, cls, "replay.statement", r0, NowNs());
    if (!parsed.ok()) {
      note("reply parse: " + parsed.status().ToString());
      continue;
    }
    const Digest d = DigestReply(*parsed, st.kind, oracle);
    if (const std::string err = CheckReply(st, d, oracle); !err.empty()) {
      note(st.text.substr(0, 120) + ": " + err);
    }
    ++selects;
    parse_us.push_back(parse);
    result_rows += parsed->rows.size();
    reply_bytes += block.size();
    compile_us.push_back(compile);
    optimize_us.push_back(optimize);
    interpret_ms.push_back(interpret);
    serialize_ms.push_back(serialize);
    reply_parse_ms.push_back(static_cast<double>(t1 - t0) / 1e6);

    // Every fourth select: Session::Execute against one TCP round trip,
    // alternating which runs first. Each run also reorganizes, so single
    // differences are noisy; the median of the pairs is reported.
    if (selects % 4 == 0) {
      const bool tcp_first = (selects / 4) % 2 == 0;
      double exec = 0.0, wire = 0.0;
      for (int k = 0; k < 2; ++k) {
        const int64_t a = NowNs();
        if ((k == 0) == tcp_first) {
          auto reply = conn->Execute(st.text);
          wire = static_cast<double>(NowNs() - a) / 1e6;
          spans.Leaf(root, sid, cls, "tcp.statement", a, NowNs());
          if (!reply.ok() || !reply->ok) note("tcp replay failed");
        } else {
          const WireReply reply = session.Execute(st.text);
          exec = static_cast<double>(NowNs() - a) / 1e6;
          spans.Leaf(root, sid, cls, "server.Session.Execute", a, NowNs());
          if (!reply.ok) note("session replay failed: " + reply.error);
        }
      }
      execute_ms.push_back(exec);
      wire_ms.push_back(wire - exec);
    }
  }
  conn->Close();
  srv.Stop();
  {
    const int64_t t0 = NowNs();
    auto gen = socs::persist::CheckpointNow(db.store.get(), db.catalog);
    const int64_t t1 = NowNs();
    spans.Leaf(0, -1, "checkpoint", "persist.CheckpointNow", t0, t1);
    checkpoint_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (!gen.ok()) note("final checkpoint: " + gen.status().ToString());
  }
  SpanLog::Write(flags.Str("spans"), "replay", {&spans});

  const double n = std::max<double>(1.0, static_cast<double>(selects));
  Json j;
  j.Strs("errors", errors)
      .Int("replayed", replayed)
      .Int("selects", selects)
      .Num("parse_us", Mean(parse_us))
      .Num("compile_us", Mean(compile_us))
      .Num("optimize_us", Mean(optimize_us))
      .Num("interpret_ms", Mean(interpret_ms))
      .Num("serialize_ms", Mean(serialize_ms))
      .Num("reply_parse_ms", Mean(reply_parse_ms))
      .Num("execute_ms", Mean(execute_ms))
      .Num("wire_overhead_ms", Quantile(&wire_ms, 0.5))
      .Num("checkpoint_ms", Mean(checkpoint_ms))
      .Num("result_rows_per_select", static_cast<double>(result_rows) / n)
      .Num("reply_bytes_per_select", static_cast<double>(reply_bytes) / n);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// --- recover ----------------------------------------------------------------------

int Recover(const Spec& spec, uint64_t seed, const Flags& flags) {
  SpanLog spans(flags.Str("spans") != "", 200);
  Database db;
  db.space = std::make_unique<socs::SegmentSpace>(socs::CostParams{}, 0,
                                                  SpaceOptions(spec));
  const int64_t t0 = NowNs();
  if (std::string err = OpenStore(flags.Str("data-dir"), &db); !err.empty()) {
    std::fprintf(stderr, "recover: %s\n", err.c_str());
    return 1;
  }
  const int64_t t1 = NowNs();
  auto report = socs::persist::RestoreDatabase(db.store.get(), db.space.get(), &db.catalog);
  const int64_t t2 = NowNs();
  spans.Leaf(0, -1, "recovery", "persist.PersistentStore.Open", t0, t1);
  spans.Leaf(0, -1, "recovery", "persist.RestoreDatabase", t1, t2);
  if (!report.ok()) {
    std::fprintf(stderr, "recover: restore: %s\n", report.status().ToString().c_str());
    return 1;
  }
  // The checks below reorganize the column; keep the data directory as the
  // run left it for the next recovery cycle.
  db.space->set_durability(nullptr);

  socs::server::Session session(&db.catalog, nullptr);
  const auto scalar = [&](const std::string& q) {
    const WireReply r = session.Execute(q);
    return r.ok && r.rows.size() == 1 ? std::strtod(r.rows[0].c_str(), nullptr) : -1.0;
  };
  Recovered rec;
  char q[160];
  std::snprintf(q, sizeof(q), "select count(*) from P where ra between %.17g and %.17g",
                kRaDomainLo, kRaDomainHi);
  rec.count_ra = static_cast<uint64_t>(scalar(q));
  rec.count_dec = static_cast<uint64_t>(
      scalar("select count(*) from P where dec between -90 and 90"));
  std::snprintf(q, sizeof(q), "select sum(ra) from P where ra between %.17g and %.17g",
                kRaDomainLo, kRaDomainHi);
  rec.sum_ra = scalar(q);
  const WireReply layout = session.Execute("#layout");
  for (const std::string& row : layout.rows) {
    rec.layout_count_sum += Cell(layout, row, "count");
  }
  const Oracle oracle(spec, seed, MakeTable(spec));
  std::vector<std::string> errors;
  if (std::string err = CheckRecovered(oracle, flags.Int("acked-rows"), rec);
      !err.empty()) {
    errors.push_back(err);
  }
  if (spans.on()) SpanLog::Write(flags.Str("spans"), "recover", {&spans});
  Json j;
  j.Strs("errors", errors)
      .Num("open_ms", static_cast<double>(t1 - t0) / 1e6)
      .Num("restore_ms", static_cast<double>(t2 - t1) / 1e6)
      .Num("recover_s", static_cast<double>(t2 - t0) / 1e9);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: socs_perfbench serve|load|replay|recover --workload W ...\n");
    return 2;
  }
  const Flags flags(argc, argv);
  Spec spec;
  if (!SpecFor(flags.Str("workload"), &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.Str("workload").c_str());
    return 2;
  }
  const uint64_t seed = flags.Int("seed", 1);
  const std::string cmd = argv[1];
  if (cmd == "serve") return Serve(spec, flags);
  if (cmd == "load") return Load(spec, seed, flags);
  if (cmd == "replay") return Replay(spec, seed, flags);
  if (cmd == "recover") return Recover(spec, seed, flags);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

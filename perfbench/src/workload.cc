#include "workload.h"

#include <cstdio>

#include "common/rng.h"
#include "workload/skyserver.h"

namespace perfbench {

namespace {

constexpr uint64_t kTableSeed = 2008;

socs::SkyServerConfig SkyConfig(const Spec& spec, uint64_t seed) {
  socs::SkyServerConfig cfg;
  cfg.num_objects = spec.rows;
  cfg.seed = seed;
  cfg.min_width_deg = spec.min_width;
  cfg.max_width_deg = spec.max_width;
  return cfg;
}

socs::SkyServerConfig StreamConfig(const Spec& spec, uint64_t seed, size_t conn) {
  return SkyConfig(spec, seed * 1000003ULL + 17 * conn);
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Unit(uint64_t bits) { return static_cast<double>(bits >> 11) * 0x1.0p-53; }

std::string SelectText(Kind kind, double lo, double hi) {
  const char* head = "";
  switch (kind) {
    case Kind::kCount: head = "select count(*)"; break;
    case Kind::kObjid: head = "select objid"; break;
    case Kind::kPairs: head = "select ra, objid"; break;
    case Kind::kSum: head = "select sum(ra)"; break;
    case Kind::kMin: head = "select min(ra)"; break;
    case Kind::kMax: head = "select max(ra)"; break;
    case Kind::kAvg: head = "select avg(ra)"; break;
    case Kind::kInsert: break;
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s from P where ra between %.17g and %.17g",
                head, lo, hi);
  return buf;
}

}  // namespace

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kCount: return "count";
    case Kind::kObjid: return "objid";
    case Kind::kPairs: return "ra_objid";
    case Kind::kSum: return "sum";
    case Kind::kMin: return "min";
    case Kind::kMax: return "max";
    case Kind::kAvg: return "avg";
    case Kind::kInsert: return "insert";
  }
  return "?";
}

bool SpecFor(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "sky-count") {
    s.rows = 250'000;
    s.compression = true;
    s.stream_len = 2000;
    s.min_width = 0.05;  // the paper's SkyServer windows
    s.max_width = 0.50;
    s.insert_batch = 8;
    s.inserts = 400;
  } else if (name == "sky-project") {
    s.rows = 250'000;
    s.compression = false;
    s.stream_len = 1000;
    s.min_width = 1.5;  // 1-5% of the 150-degree footprint
    s.max_width = 7.5;
    s.insert_batch = 8;
    s.inserts = 400;
  } else {
    return false;
  }
  *out = s;
  return true;
}

Table MakeTable(const Spec& spec) {
  Table t;
  t.ra = socs::MakeRaColumn(SkyConfig(spec, kTableSeed));
  socs::Rng rng(kTableSeed ^ 0xdec0dec0ULL);
  t.dec.reserve(spec.rows);
  for (size_t i = 0; i < spec.rows; ++i) {
    t.dec.push_back(static_cast<float>(rng.NextUniform(-90.0, 90.0)));
  }
  return t;
}

std::vector<InsertedRow> MakeInsertedRows(const Spec& spec, uint64_t seed) {
  const socs::Workload read =
      socs::MakeRandomWorkload(StreamConfig(spec, seed, 0), spec.stream_len);
  std::vector<InsertedRow> rows(spec.insert_batch * spec.inserts);
  for (uint64_t j = 0; j < rows.size(); ++j) {
    const socs::ValueRange& r = read[j % read.size()].range;
    const uint64_t h = SplitMix(seed * 0x2545f4914f6cdd1dULL + j);
    rows[j].ra = static_cast<float>(r.lo + r.Span() * Unit(h));
    rows[j].dec = static_cast<float>(-90.0 + 180.0 * Unit(SplitMix(h)));
    rows[j].objid = kObjidBase + static_cast<int64_t>(spec.rows + j);
  }
  return rows;
}

std::vector<Stmt> MakeInsertStream(const Spec& spec, uint64_t seed) {
  const std::vector<InsertedRow> rows = MakeInsertedRows(spec, seed);
  std::vector<Stmt> out;
  for (size_t k = 0; k < spec.inserts; ++k) {
    Stmt s;
    s.kind = Kind::kInsert;
    s.first_row = k * spec.insert_batch;
    s.insert_rows = spec.insert_batch;
    s.text = "insert into P (ra, dec, objid) values ";
    for (uint64_t j = s.first_row; j < s.first_row + s.insert_rows; ++j) {
      // 17 significant digits: the server parses back exactly the float32
      // value the oracle sums.
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s(%.17g, %.17g, %lld)",
                    j == s.first_row ? "" : ", ", static_cast<double>(rows[j].ra),
                    static_cast<double>(rows[j].dec),
                    static_cast<long long>(rows[j].objid));
      s.text += buf;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Stmt> MakeStream(const Spec& spec, uint64_t seed, size_t conn) {
  std::vector<Stmt> out;
  out.reserve(spec.stream_len);
  // Random, skewed, changing, skewed.
  socs::Workload w;
  switch (conn % 4) {
    case 0: w = socs::MakeRandomWorkload(StreamConfig(spec, seed, conn), spec.stream_len); break;
    case 1:
    case 3: w = socs::MakeSkewedWorkload(StreamConfig(spec, seed, conn), spec.stream_len); break;
    case 2: w = socs::MakeChangingWorkload(StreamConfig(spec, seed, conn), spec.stream_len, 4); break;
  }
  static constexpr Kind kProject[] = {Kind::kPairs, Kind::kSum, Kind::kMin,
                                      Kind::kMax, Kind::kAvg};
  for (size_t i = 0; i < w.size(); ++i) {
    Stmt s;
    if (spec.name == "sky-project") {
      s.kind = kProject[(i + conn) % 5];
    } else {
      s.kind = (i + conn) % 2 == 0 ? Kind::kCount : Kind::kObjid;
    }
    s.lo = w[i].range.lo;
    s.hi = w[i].range.hi;
    s.text = SelectText(s.kind, s.lo, s.hi);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace perfbench

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

bool ParseDouble(const char* s, const char* end, double* out) {
  char* stop = nullptr;
  *out = std::strtod(s, &stop);
  return stop == end && end != s;
}

bool ParseInt(const char* s, const char* end, int64_t* out) {
  char* stop = nullptr;
  *out = std::strtoll(s, &stop, 10);
  return stop == end && end != s;
}

std::string Fmt(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

uint64_t HashObjid(int64_t objid) { return Mix(static_cast<uint64_t>(objid)); }

uint64_t HashPair(double ra, int64_t objid) {
  return Mix(static_cast<uint64_t>(objid) ^ Mix(Bits(ra)));
}

}  // namespace

Oracle::Oracle(const Spec& spec, uint64_t seed, const Table& table) {
  const size_t n = table.ra.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return table.ra[a] < table.ra[b] || (table.ra[a] == table.ra[b] && a < b);
  });
  ra_.resize(n);
  objid_.resize(n);
  prefix_sum_.assign(n + 1, 0.0);
  prefix_h1_.assign(n + 1, 0);
  prefix_h2_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ra_[i] = table.ra[order[i]];
    objid_[i] = kObjidBase + order[i];
    prefix_sum_[i + 1] = prefix_sum_[i] + ra_[i];
    prefix_h1_[i + 1] = prefix_h1_[i] + HashObjid(objid_[i]);
    prefix_h2_[i + 1] = prefix_h2_[i] + HashPair(ra_[i], objid_[i]);
  }
  inserted_ = MakeInsertedRows(spec, seed);
}

size_t Oracle::Lower(double lo) const {
  return std::lower_bound(ra_.begin(), ra_.end(), lo) - ra_.begin();
}

size_t Oracle::Upper(double hi) const {
  return std::upper_bound(ra_.begin(), ra_.end(), hi) - ra_.begin();
}

RangeFacts Oracle::Static(double lo, double hi) const {
  RangeFacts f;
  const size_t a = Lower(lo);
  const size_t b = std::max(a, Upper(hi));
  f.count = b - a;
  f.sum = prefix_sum_[b] - prefix_sum_[a];
  f.h_objid = prefix_h1_[b] - prefix_h1_[a];
  f.h_pair = prefix_h2_[b] - prefix_h2_[a];
  if (f.count > 0) {
    f.min = ra_[a];
    f.max = ra_[b - 1];
  }
  return f;
}

double Oracle::TotalSum(uint64_t upto) const {
  double s = prefix_sum_.back();
  upto = std::min<uint64_t>(upto, inserted_.size());
  for (uint64_t j = 0; j < upto; ++j) s += inserted_[j].ra;
  return s;
}

std::vector<std::pair<double, int64_t>> Oracle::StaticRows(double lo,
                                                           double hi) const {
  std::vector<std::pair<double, int64_t>> out;
  for (size_t i = Lower(lo); i < Upper(hi); ++i) out.push_back({ra_[i], objid_[i]});
  return out;
}

Digest DigestReply(const socs::server::WireReply& reply, Kind kind,
                   const Oracle& oracle) {
  Digest d;
  if (!reply.ok) {
    d.error = "ERR " + reply.error;
    return d;
  }
  d.rows = reply.rows.size();
  const bool rowset = kind == Kind::kObjid || kind == Kind::kPairs;
  if (!rowset) {
    if (d.rows != 1 || !ParseDouble(reply.rows[0].data(),
                                    reply.rows[0].data() + reply.rows[0].size(),
                                    &d.scalar)) {
      d.error = "expected one numeric row";
    }
    return d;
  }
  const int64_t first_static = kObjidBase;
  const int64_t end_static = kObjidBase + static_cast<int64_t>(oracle.rows());
  for (const std::string& row : reply.rows) {
    const char* s = row.data();
    const char* end = s + row.size();
    double ra = 0.0;
    int64_t objid = 0;
    if (kind == Kind::kPairs) {
      const char* comma = static_cast<const char*>(std::memchr(s, ',', row.size()));
      if (comma == nullptr || !ParseDouble(s, comma, &ra) ||
          !ParseInt(comma + 1, end, &objid)) {
        d.error = "malformed row: " + row;
        return d;
      }
    } else if (!ParseInt(s, end, &objid)) {
      d.error = "malformed row: " + row;
      return d;
    }
    if (objid < first_static || objid >= end_static) {
      d.error = "objid " + std::to_string(objid) + " names no initial row";
      return d;
    }
    d.hash += kind == Kind::kPairs ? HashPair(ra, objid) : HashObjid(objid);
  }
  return d;
}

std::string CheckReply(const Stmt& stmt, const Digest& d, const Oracle& oracle) {
  if (!d.error.empty()) return d.error;
  if (stmt.kind == Kind::kInsert) {
    // The INSERT reply is one row: the number of rows inserted.
    if (d.scalar == static_cast<double>(stmt.insert_rows)) return "";
    return Fmt("inserted %.17g rows of %.0f", d.scalar,
               static_cast<double>(stmt.insert_rows));
  }
  const RangeFacts st = oracle.Static(stmt.lo, stmt.hi);
  switch (stmt.kind) {
    case Kind::kCount:
      if (d.scalar == static_cast<double>(st.count)) return "";
      return Fmt("count %.17g, expected %.0f", d.scalar, static_cast<double>(st.count));
    case Kind::kObjid:
    case Kind::kPairs:
      if (d.rows != st.count) {
        return Fmt("%.0f rows, expected %.0f", static_cast<double>(d.rows),
                   static_cast<double>(st.count));
      }
      if (d.hash != (stmt.kind == Kind::kPairs ? st.h_pair : st.h_objid)) {
        return "rows differ from the oracle's set";
      }
      return "";
    default:
      break;
  }
  if (st.count == 0) return "aggregate over an empty range";
  double expect = 0.0;
  switch (stmt.kind) {
    case Kind::kSum: expect = st.sum; break;
    case Kind::kMin: expect = st.min; break;
    case Kind::kMax: expect = st.max; break;
    case Kind::kAvg: expect = st.sum / static_cast<double>(st.count); break;
    default: break;
  }
  if (d.scalar != expect) {
    return std::string(KindName(stmt.kind)) +
           Fmt(" %.17g, expected %.17g", d.scalar, expect);
  }
  return "";
}

std::string CheckRecovered(const Oracle& oracle, uint64_t acked_rows,
                           const Recovered& r) {
  const uint64_t expect = oracle.rows() + acked_rows;
  const double expect_sum = oracle.TotalSum(acked_rows);
  std::string err;
  if (r.count_ra != expect) {
    err += "recovered count over ra " + std::to_string(r.count_ra) +
           ", expected " + std::to_string(expect) + "; ";
  }
  if (r.count_dec != expect) {
    err += "recovered count over dec " + std::to_string(r.count_dec) +
           ", expected " + std::to_string(expect) + "; ";
  }
  if (r.sum_ra != expect_sum) {
    err += Fmt("recovered sum(ra) %.17g, expected %.17g; ", r.sum_ra, expect_sum);
  }
  if (r.layout_count_sum != expect) {
    err += "recovered #layout counts sum to " +
           std::to_string(r.layout_count_sum) + ", expected " +
           std::to_string(expect);
  }
  return err;
}

std::vector<std::string> SelfTest(const Spec& spec, const Stmt& probe,
                                  const Oracle& oracle) {
  using socs::server::WireReply;
  std::vector<std::string> failures;
  const auto expect = [&](const char* what, const Stmt& stmt,
                          const WireReply& reply, bool should_pass) {
    const std::string err =
        CheckReply(stmt, DigestReply(reply, stmt.kind, oracle), oracle);
    if (err.empty() != should_pass) {
      failures.push_back(std::string(what) +
                         (should_pass ? ": correct reply rejected: " + err
                                      : ": corruption not detected"));
    }
  };
  const auto scalar_reply = [](double v) {
    WireReply r;
    r.ok = true;
    r.columns = {"v"};
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    r.rows.push_back(buf);
    return r;
  };

  Stmt stmt = probe;
  const RangeFacts st = oracle.Static(stmt.lo, stmt.hi);
  const std::vector<std::pair<double, int64_t>> rows =
      oracle.StaticRows(stmt.lo, stmt.hi);
  if (rows.size() < 2) {
    failures.push_back("self-test range holds fewer than two rows");
    return failures;
  }

  stmt.kind = Kind::kCount;
  expect("count", stmt, scalar_reply(static_cast<double>(st.count)), true);
  expect("count off by one", stmt,
         scalar_reply(static_cast<double>(st.count + 1)), false);

  for (Kind k : {Kind::kObjid, Kind::kPairs}) {
    stmt.kind = k;
    WireReply good;
    good.ok = true;
    for (const auto& [ra, objid] : rows) {
      char buf[64];
      if (k == Kind::kPairs) {
        std::snprintf(buf, sizeof(buf), "%.17g,%lld", ra,
                      static_cast<long long>(objid));
      } else {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(objid));
      }
      good.rows.push_back(buf);
    }
    expect(KindName(k), stmt, good, true);
    WireReply dropped = good;
    dropped.rows.erase(dropped.rows.begin() + dropped.rows.size() / 2);
    expect("dropped objid", stmt, dropped, false);
    WireReply duplicated = good;
    duplicated.rows[0] = duplicated.rows[1];
    expect("duplicated objid", stmt, duplicated, false);
  }

  stmt.kind = Kind::kSum;
  expect("sum", stmt, scalar_reply(st.sum), true);
  expect("sum off by one ulp", stmt,
         scalar_reply(std::nextafter(st.sum, HUGE_VAL)), false);
  stmt.kind = Kind::kMax;
  expect("max", stmt, scalar_reply(st.max), true);
  expect("max off by one ulp", stmt,
         scalar_reply(std::nextafter(st.max, -HUGE_VAL)), false);
  stmt.kind = Kind::kAvg;
  expect("avg", stmt, scalar_reply(st.sum / static_cast<double>(st.count)), true);
  expect("avg off by one ulp", stmt,
         scalar_reply(std::nextafter(st.sum / static_cast<double>(st.count),
                                     HUGE_VAL)),
         false);

  // Recovery: one inserted row lost.
  const uint64_t planned = spec.insert_batch * spec.inserts;
  const uint64_t acked = std::max<uint64_t>(planned, 1);
  if (planned > 0) {
    Recovered good{oracle.rows() + acked, oracle.rows() + acked,
                   oracle.TotalSum(acked), oracle.rows() + acked};
    if (!CheckRecovered(oracle, acked, good).empty()) {
      failures.push_back("recovery: correct state rejected");
    }
    Recovered lost{oracle.rows() + acked - 1, oracle.rows() + acked - 1,
                   oracle.TotalSum(acked - 1), oracle.rows() + acked - 1};
    if (CheckRecovered(oracle, acked, lost).empty()) {
      failures.push_back("recovery: lost inserted row not detected");
    }
  }
  return failures;
}

}  // namespace perfbench

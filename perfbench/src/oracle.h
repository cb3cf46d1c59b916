// Independent output checks. The oracle is the benchmark's own sorted copy
// of (ra, objid) with exact prefix sums; a reply is reduced to a digest
// (row count plus an order-independent hash of its objids or (ra, objid)
// pairs) while the load runs, and compared with the oracle after the timed
// phase. Sums compare bit for bit: every ra is a float32 value >= 64, so
// every partial sum is a multiple of 2^-17 below 2^29 and exact in a double
// whatever the summation order.
#ifndef SOCS_PERFBENCH_ORACLE_H_
#define SOCS_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/wire.h"
#include "workload.h"

namespace perfbench {

/// Exact facts about the rows of one inclusive ra range.
struct RangeFacts {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0, max = 0.0;  // valid when count > 0
  uint64_t h_objid = 0;         // sum of a hash of each objid (mod 2^64)
  uint64_t h_pair = 0;          // sum of a hash of each (ra, objid) (mod 2^64)
};

class Oracle {
 public:
  Oracle(const Spec& spec, uint64_t seed, const Table& table);

  size_t rows() const { return ra_.size(); }

  /// Facts over the initial table.
  RangeFacts Static(double lo, double hi) const;
  /// Exact sum of every initial row plus inserted rows [0, upto).
  double TotalSum(uint64_t upto) const;
  /// objids of the initial rows in [lo, hi] with their ra (self-test input).
  std::vector<std::pair<double, int64_t>> StaticRows(double lo, double hi) const;

 private:
  size_t Lower(double lo) const;
  size_t Upper(double hi) const;

  std::vector<double> ra_;           // initial ra, sorted
  std::vector<int64_t> objid_;       // objid of ra_[i]
  std::vector<double> prefix_sum_;   // exact, size rows + 1
  std::vector<uint64_t> prefix_h1_;  // HashObjid prefix, size rows + 1
  std::vector<uint64_t> prefix_h2_;  // HashPair prefix, size rows + 1
  std::vector<InsertedRow> inserted_;
};

/// What a reply said, reduced while the load runs.
struct Digest {
  std::string error;  // non-empty: ERR reply, malformed rows or an objid
                      // beyond the initial table
  uint64_t rows = 0;
  double scalar = 0.0;  // count/sum/min/max/avg/inserted
  uint64_t hash = 0;    // h_objid or h_pair of the rows, as in RangeFacts
};

Digest DigestReply(const socs::server::WireReply& reply, Kind kind,
                   const Oracle& oracle);

/// Empty when the digest agrees with the oracle. Every SELECT runs before
/// the write tail, so it sees exactly the initial rows.
std::string CheckReply(const Stmt& stmt, const Digest& d, const Oracle& oracle);

/// After recovery: full-range counts over ra and dec equal initial plus
/// acknowledged rows, sum(ra) equals the exact oracle, and the `#layout`
/// counts of P.ra sum to the table's row count.
struct Recovered {
  uint64_t count_ra = 0;
  uint64_t count_dec = 0;
  double sum_ra = 0.0;
  uint64_t layout_count_sum = 0;
};
std::string CheckRecovered(const Oracle& oracle, uint64_t acked_rows,
                           const Recovered& r);

/// Feeds every check, on the range of `probe`, a correct reply and
/// deliberately corrupted ones (a count off by one, a dropped objid, a
/// duplicated objid, a sum off by one ulp, a lost inserted row after
/// recovery). Returns the checks that let a corruption through or rejected
/// a correct reply; empty when all hold.
std::vector<std::string> SelfTest(const Spec& spec, const Stmt& probe,
                                  const Oracle& oracle);

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_ORACLE_H_

// Seeded inputs of the end-to-end benchmark: the SkyServer-shaped table
// P(ra, dec, objid), the per-connection statement streams of each workload,
// and the rows the write tail inserts. Every process of one run (server,
// load generator, in-process replay, recovery) derives the same inputs from
// the workload name and the seed alone.
#ifndef SOCS_PERFBENCH_WORKLOAD_H_
#define SOCS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Row i of the initial table has objid kObjidBase + i; inserted row j has
/// kObjidBase + rows + j. Every objid stays below 2^53, so the INSERT path
/// (which carries values as doubles) stores it exactly.
inline constexpr int64_t kObjidBase = 1'237'645'879'000'000LL;

/// The `ra` domain the column is segmented over (the shipped server's).
inline constexpr double kRaDomainLo = 0.0;
inline constexpr double kRaDomainHi = 360.0;

/// Statement classes. Every SELECT is `... from P where ra between lo and hi`.
enum class Kind { kCount, kObjid, kPairs, kSum, kMin, kMax, kAvg, kInsert };
const char* KindName(Kind k);
inline bool IsSelect(Kind k) { return k != Kind::kInsert; }

struct Stmt {
  Kind kind = Kind::kCount;
  double lo = 0.0, hi = 0.0;  // inclusive BETWEEN bounds (selects)
  uint64_t first_row = 0;     // first inserted row index (inserts)
  uint64_t insert_rows = 0;   // rows inserted (inserts)
  std::string text;
};

/// The make-up of one workload (README.md explains each choice).
struct Spec {
  std::string name;
  size_t rows = 0;          // initial rows of P
  bool compression = false; // SegmentSpace codec seam (kernels on with it)
  size_t connections = 4;
  size_t stream_len = 0;    // statements per stream before it repeats
  double min_width = 0.0;   // range widths in degrees of the footprint
  double max_width = 0.0;
  // The write tail: `inserts` INSERTs of `insert_batch` rows, sent paced on
  // one connection after the timed reads.
  size_t insert_batch = 0;
  size_t inserts = 0;
};

/// The two workloads; false for an unknown name.
bool SpecFor(const std::string& name, Spec* out);

/// The initial table. objid is implicit (kObjidBase + row index).
struct Table {
  std::vector<float> ra;
  std::vector<float> dec;
};
/// The table is one fixed sky sample for every seed, as the paper's
/// SkyServer sample was: where its survey stripes fall relative to the hot
/// areas sets how much every statement reads, so a per-seed table would
/// spread the figures by an order of magnitude more than the run-to-run
/// noise. The seed varies the statement streams and the inserted rows.
Table MakeTable(const Spec& spec);

/// A row of the write tail. Values are float32, so a double sum over any
/// mix of table and inserted rows is exact.
struct InsertedRow {
  float ra = 0.0f;
  float dec = 0.0f;
  int64_t objid = 0;
};

/// Every row the write tail inserts, in order. Row j lies inside the range
/// of statement j of the random stream (connection 0), which the reads have
/// run before the tail starts: the INSERTs spread over the footprint but
/// land only where a read has been. Rows uniform over the footprint also
/// landed in pieces no read had split, and one seed's INSERT p95 stayed
/// near 16 ms while another's stayed near 6 ms; rows inside the skewed
/// stream's ranges hit the same few segments of its two hot areas over and
/// over, and sky-count's INSERT p95 spread by 0.45 over ten seeds.
std::vector<InsertedRow> MakeInsertedRows(const Spec& spec, uint64_t seed);

/// Statement stream of connection `conn` (cycled by the load generator).
std::vector<Stmt> MakeStream(const Spec& spec, uint64_t seed, size_t conn);

/// The write tail's INSERTs (see Spec::inserts).
std::vector<Stmt> MakeInsertStream(const Spec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // SOCS_PERFBENCH_WORKLOAD_H_

#ifndef FAIRJOB_CORE_UNFAIRNESS_CUBE_H_
#define FAIRJOB_CORE_UNFAIRNESS_CUBE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "core/marketplace_batch.h"
#include "core/unfairness_measures.h"

namespace fairjob {

// The three dimensions of the framework (Section 4.1).
enum class Dimension { kGroup = 0, kQuery = 1, kLocation = 2 };

const char* DimensionName(Dimension d);

// Selects positions along one cube axis; an empty position list means "all".
struct AxisSelector {
  std::vector<size_t> positions;

  static AxisSelector All() { return AxisSelector{}; }
  static AxisSelector Single(size_t pos) { return AxisSelector{{pos}}; }

  bool all() const { return positions.empty(); }
};

// Dense group × query × location tensor of unfairness values d<g,q,l>, with
// missing cells (triples the measure is undefined for: unobserved (q,l)
// pairs, groups without members, ...). Axis positions are indices into the
// id lists the cube was built over.
//
// Storage is 9 bytes per cell in (g·Q + q)·L + l order: a double plus one
// presence byte. The presence bytes are separate bytes (never bit-packed),
// so pool threads streaming neighbouring columns into a
// CubeMaterializeSink write disjoint memory locations.
class UnfairnessCube {
 public:
  // Errors: InvalidArgument on an empty axis or duplicate ids within an axis.
  static Result<UnfairnessCube> Make(std::vector<GroupId> groups,
                                     std::vector<QueryId> queries,
                                     std::vector<LocationId> locations);

  size_t axis_size(Dimension d) const { return ids_[AxisIndex(d)].size(); }
  int32_t axis_id(Dimension d, size_t pos) const {
    return ids_[AxisIndex(d)][pos];
  }
  // O(1) via the per-axis position index built in Make. Errors: NotFound if
  // `id` is not on axis `d`.
  Result<size_t> PosOf(Dimension d, int32_t id) const;

  void Set(size_t g, size_t q, size_t l, double value) {
    const size_t offset = Offset(g, q, l);
    values_[offset] = value;
    present_[offset] = 1;
  }
  void Clear(size_t g, size_t q, size_t l) { present_[Offset(g, q, l)] = 0; }
  std::optional<double> Get(size_t g, size_t q, size_t l) const {
    const size_t offset = Offset(g, q, l);
    if (present_[offset] == 0) return std::nullopt;
    return values_[offset];
  }

  size_t num_cells() const { return values_.size(); }
  size_t num_present() const;

  // Calls fn(g, q, l, value) for every present cell in storage order
  // (g-major, then q, then l), testing eight presence bytes at a time:
  // O(cells / 8 + present), reading only the values of present cells.
  template <typename Fn>
  void ForEachPresent(Fn&& fn) const;

  // Per-(query, location) column epochs for incremental maintenance
  // (docs/serving.md): a counter that the delta path bumps whenever the
  // column's cells were recomputed to *different* values, so snapshot cache
  // keys can bind to exactly the columns a request reads instead of the
  // whole cube. Epochs start at 0, are carried along by cube copies, and
  // are NOT part of FingerprintCube (they describe history, not contents).
  uint64_t column_epoch(size_t q, size_t l) const {
    return epochs_[ColumnOffset(q, l)];
  }
  void BumpColumnEpoch(size_t q, size_t l) { ++epochs_[ColumnOffset(q, l)]; }
  size_t num_columns() const { return epochs_.size(); }

  // Mean of the present cells within the selected sub-box; nullopt when the
  // selection contains no present cell. This realizes every aggregate in
  // Section 3.4 (d<g,Q,L>, d<G,Q,l>, d<G,q,L>, ...).
  std::optional<double> Average(const AxisSelector& groups,
                                const AxisSelector& queries,
                                const AxisSelector& locations) const;

  // d<g,Q,L> with axis `d` fixed at `pos`, averaging over everything else.
  std::optional<double> AxisAverage(Dimension d, size_t pos) const;

 private:
  UnfairnessCube() = default;

  static size_t AxisIndex(Dimension d) { return static_cast<size_t>(d); }
  size_t Offset(size_t g, size_t q, size_t l) const {
    return (g * ids_[1].size() + q) * ids_[2].size() + l;
  }
  size_t ColumnOffset(size_t q, size_t l) const {
    return q * ids_[2].size() + l;
  }

  std::vector<int32_t> ids_[3];  // group / query / location ids per axis
  std::unordered_map<int32_t, size_t> pos_of_[3];  // id -> axis position
  std::vector<double> values_;    // meaningful where present_ is 1
  std::vector<uint8_t> present_;  // 1 where the cell is present, else 0
  std::vector<uint64_t> epochs_;  // per-(query, location) column epochs
};

template <typename Fn>
void UnfairnessCube::ForEachPresent(Fn&& fn) const {
  const size_t g_size = ids_[0].size();
  const size_t q_size = ids_[1].size();
  const size_t l_size = ids_[2].size();
  const uint8_t* present = present_.data();
  const double* values = values_.data();
  size_t row = 0;  // g·Q + q
  for (size_t g = 0; g < g_size; ++g) {
    for (size_t q = 0; q < q_size; ++q, ++row) {
      const size_t base = row * l_size;
      size_t l = 0;
      // Presence bytes are 0 or 1, so bit 8k of a little-endian word is
      // byte k's presence.
      for (; l + 8 <= l_size; l += 8) {
        uint64_t word;
        std::memcpy(&word, present + base + l, sizeof(word));
        if constexpr (std::endian::native == std::endian::big) {
          word = __builtin_bswap64(word);
        }
        while (word != 0) {
          const size_t k = static_cast<size_t>(std::countr_zero(word)) >> 3;
          word &= word - 1;
          fn(g, q, l + k, values[base + l + k]);
        }
      }
      for (; l < l_size; ++l) {
        if (present[base + l] != 0) fn(g, q, l, values[base + l]);
      }
    }
  }
}

// Axis universes for cube construction; empty vectors default to "all groups
// in the space" / "all queries and locations in the dataset vocabulary".
struct CubeAxes {
  std::vector<GroupId> groups;
  std::vector<QueryId> queries;
  std::vector<LocationId> locations;
};

// The axes a builder would actually use: `axes` with empty vectors defaulted
// against the dataset/space. Lets a caller size a CubeColumnSink (e.g. a
// binary cube file header) before starting a sharded build over the same
// axes. Errors: InvalidArgument when the dataset has no queries/locations or
// a group id lies outside [0, space.num_groups()).
Result<CubeAxes> ResolveMarketplaceCubeAxes(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            const CubeAxes& axes = {});
Result<CubeAxes> ResolveSearchCubeAxes(const SearchDataset& data,
                                       const GroupSpace& space,
                                       const CubeAxes& axes = {});

// Receives finished (query, location) columns from a cube build.
// `values[g]` is the cell for group-axis position g (nullopt = undefined
// triple); positions index the resolved cube axes. Consume is called from
// pool threads in no particular column order — implementations must be
// thread-safe — but each column is delivered exactly once.
class CubeColumnSink {
 public:
  virtual ~CubeColumnSink() = default;
  virtual Status Consume(size_t query_pos, size_t location_pos,
                         const std::optional<double>* values,
                         size_t num_groups) = 0;
};

// Sink that materializes the streamed columns into a pre-made cube (the
// cube's axes must equal the build's resolved axes): defined cells are set,
// undefined ones cleared. Lock-free: concurrent columns write disjoint
// cells, values and presence bytes alike. The in-memory builders run on it,
// and a columns build into it is the in-place refresh of those columns
// after their rankings changed.
class CubeMaterializeSink final : public CubeColumnSink {
 public:
  explicit CubeMaterializeSink(UnfairnessCube* cube) : cube_(cube) {}
  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override;

 private:
  UnfairnessCube* cube_;
};

// Every builder below runs one frame: resolve the axes, select the columns,
// fan them out on `parallelism` threads of the shared ThreadPool and stream
// each finished column into a CubeColumnSink. Columns are evaluated by the
// batched engines (MarketplaceCellBatch in core/marketplace_batch.h over a
// hoisted MarketplaceGroupMembership table; ListDistanceBatch in
// ranking/list_batch.h over a hoisted user-membership table), and every
// cell is bitwise-identical to MarketplaceUnfairness / SearchUnfairness on
// the same triple, whatever the parallelism or the sink. A search column's
// pairwise distance rows also get `parallelism` (nested on the pool);
// marketplace columns never nest. Per-cell NotFound is expected and absorbed
// as a missing cell. Errors: InvalidArgument on bad options or axes,
// including group ids outside the space.

// Evaluates the chosen measure for every (g, q, l) in the axes into an
// in-memory cube; undefined triples stay missing.
Result<UnfairnessCube> BuildMarketplaceCube(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            MarketMeasure measure,
                                            const MeasureOptions& options = {},
                                            const CubeAxes& axes = {},
                                            size_t parallelism = 1);

Result<UnfairnessCube> BuildSearchCube(const SearchDataset& data,
                                       const GroupSpace& space,
                                       SearchMeasure measure,
                                       const MeasureOptions& options = {},
                                       const CubeAxes& axes = {},
                                       size_t parallelism = 1);

// Bounded-memory construction: (query, location) columns are evaluated in
// shards of `shard_columns`, each shard on `parallelism` threads, and
// streamed into the sink as they finish. Peak memory is O(parallelism)
// column buffers plus whatever the sink holds — the G×Q×L tensor never
// materializes — so million-user datasets build in bounded RSS with the
// cube landing on disk (see BinaryCubeColumnWriter in crawl/cube_io.h).
struct ShardedBuildOptions {
  size_t shard_columns = 1024;  // columns per shard; bounds in-flight work
  size_t parallelism = 1;
};

// Streams every column of the axes into `sink`. Errors: also
// InvalidArgument on a null sink or zero shard_columns, plus whatever the
// sink's Consume returns (the first failure stops the build).
Status BuildMarketplaceCubeSharded(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const ShardedBuildOptions& sharded,
                                   CubeColumnSink* sink);

// One (query, location) column by cube-axis position; the unit of delta
// recomputation (and of the column epochs above).
struct CubeColumnRef {
  size_t query_pos = 0;
  size_t location_pos = 0;
};

// Delta builds: evaluate exactly the listed columns over the resolved axes
// and stream them into `sink` (an empty list builds nothing). Consume sees
// each column once, in no particular order. To refresh columns of an
// in-memory cube after their rankings changed, pass a CubeMaterializeSink
// over that cube. Errors: also InvalidArgument on a null sink, a column
// position outside the resolved axes or a column listed twice, plus
// whatever Consume returns.
//
// The marketplace variant takes a caller-maintained
// MarketplaceGroupMembership table, the amortization seam for tight delta
// loops (MarketplaceCubeMaintainer keeps one per dataset version and updates
// it instead of relabeling every worker per upsert). `membership` must
// cover every worker the listed columns rank.
Status BuildMarketplaceCubeColumns(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   const MarketplaceGroupMembership& membership,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const std::vector<CubeColumnRef>& columns,
                                   size_t parallelism, CubeColumnSink* sink);
Status BuildSearchCubeColumns(const SearchDataset& data,
                              const GroupSpace& space, SearchMeasure measure,
                              const MeasureOptions& options,
                              const CubeAxes& axes,
                              const std::vector<CubeColumnRef>& columns,
                              size_t parallelism, CubeColumnSink* sink);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_UNFAIRNESS_CUBE_H_

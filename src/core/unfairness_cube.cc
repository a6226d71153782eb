#include "core/unfairness_cube.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/marketplace_batch.h"
#include "ranking/jaccard.h"
#include "ranking/list_batch.h"

namespace fairjob {
namespace {

Status ValidateAxis(const std::vector<int32_t>& ids, const char* name) {
  if (ids.empty()) {
    return Status::InvalidArgument(std::string("cube axis '") + name +
                                   "' is empty");
  }
  std::unordered_set<int32_t> seen;
  for (int32_t id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument(std::string("cube axis '") + name +
                                     "' repeats id " + std::to_string(id));
    }
  }
  return Status::OK();
}

std::vector<int32_t> DefaultIds(size_t n) {
  std::vector<int32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
  return ids;
}

// Iteration order for a selector: its positions, or 0..size-1 when "all".
std::vector<size_t> ResolvePositions(const AxisSelector& sel, size_t size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(size);
  for (size_t i = 0; i < size; ++i) all[i] = i;
  return all;
}

}  // namespace

const char* DimensionName(Dimension d) {
  switch (d) {
    case Dimension::kGroup:
      return "group";
    case Dimension::kQuery:
      return "query";
    case Dimension::kLocation:
      return "location";
  }
  return "?";
}

Result<UnfairnessCube> UnfairnessCube::Make(std::vector<GroupId> groups,
                                            std::vector<QueryId> queries,
                                            std::vector<LocationId> locations) {
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(groups, "group"));
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(queries, "query"));
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(locations, "location"));
  UnfairnessCube cube;
  cube.ids_[0] = std::move(groups);
  cube.ids_[1] = std::move(queries);
  cube.ids_[2] = std::move(locations);
  for (size_t axis = 0; axis < 3; ++axis) {
    cube.pos_of_[axis].reserve(cube.ids_[axis].size());
    for (size_t i = 0; i < cube.ids_[axis].size(); ++i) {
      cube.pos_of_[axis].emplace(cube.ids_[axis][i], i);
    }
  }
  const size_t cells =
      cube.ids_[0].size() * cube.ids_[1].size() * cube.ids_[2].size();
  cube.values_.assign(cells, 0.0);
  cube.present_.assign(cells, 0);
  cube.epochs_.assign(cube.ids_[1].size() * cube.ids_[2].size(), 0);
  return cube;
}

Result<size_t> UnfairnessCube::PosOf(Dimension d, int32_t id) const {
  const std::unordered_map<int32_t, size_t>& index = pos_of_[AxisIndex(d)];
  auto it = index.find(id);
  if (it != index.end()) return it->second;
  return Status::NotFound(std::string("id ") + std::to_string(id) +
                          " not on cube axis '" + DimensionName(d) + "'");
}

size_t UnfairnessCube::num_present() const {
  size_t n = 0;
  for (uint8_t p : present_) n += p;
  return n;
}

std::optional<double> UnfairnessCube::Average(
    const AxisSelector& groups, const AxisSelector& queries,
    const AxisSelector& locations) const {
  std::vector<size_t> gs = ResolvePositions(groups, ids_[0].size());
  std::vector<size_t> qs = ResolvePositions(queries, ids_[1].size());
  std::vector<size_t> ls = ResolvePositions(locations, ids_[2].size());
  double sum = 0.0;
  size_t count = 0;
  for (size_t g : gs) {
    for (size_t q : qs) {
      for (size_t l : ls) {
        std::optional<double> v = Get(g, q, l);
        if (v.has_value()) {
          sum += *v;
          ++count;
        }
      }
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::optional<double> UnfairnessCube::AxisAverage(Dimension d,
                                                  size_t pos) const {
  AxisSelector fixed = AxisSelector::Single(pos);
  switch (d) {
    case Dimension::kGroup:
      return Average(fixed, AxisSelector::All(), AxisSelector::All());
    case Dimension::kQuery:
      return Average(AxisSelector::All(), fixed, AxisSelector::All());
    case Dimension::kLocation:
      return Average(AxisSelector::All(), AxisSelector::All(), fixed);
  }
  return std::nullopt;
}

namespace {

// Runs fn(i) for every i in [0, n) on up to `parallelism` threads of the
// process-wide pool; serial calls never touch (or create) the pool. The
// first non-OK status wins and stops remaining work; fn must only touch
// disjoint state per index (the cube builders write disjoint cells).
Status ParallelFor(size_t n, size_t parallelism,
                   const std::function<Status(size_t)>& fn) {
  if (parallelism <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      FAIRJOB_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  return ThreadPool::Shared().ParallelFor(n, parallelism, fn);
}

// Axis resolution shared by every build: empty vectors default to every
// group of the space / every query and location of the dataset vocabulary.
// Group ids index the space's per-group tables in the column kernels, so an
// id outside the space is rejected here instead of read out of bounds there.
Result<CubeAxes> ResolveAxes(const CubeAxes& axes, const GroupSpace& space,
                             size_t num_queries, size_t num_locations) {
  if (num_queries == 0 || num_locations == 0) {
    return Status::InvalidArgument(
        "dataset has no queries or no locations to build a cube over");
  }
  const size_t num_groups = space.num_groups();
  CubeAxes out = axes;
  if (out.groups.empty()) out.groups = DefaultIds(num_groups);
  if (out.queries.empty()) out.queries = DefaultIds(num_queries);
  if (out.locations.empty()) out.locations = DefaultIds(num_locations);
  for (GroupId g : out.groups) {
    if (g < 0 || static_cast<size_t>(g) >= num_groups) {
      return Status::InvalidArgument("cube group id " + std::to_string(g) +
                                     " is outside the group space (" +
                                     std::to_string(num_groups) + " groups)");
    }
  }
  return out;
}

// Evaluates one marketplace (query, location) column over `groups` into
// `out` (nullopt = undefined triple) via the batched engine
// (core/marketplace_batch.h): the hoisted membership table turns per-cell
// label matching into bitmap probes, and one MarketplaceCellBatch is shared
// across the whole group axis. Semantics are bitwise-identical to calling
// MarketplaceUnfairness per triple (cross-checked in
// tests/marketplace_batch_test.cc and enforced by bench_cube_build). `out`
// must be pre-sized to groups.size(). Serial over the group axis: a
// column's group loop is cheap next to the columns a build fans out.
Status EvaluateMarketplaceColumn(const MarketplaceDataset& data,
                                 const GroupSpace& space,
                                 const MarketplaceGroupMembership& membership,
                                 MarketMeasure measure,
                                 const MeasureOptions& options, QueryId q,
                                 LocationId l,
                                 const std::vector<GroupId>& groups,
                                 std::vector<std::optional<double>>* out) {
  // Per-phase observability: batch construction (membership sweeps,
  // histogram scatter, bias/relevance sums) versus per-group evaluation.
  // cube.market.cell_context_us keeps its name across the engine swap so
  // dashboards show the construction phase continuously.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static LatencyHistogram* const column_us =
      metrics.histogram("cube.market.column_us");
  static LatencyHistogram* const context_us =
      metrics.histogram("cube.market.cell_context_us");
  static LatencyHistogram* const group_eval_us =
      metrics.histogram("cube.market.group_eval_us");
  static Counter* const cells_present =
      metrics.counter("cube.market.cells_present");
  static Counter* const cells_missing =
      metrics.counter("cube.market.cells_missing");
  ScopedTimer column_timer(column_us);
  TraceSpan span("market_column", "cube");

  Result<MarketplaceCellBatch> batch = [&] {
    ScopedTimer context_timer(context_us);
    return MarketplaceCellBatch::Make(space, membership, data.GetRanking(q, l),
                                      measure, options);
  }();
  if (!batch.ok()) {
    if (batch.status().code() == StatusCode::kNotFound) {
      for (auto& cell : *out) cell.reset();
      cells_missing->Add(out->size());
      return Status::OK();
    }
    return batch.status();
  }
  ScopedTimer group_timer(group_eval_us);
  size_t present = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    Result<double> v = batch->Unfairness(groups[g]);
    if (v.ok()) {
      (*out)[g] = *v;
      ++present;
    } else if (v.status().code() == StatusCode::kNotFound) {
      (*out)[g].reset();
    } else {
      return v.status();
    }
  }
  cells_present->Add(present);
  cells_missing->Add(out->size() - present);
  return Status::OK();
}

// Per-user group membership, hoisted across (query, location) columns:
// whether a user matches a group label depends only on demographics, so the
// O(G · users) label matching is done once per build instead of once per
// column (observation *indices* still differ per column and are derived
// from this table with flat probes).
class SearchGroupMembership {
 public:
  SearchGroupMembership(const SearchDataset& data, const GroupSpace& space)
      : num_users_(data.num_users()) {
    size_t num_groups = space.num_groups();
    member_.assign(num_groups * num_users_, 0);
    for (size_t g = 0; g < num_groups; ++g) {
      const GroupLabel& label = space.label(static_cast<GroupId>(g));
      for (size_t u = 0; u < num_users_; ++u) {
        if (label.Matches(data.user_demographics(static_cast<UserId>(u)))) {
          member_[g * num_users_ + u] = 1;
        }
      }
    }
  }

  bool Matches(GroupId g, UserId u) const {
    return member_[static_cast<size_t>(g) * num_users_ +
                   static_cast<size_t>(u)] != 0;
  }

 private:
  size_t num_users_;
  std::vector<uint8_t> member_;
};

// Index of the (i, j) entry, i < j, in an upper-triangle row-major layout
// over n items: row i starts after the i rows above it, which hold
// (n-1) + (n-2) + ... + (n-i) entries.
inline size_t TriangleIndex(size_t i, size_t j, size_t n) {
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

// Search-side twin: evaluates one (query, location) column over `groups`
// into `out`, filling the pairwise list-distance matrix once per cell via
// the batched engine (ranking/list_batch.h) — lists interned once, pair
// kernels allocation-free — and reusing it across the whole group axis.
// Only the upper triangle is stored (TriangleIndex), halving the matrix
// memory. With `parallelism` > 1 the O(n²) distance rows are computed on
// the pool, so a few large cells no longer serialize a whole build.
// Semantics are identical to calling SearchUnfairness per triple — bitwise,
// not approximately (cross-checked in tests/list_batch_test.cc and
// bench_measures_perf --batch_compare).
Status EvaluateSearchColumn(const SearchDataset& data, const GroupSpace& space,
                            const SearchGroupMembership& membership,
                            SearchMeasure measure,
                            const MeasureOptions& options, QueryId query,
                            LocationId location,
                            const std::vector<GroupId>& groups,
                            std::vector<std::optional<double>>* out,
                            size_t parallelism) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static LatencyHistogram* const column_us =
      metrics.histogram("cube.search.column_us");
  static LatencyHistogram* const matrix_us =
      metrics.histogram("cube.search.distance_matrix_us");
  static LatencyHistogram* const group_eval_us =
      metrics.histogram("cube.search.group_eval_us");
  static Counter* const cells_present =
      metrics.counter("cube.search.cells_present");
  static Counter* const cells_missing =
      metrics.counter("cube.search.cells_missing");
  static Counter* const triangle_entries =
      metrics.counter("cube.search.batch.triangle_entries");
  static Counter* const colsum_vectors =
      metrics.counter("cube.search.batch.colsum_vectors");
  // The batch path still feeds the per-measure invocation counters (one
  // bulk Add per cell); per-pair latency sampling is intentionally absent —
  // cube.search.distance_matrix_us covers the whole phase.
  static Counter* const measure_invocations[4] = {
      metrics.counter("measure.kendall_tau.invocations"),
      metrics.counter("measure.jaccard.invocations"),
      metrics.counter("measure.footrule.invocations"),
      metrics.counter("measure.rbo.invocations")};
  ScopedTimer column_timer(column_us);
  TraceSpan span("search_column", "cube");

  for (auto& cell : *out) cell.reset();
  const std::vector<SearchObservation>* obs =
      data.GetObservations(query, location);
  if (obs == nullptr || obs->empty()) {
    cells_missing->Add(out->size());
    return Status::OK();
  }
  size_t n = obs->size();
  if (n == 1) {
    // No pairs: a lone user cannot match both a group and one of its
    // comparables, so every cell of the column is undefined.
    cells_missing->Add(out->size());
    return Status::OK();
  }

  std::vector<const RankedList*> lists;
  lists.reserve(n);
  for (const SearchObservation& o : *obs) lists.push_back(&o.results);
  FAIRJOB_ASSIGN_OR_RETURN(ListDistanceBatch batch,
                           ListDistanceBatch::Make(lists));

  // Upper-triangle distance matrix, rows pool-parallel; each row reuses one
  // Scratch across its pair kernels.
  size_t num_pairs = n * (n - 1) / 2;
  std::vector<double> tri(num_pairs, 0.0);
  Status dist_status = [&] {
    ScopedTimer matrix_timer(matrix_us);
    TraceSpan matrix_span("distance_matrix", "cube");
    return ParallelFor(n, parallelism, [&](size_t i) -> Status {
      ListDistanceBatch::Scratch scratch;
      for (size_t j = i + 1; j < n; ++j) {
        Result<double> d = [&]() -> Result<double> {
          switch (measure) {
            case SearchMeasure::kKendallTau:
              return batch.KendallTauTopK(i, j, options.kendall_penalty,
                                          &scratch);
            case SearchMeasure::kJaccard:
              return batch.Jaccard(i, j);
            case SearchMeasure::kFootrule:
              return batch.FootruleTopK(i, j);
            case SearchMeasure::kRbo:
              return batch.Rbo(i, j, options.rbo_persistence);
          }
          return Status::InvalidArgument("unknown search measure");
        }();
        if (!d.ok()) return d.status();
        tri[TriangleIndex(i, j, n)] = *d;
      }
      return Status::OK();
    });
  }();
  FAIRJOB_RETURN_IF_ERROR(dist_status);
  size_t measure_index = static_cast<size_t>(measure);
  if (measure_index < 4) measure_invocations[measure_index]->Add(num_pairs);
  triangle_entries->Add(num_pairs);
  ScopedTimer group_timer(group_eval_us);

  auto dist_at = [&](size_t x, size_t y) -> double {
    if (x == y) return 0.0;
    return x < y ? tri[TriangleIndex(x, y, n)] : tri[TriangleIndex(y, x, n)];
  };

  // Observation indices per group (lazy; flat membership probes, no label
  // matching) for every group appearing as a cube row or as a comparable.
  size_t num_groups = space.num_groups();
  std::vector<std::vector<size_t>> members(num_groups);
  std::vector<uint8_t> members_done(num_groups, 0);
  auto members_of = [&](GroupId group) -> const std::vector<size_t>& {
    size_t gi = static_cast<size_t>(group);
    if (!members_done[gi]) {
      members_done[gi] = 1;
      for (size_t i = 0; i < n; ++i) {
        if (membership.Matches(group, (*obs)[i].user)) {
          members[gi].push_back(i);
        }
      }
    }
    return members[gi];
  };

  // Column-sum vectors, one per comparable group (lazy, shared across every
  // row that lists the group as comparable): colsum[g'][i] = Σ_{b ∈ g'}
  // D(i, b) with b ascending, so a group row later costs O(|own|) instead
  // of O(|own| · |theirs|). The b-ascending inner order keeps each entry
  // bitwise-identical to the per-triple row sums of SearchUnfairness.
  std::vector<std::vector<double>> colsum(num_groups);
  std::vector<uint8_t> colsum_done(num_groups, 0);
  auto colsum_of = [&](GroupId group) -> const std::vector<double>& {
    size_t gi = static_cast<size_t>(group);
    if (!colsum_done[gi]) {
      colsum_done[gi] = 1;
      colsum[gi].assign(n, 0.0);
      for (size_t b : members[gi]) {
        for (size_t i = 0; i < n; ++i) {
          if (i == b) continue;  // never queried: groups are disjoint
          colsum[gi][i] += dist_at(i, b);
        }
      }
      colsum_vectors->Add(1);
    }
    return colsum[gi];
  };

  for (size_t g = 0; g < groups.size(); ++g) {
    GroupId group = groups[g];
    const std::vector<size_t>& own = members_of(group);
    if (own.empty()) continue;
    double group_sum = 0.0;
    size_t group_count = 0;
    for (GroupId other : space.Comparables(group)) {
      const std::vector<size_t>& theirs = members_of(other);
      if (theirs.empty()) continue;
      const std::vector<double>& sums = colsum_of(other);
      double pair_sum = 0.0;
      for (size_t a : own) pair_sum += sums[a];
      group_sum += pair_sum / static_cast<double>(own.size() * theirs.size());
      ++group_count;
    }
    if (group_count > 0) {
      (*out)[g] = group_sum / static_cast<double>(group_count);
    }
  }
  size_t present = 0;
  for (const auto& cell : *out) present += cell.has_value() ? 1 : 0;
  cells_present->Add(present);
  cells_missing->Add(out->size() - present);
  return Status::OK();
}

// Build-level summary gauges of each family, set by every whole-cube build:
// wall-clock of the most recent one and its cell throughput (the
// "cells/sec" headline).
void RecordBuildSummary(const char* family, double elapsed_us, size_t cells) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (!metrics.enabled() || elapsed_us <= 0.0) return;
  std::string prefix = std::string("cube.") + family;
  metrics.gauge(prefix + ".last_build_ms")->Set(elapsed_us / 1e3);
  metrics.gauge(prefix + ".last_build_cells_per_sec")
      ->Set(static_cast<double>(cells) / (elapsed_us / 1e6));
}

// Selects every column of the resolved axes, in row-major (query,
// location) order, without materializing Q×L refs (a scale cube has 10^5+
// columns).
constexpr const std::vector<CubeColumnRef>* kAllColumns = nullptr;
// Chunk size of the unsharded builds: the whole selection at once.
constexpr size_t kOneChunk = std::numeric_limits<size_t>::max();

// Evaluates column (q, l) over the resolved group axis into `out`, which is
// pre-sized to the axis (nullopt = undefined triple).
using ColumnEval = std::function<Status(
    QueryId, LocationId, std::vector<std::optional<double>>*)>;

// An explicit column list must lie inside the axes and name each column
// once: the sink contract is "exactly once", and a repeat would be written
// twice (concurrently, under parallelism).
Status ValidateColumns(const std::vector<CubeColumnRef>& columns,
                       const CubeAxes& resolved) {
  const size_t num_locations = resolved.locations.size();
  std::vector<size_t> offsets;
  offsets.reserve(columns.size());
  for (const CubeColumnRef& column : columns) {
    if (column.query_pos >= resolved.queries.size() ||
        column.location_pos >= num_locations) {
      return Status::InvalidArgument("cube column position out of range");
    }
    offsets.push_back(column.query_pos * num_locations + column.location_pos);
  }
  std::sort(offsets.begin(), offsets.end());
  auto repeat = std::adjacent_find(offsets.begin(), offsets.end());
  if (repeat != offsets.end()) {
    return Status::InvalidArgument(
        "cube column (" + std::to_string(*repeat / num_locations) + ", " +
        std::to_string(*repeat % num_locations) + ") is listed twice");
  }
  return Status::OK();
}

// The one cube build frame. Evaluates the selected columns — `*columns`, or
// every column when kAllColumns — in chunks of `chunk_columns`, each chunk
// fanned out on up to `parallelism` threads of the shared pool, and hands
// every finished column to `sink` exactly once. In flight at any time: one
// column buffer per thread.
Status StreamColumns(const CubeAxes& resolved,
                     const std::vector<CubeColumnRef>* columns,
                     size_t chunk_columns, size_t parallelism,
                     CubeColumnSink* sink, const char* family,
                     const ColumnEval& eval) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Counter* const columns_streamed =
      metrics.counter("cube.sharded.columns_streamed");
  static Counter* const shards_built = metrics.counter("cube.sharded.shards");
  auto start = std::chrono::steady_clock::now();

  if (sink == nullptr) {
    return Status::InvalidArgument("cube build needs a sink");
  }
  if (chunk_columns == 0) {
    return Status::InvalidArgument("shard_columns must be at least 1");
  }
  const size_t num_locations = resolved.locations.size();
  const size_t grid_columns = resolved.queries.size() * num_locations;
  if (columns != kAllColumns) {
    FAIRJOB_RETURN_IF_ERROR(ValidateColumns(*columns, resolved));
  }
  const size_t total =
      columns == kAllColumns ? grid_columns : columns->size();
  for (size_t chunk_start = 0; chunk_start < total;
       chunk_start += chunk_columns) {
    size_t chunk_size = std::min(chunk_columns, total - chunk_start);
    Status built = ParallelFor(
        chunk_size, parallelism, [&](size_t offset) -> Status {
          size_t i = chunk_start + offset;
          CubeColumnRef column =
              columns == kAllColumns
                  ? CubeColumnRef{i / num_locations, i % num_locations}
                  : (*columns)[i];
          std::vector<std::optional<double>> values(resolved.groups.size());
          FAIRJOB_RETURN_IF_ERROR(eval(resolved.queries[column.query_pos],
                                       resolved.locations[column.location_pos],
                                       &values));
          FAIRJOB_RETURN_IF_ERROR(sink->Consume(column.query_pos,
                                                column.location_pos,
                                                values.data(), values.size()));
          columns_streamed->Add(1);
          return Status::OK();
        });
    FAIRJOB_RETURN_IF_ERROR(built);
    shards_built->Add(1);
  }
  if (total == grid_columns) {  // a whole-cube build, not a delta
    RecordBuildSummary(family,
                       std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count(),
                       grid_columns * resolved.groups.size());
  }
  return Status::OK();
}

// The marketplace family on the frame: batched columns over a caller-built
// membership table.
Status StreamMarketplaceColumns(const MarketplaceDataset& data,
                                const GroupSpace& space,
                                const MarketplaceGroupMembership& membership,
                                MarketMeasure measure,
                                const MeasureOptions& options,
                                const CubeAxes& axes,
                                const std::vector<CubeColumnRef>* columns,
                                size_t chunk_columns, size_t parallelism,
                                CubeColumnSink* sink) {
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  return StreamColumns(
      resolved, columns, chunk_columns, parallelism, sink, "market",
      [&](QueryId q, LocationId l, std::vector<std::optional<double>>* out) {
        return EvaluateMarketplaceColumn(data, space, membership, measure,
                                         options, q, l, resolved.groups, out);
      });
}

// The search family on the frame. Pairwise list distances dominate a search
// column, so its distance rows get `parallelism` too (nested on the shared
// pool): a few large cells no longer serialize a whole build.
Status StreamSearchColumns(const SearchDataset& data, const GroupSpace& space,
                           SearchMeasure measure, const MeasureOptions& options,
                           const CubeAxes& axes,
                           const std::vector<CubeColumnRef>* columns,
                           size_t parallelism, CubeColumnSink* sink) {
  if (options.kendall_penalty < 0.0 || options.kendall_penalty > 1.0) {
    return Status::InvalidArgument("kendall_penalty must lie in [0, 1]");
  }
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveSearchCubeAxes(data, space, axes));
  // Membership depends only on user demographics, never on the column, so
  // the label matching is done once and shared read-only by every column.
  SearchGroupMembership membership(data, space);
  return StreamColumns(
      resolved, columns, kOneChunk, parallelism, sink, "search",
      [&](QueryId q, LocationId l, std::vector<std::optional<double>>* out) {
        return EvaluateSearchColumn(data, space, membership, measure, options,
                                    q, l, resolved.groups, out, parallelism);
      });
}

}  // namespace

Result<CubeAxes> ResolveMarketplaceCubeAxes(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            const CubeAxes& axes) {
  return ResolveAxes(axes, space, data.queries().size(),
                     data.locations().size());
}

Result<CubeAxes> ResolveSearchCubeAxes(const SearchDataset& data,
                                       const GroupSpace& space,
                                       const CubeAxes& axes) {
  return ResolveAxes(axes, space, data.queries().size(),
                     data.locations().size());
}

Status CubeMaterializeSink::Consume(size_t query_pos, size_t location_pos,
                                    const std::optional<double>* values,
                                    size_t num_groups) {
  if (num_groups != cube_->axis_size(Dimension::kGroup) ||
      query_pos >= cube_->axis_size(Dimension::kQuery) ||
      location_pos >= cube_->axis_size(Dimension::kLocation)) {
    return Status::InvalidArgument(
        "streamed column does not match the sink cube's axes");
  }
  for (size_t g = 0; g < num_groups; ++g) {
    if (values[g].has_value()) {
      cube_->Set(g, query_pos, location_pos, *values[g]);
    } else {
      cube_->Clear(g, query_pos, location_pos);
    }
  }
  return Status::OK();
}

Result<UnfairnessCube> BuildMarketplaceCube(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            MarketMeasure measure,
                                            const MeasureOptions& options,
                                            const CubeAxes& axes,
                                            size_t parallelism) {
  TraceSpan span("BuildMarketplaceCube", "cube");
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      UnfairnessCube::Make(resolved.groups, resolved.queries,
                           resolved.locations));
  // Worker group membership depends only on demographics, never on the
  // column: labeled once here, shared read-only by every column task.
  MarketplaceGroupMembership membership(data, space);
  CubeMaterializeSink sink(&cube);
  FAIRJOB_RETURN_IF_ERROR(StreamMarketplaceColumns(
      data, space, membership, measure, options, resolved, kAllColumns,
      kOneChunk, parallelism, &sink));
  return cube;
}

Result<UnfairnessCube> BuildSearchCube(const SearchDataset& data,
                                       const GroupSpace& space,
                                       SearchMeasure measure,
                                       const MeasureOptions& options,
                                       const CubeAxes& axes,
                                       size_t parallelism) {
  TraceSpan span("BuildSearchCube", "cube");
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveSearchCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      UnfairnessCube::Make(resolved.groups, resolved.queries,
                           resolved.locations));
  CubeMaterializeSink sink(&cube);
  FAIRJOB_RETURN_IF_ERROR(StreamSearchColumns(data, space, measure, options,
                                              resolved, kAllColumns,
                                              parallelism, &sink));
  return cube;
}

Status BuildMarketplaceCubeSharded(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const ShardedBuildOptions& sharded,
                                   CubeColumnSink* sink) {
  TraceSpan span("BuildMarketplaceCubeSharded", "cube");
  MarketplaceGroupMembership membership(data, space);
  return StreamMarketplaceColumns(data, space, membership, measure, options,
                                  axes, kAllColumns, sharded.shard_columns,
                                  sharded.parallelism, sink);
}

Status BuildMarketplaceCubeColumns(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   const MarketplaceGroupMembership& membership,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const std::vector<CubeColumnRef>& columns,
                                   size_t parallelism, CubeColumnSink* sink) {
  TraceSpan span("BuildMarketplaceCubeColumns", "cube");
  return StreamMarketplaceColumns(data, space, membership, measure, options,
                                  axes, &columns, kOneChunk, parallelism, sink);
}

Status BuildSearchCubeColumns(const SearchDataset& data,
                              const GroupSpace& space, SearchMeasure measure,
                              const MeasureOptions& options,
                              const CubeAxes& axes,
                              const std::vector<CubeColumnRef>& columns,
                              size_t parallelism, CubeColumnSink* sink) {
  TraceSpan span("BuildSearchCubeColumns", "cube");
  return StreamSearchColumns(data, space, measure, options, axes, &columns,
                             parallelism, sink);
}

}  // namespace fairjob

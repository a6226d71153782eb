#include "core/indices.h"

#include <algorithm>
#include <cassert>

namespace fairjob {
namespace {

// The two non-target dimensions in ascending enum order.
void OtherDims(Dimension target, Dimension* d1, Dimension* d2) {
  switch (target) {
    case Dimension::kGroup:
      *d1 = Dimension::kQuery;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kQuery:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kLocation:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kQuery;
      return;
  }
  assert(false);
}

std::vector<size_t> ResolvePositions(const AxisSelector& sel, size_t size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(size);
  for (size_t i = 0; i < size; ++i) all[i] = i;
  return all;
}

}  // namespace

InvertedIndex::InvertedIndex(std::vector<ScoredEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ScoredEntry& a, const ScoredEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.pos < b.pos;
            });
  int32_t max_pos = -1;
  for (const ScoredEntry& e : entries_) max_pos = std::max(max_pos, e.pos);
  values_.assign(static_cast<size_t>(max_pos + 1), 0.0);
  present_.assign(static_cast<size_t>(max_pos + 1), 0);
  // On duplicate positions the first (highest-value) entry wins, matching
  // the pre-dense hash map's emplace semantics.
  for (const ScoredEntry& e : entries_) {
    size_t pos = static_cast<size_t>(e.pos);
    if (present_[pos] == 0) {
      present_[pos] = 1;
      values_[pos] = e.value;
    }
  }
}

void InvertedIndex::Upsert(int32_t pos, double value) {
  std::optional<double> existing = Find(pos);
  if (existing.has_value()) {
    if (*existing == value) return;
    Remove(pos);
  }
  if (static_cast<size_t>(pos) >= values_.size()) {
    values_.resize(static_cast<size_t>(pos) + 1, 0.0);
    present_.resize(static_cast<size_t>(pos) + 1, 0);
  }
  values_[static_cast<size_t>(pos)] = value;
  present_[static_cast<size_t>(pos)] = 1;
  ScoredEntry entry{pos, value};
  auto insert_at = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [](const ScoredEntry& a, const ScoredEntry& b) {
        if (a.value != b.value) return a.value > b.value;
        return a.pos < b.pos;
      });
  entries_.insert(insert_at, entry);
}

void InvertedIndex::Remove(int32_t pos) {
  if (pos < 0 || static_cast<size_t>(pos) >= present_.size() ||
      present_[static_cast<size_t>(pos)] == 0) {
    return;
  }
  present_[static_cast<size_t>(pos)] = 0;
  values_[static_cast<size_t>(pos)] = 0.0;
  for (auto entry = entries_.begin(); entry != entries_.end(); ++entry) {
    if (entry->pos == pos) {
      entries_.erase(entry);
      return;
    }
  }
}

void IndexSet::OtherSizes(Dimension target, size_t* s1, size_t* s2) const {
  Dimension d1 = Dimension::kQuery;
  Dimension d2 = Dimension::kLocation;
  OtherDims(target, &d1, &d2);
  *s1 = sizes_[static_cast<size_t>(d1)];
  *s2 = sizes_[static_cast<size_t>(d2)];
}

IndexSet IndexSet::Build(const UnfairnessCube& cube) {
  IndexSet set;
  const size_t num_groups = cube.axis_size(Dimension::kGroup);
  const size_t num_queries = cube.axis_size(Dimension::kQuery);
  const size_t num_locations = cube.axis_size(Dimension::kLocation);
  set.sizes_[0] = num_groups;
  set.sizes_[1] = num_queries;
  set.sizes_[2] = num_locations;

  // One walk over the cube in storage order (g, then q, then l) appends
  // each present cell to its three lists, list (other1, other2) of a
  // family living at other1 · n2 + other2. Every list therefore receives
  // its entries in ascending target position — the group list (q, l) in
  // ascending g, the query list (g, l) in ascending q, the location list
  // (g, q) in ascending l — so each InvertedIndex sorts exactly the input a
  // per-list walk along the target axis would hand it.
  std::vector<std::vector<ScoredEntry>> lists[3];
  lists[0].resize(num_queries * num_locations);
  lists[1].resize(num_groups * num_locations);
  lists[2].resize(num_groups * num_queries);
  cube.ForEachPresent([&](size_t g, size_t q, size_t l, double v) {
    lists[0][q * num_locations + l].push_back({static_cast<int32_t>(g), v});
    lists[1][g * num_locations + l].push_back({static_cast<int32_t>(q), v});
    lists[2][g * num_queries + q].push_back({static_cast<int32_t>(l), v});
  });

  for (size_t f = 0; f < 3; ++f) {
    std::vector<InvertedIndex>& family = set.family_[f];
    family.reserve(lists[f].size());
    for (std::vector<ScoredEntry>& entries : lists[f]) {
      family.emplace_back(std::move(entries));
    }
    lists[f] = {};
  }
  return set;
}

void IndexSet::RefreshColumn(const UnfairnessCube& cube, size_t query_pos,
                             size_t location_pos) {
  size_t num_groups = sizes_[0];
  size_t num_queries = sizes_[1];
  size_t num_locations = sizes_[2];

  // Group-based family: the list for (query_pos, location_pos), rebuilt.
  {
    std::vector<ScoredEntry> entries;
    for (size_t g = 0; g < num_groups; ++g) {
      std::optional<double> v = cube.Get(g, query_pos, location_pos);
      if (v.has_value()) {
        entries.push_back(ScoredEntry{static_cast<int32_t>(g), *v});
      }
    }
    family_[static_cast<size_t>(Dimension::kGroup)]
           [query_pos * num_locations + location_pos] =
               InvertedIndex(std::move(entries));
  }

  // Query-based family: per group, the (g, location_pos) list's entry for
  // query_pos. Location-based family: per group, the (g, query_pos) list's
  // entry for location_pos.
  for (size_t g = 0; g < num_groups; ++g) {
    std::optional<double> v = cube.Get(g, query_pos, location_pos);
    InvertedIndex& query_list =
        family_[static_cast<size_t>(Dimension::kQuery)]
               [g * num_locations + location_pos];
    InvertedIndex& location_list =
        family_[static_cast<size_t>(Dimension::kLocation)]
               [g * num_queries + query_pos];
    if (v.has_value()) {
      query_list.Upsert(static_cast<int32_t>(query_pos), *v);
      location_list.Upsert(static_cast<int32_t>(location_pos), *v);
    } else {
      query_list.Remove(static_cast<int32_t>(query_pos));
      location_list.Remove(static_cast<int32_t>(location_pos));
    }
  }
}

std::vector<const InvertedIndex*> IndexSet::ListsFor(
    Dimension target, const AxisSelector& other1,
    const AxisSelector& other2) const {
  size_t n1;
  size_t n2;
  OtherSizes(target, &n1, &n2);
  std::vector<size_t> p1s = ResolvePositions(other1, n1);
  std::vector<size_t> p2s = ResolvePositions(other2, n2);
  const auto& family = family_[static_cast<size_t>(target)];
  std::vector<const InvertedIndex*> lists;
  lists.reserve(p1s.size() * p2s.size());
  for (size_t p1 : p1s) {
    for (size_t p2 : p2s) {
      lists.push_back(&family[p1 * n2 + p2]);
    }
  }
  return lists;
}

const InvertedIndex& IndexSet::ListAt(Dimension target, size_t other1_pos,
                                      size_t other2_pos) const {
  size_t n1;
  size_t n2;
  OtherSizes(target, &n1, &n2);
  (void)n1;
  return family_[static_cast<size_t>(target)][other1_pos * n2 + other2_pos];
}

}  // namespace fairjob

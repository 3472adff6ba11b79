#include "partition/partitioner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace grind::partition {

part_t Partitioning::partition_of(vid_t v) const {
  // Explicit contract (was a debug-only assert that silently returned the
  // last partition in release builds): vertices outside [0, num_vertices())
  // have no home partition and asking for one is a caller bug.
  if (v >= num_vertices()) {
    throw std::out_of_range("Partitioning::partition_of: vertex " +
                            std::to_string(v) + " outside [0, " +
                            std::to_string(num_vertices()) + ")");
  }
  // Boundaries are sorted; find the last range whose begin <= v.
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), v,
      [](vid_t lhs, const VertexRange& r) { return lhs < r.begin; });
  return static_cast<part_t>((it - ranges_.begin()) - 1);
}

void Partitioning::build_sub_chunks() {
  static_assert(kSubChunkVertices % 64 == 0);
  sub_chunks_.clear();
  word_aligned_ = true;
  for (const VertexRange& r : ranges_) {
    // A boundary at |V| (empty trailing ranges) has no writer above it.
    if (r.begin % 64 != 0 && r.begin != num_vertices()) word_aligned_ = false;
    for (vid_t v = r.begin; v < r.end; v += kSubChunkVertices)
      sub_chunks_.push_back({v, std::min<vid_t>(r.end, v + kSubChunkVertices)});
  }
  if (sub_chunks_.empty()) sub_chunks_.push_back({0, 0});
}

double Partitioning::edge_imbalance() const {
  // The paper's P·max/total: the mean is over *all* P partitions.  An
  // earlier version averaged over non-empty partitions only, which made a
  // graph whose edges collapse into a few partitions (small |V| vs P·align)
  // report near-perfect balance while most partitions sat idle.
  eid_t total = 0, peak = 0;
  for (part_t p = 0; p < num_partitions(); ++p) {
    total += edge_counts_[p];
    peak = std::max(peak, edge_counts_[p]);
  }
  if (num_partitions() == 0 || total == 0) return 1.0;
  return static_cast<double>(peak) * static_cast<double>(num_partitions()) /
         static_cast<double>(total);
}

double Partitioning::vertex_imbalance() const {
  vid_t peak = 0;
  for (const VertexRange& r : ranges_) peak = std::max(peak, r.size());
  const vid_t total = num_vertices();
  if (num_partitions() == 0 || total == 0) return 1.0;
  return static_cast<double>(peak) * static_cast<double>(num_partitions()) /
         static_cast<double>(total);
}

namespace {

vid_t align_up(vid_t v, vid_t align, vid_t n) {
  if (align <= 1) return std::min(v, n);
  const vid_t rounded = ((v + align - 1) / align) * align;
  return std::min(rounded, n);
}

}  // namespace

Partitioning make_partitioning_from_degrees(const std::vector<eid_t>& degrees,
                                            part_t num_partitions,
                                            PartitionOptions opts) {
  // The header has always demanded a power of two (alignment interacts with
  // the 64-bit frontier-bitmap words); enforce it instead of silently
  // producing boundaries that break the single-writer guarantee.
  if (opts.boundary_align == 0 ||
      (opts.boundary_align & (opts.boundary_align - 1)) != 0)
    throw std::invalid_argument(
        "PartitionOptions::boundary_align must be a power of two, got " +
        std::to_string(opts.boundary_align));
  const vid_t n = static_cast<vid_t>(degrees.size());
  if (num_partitions == 0) num_partitions = 1;

  // Cumulative degree: cum[v] = edges homed at vertices < v.
  std::vector<eid_t> cum(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) cum[v + 1] = cum[v] + degrees[v];
  const eid_t total_edges = cum[n];

  std::vector<VertexRange> ranges(num_partitions);
  std::vector<eid_t> counts(num_partitions, 0);

  vid_t prev = 0;
  for (part_t p = 0; p < num_partitions; ++p) {
    vid_t next;
    if (p + 1 == num_partitions) {
      next = n;  // last partition takes the remainder
    } else if (opts.balance == BalanceMode::kVertices) {
      next = align_up(static_cast<vid_t>(
                          (static_cast<std::uint64_t>(n) * (p + 1)) /
                          num_partitions),
                      opts.boundary_align, n);
    } else {
      // Edge balance: smallest vertex whose cumulative degree reaches the
      // p+1'th equal share — the greedy fill of Algorithm 1.
      const eid_t target =
          (total_edges * static_cast<eid_t>(p + 1)) / num_partitions;
      const auto it = std::lower_bound(cum.begin(), cum.end(), target);
      next = align_up(static_cast<vid_t>(it - cum.begin()),
                      opts.boundary_align, n);
    }
    next = std::max(next, prev);  // keep boundaries monotonic
    ranges[p] = VertexRange{prev, next};
    counts[p] = cum[next] - cum[prev];
    prev = next;
  }
  // Alignment may leave the nominal last boundary short of n; the final
  // range above already absorbs the remainder because it is forced to n.

  return Partitioning(std::move(ranges), std::move(counts), opts);
}

Partitioning make_partitioning(const graph::EdgeList& el, part_t num_partitions,
                               PartitionOptions opts) {
  const std::vector<eid_t> degrees = opts.by == PartitionBy::kDestination
                                         ? el.in_degrees()
                                         : el.out_degrees();
  return make_partitioning_from_degrees(degrees, num_partitions, opts);
}

}  // namespace grind::partition

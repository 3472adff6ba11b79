// Medium-dense backward traversal (Algorithm 2, line 4): the whole-graph CSC
// with a *partitioned computation range*.
//
// Partitioning-by-destination leaves CSC edge order unchanged (§II-C), so
// the index is unpartitioned; what is partitioned is the iteration space:
// each task owns one partition's destination range, giving (a) edge- or
// vertex-balanced load depending on the algorithm's orientation (§III-D) and
// (b) single-writer destinations — no atomics (§IV-B: "in BFS there is no
// need to use atomics in the CSC case as it uses a backward edge traversal").
// Only the next-frontier bits need care: on a partitioning whose boundaries
// are off the 64-vertex grid two sub-chunks share a bitmap word, so those
// bits are set atomically.
//
// Per destination d with cond(d) true, in-edges are scanned; once an update
// deactivates cond(d) the scan breaks early (the direction-optimising trick
// of Beamer et al. that makes backward traversal cheap on dense frontiers).
#pragma once

#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// NUMA domain of one CSC sub-chunk, resolved against the partitioning the
/// *pages* were placed by — the edge-balanced one (builder.cpp
/// place_csr_domains) — which may differ from the partitioning whose
/// sub-chunks drive the computation split (vertex-balanced for
/// vertex-oriented algorithms).  A vertex-balanced chunk can straddle an
/// edge-partition boundary; its begin vertex decides, matching the page
/// granularity of the placement itself.
inline int csc_chunk_domain(const partition::Partitioning& storage_parts,
                            const NumaModel& numa, const VertexRange& chunk) {
  if (chunk.begin >= storage_parts.num_vertices()) return 0;  // degenerate
  return numa.domain_of_partition(storage_parts.partition_of(chunk.begin),
                                  storage_parts.num_partitions());
}

/// The partitioning's ranges split into sub-chunks (word-aligned when the
/// partitioning is) — a build-time-cached property of the Partitioning.
inline const std::vector<VertexRange>& csc_sub_chunks(
    const partition::Partitioning& ranges) {
  return ranges.sub_chunks();
}

/// Lookahead distance (in edges) of the backward gather's frontier-word
/// prefetch: the inner loop's demand miss is `in.get(s)` — one random
/// bitmap word per in-edge — so the word of the source `kCscPrefetchDist`
/// slots ahead is prefetched while the current edges are applied.
inline constexpr std::size_t kCscPrefetchDist = 8;

template <EdgeOperator Op>
Frontier traverse_csc_backward(const graph::Graph& g, Frontier& f, Op& op,
                               const partition::Partitioning& ranges,
                               eid_t* edges_examined,
                               TraversalWorkspace* ws = nullptr,
                               AffineCounts* affinity = nullptr,
                               const sys::CancelToken* cancel = nullptr,
                               bool prefetch = false) {
  f.to_dense(ws);
  const auto& csc = g.csc();
  const NumaModel& numa = g.numa();
  const Bitmap& in = f.bitmap();
  const std::uint64_t* in_words = in.words();
  Bitmap next =
      ws != nullptr ? ws->acquire_bitmap(g.num_vertices()) : Bitmap(g.num_vertices());
  const std::vector<VertexRange>& chunks = ranges.sub_chunks();
  std::vector<eid_t> local_counts;
  std::vector<eid_t>& edge_counts = ws != nullptr
                                        ? ws->edge_counters(chunks.size())
                                        : local_counts;
  if (ws == nullptr) local_counts.assign(chunks.size(), 0);

  // Chunks come from `ranges` (the balance criterion of the running
  // algorithm); their domains come from the edge-balanced partitioning the
  // CSC pages were placed by.
  const partition::Partitioning& storage_parts = g.partitioning_edges();
  const AffineCounts counts = with_shared_words(
      !ranges.word_aligned(), [&](auto shared_words) {
        return affine_for(
            numa, /*owner=*/&g, /*token=*/&chunks, chunks.size(),
            ws != nullptr ? &ws->domain_schedules() : nullptr,
            [&](std::size_t c) {
              return csc_chunk_domain(storage_parts, numa, chunks[c]);
            },
            [&](std::size_t c) {
              // Fired token: drain the sweep without work; edge_map
              // re-checks and discards the partial frontier (bodies must
              // not throw here).
              if (cancel != nullptr && cancel->should_stop()) {
                edge_counts[c] = 0;
                return std::uint64_t{0};
              }
              const VertexRange r = chunks[c];
              eid_t local_edges = 0;
              for (vid_t d = r.begin; d < r.end; ++d) {
                if (!op.cond(d)) continue;
                const auto neigh = csc.neighbors(d);
                const auto wts = csc.weights(d);
                for (std::size_t j = 0; j < neigh.size(); ++j) {
                  ++local_edges;
                  if (prefetch && j + kCscPrefetchDist < neigh.size())
                    __builtin_prefetch(
                        &in_words[neigh[j + kCscPrefetchDist] >> 6]);
                  const vid_t s = neigh[j];
                  if (!in.get(s)) continue;
                  if (op.update(s, d, wts[j])) next.set_as(shared_words, d);
                  if (!op.cond(d)) break;  // destination saturated
                }
              }
              edge_counts[c] = local_edges;
              return static_cast<std::uint64_t>(local_edges);
            });
      });
  if (affinity != nullptr) affinity->merge(counts);

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (eid_t c : edge_counts) total += c;
    *edges_examined = total;
  }

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csr());
  return out;
}

}  // namespace grind::engine

// Edge map over the *transposed* graph: data flows d→s along each original
// edge (s, d).  Ligra exposes this as G.transpose(); it is needed by the
// dependency-accumulation phase of betweenness centrality.
//
// The composite layouts serve the transpose for free by swapping roles:
//   * sparse  — iterate active vertices u, push along original *in*-edges
//               (CSC adjacency of u), atomics required;
//   * medium  — gather per original *source* vertex v over its out-edges
//               (CSR adjacency of v): v is the unique writer → no atomics
//               (bar the next-frontier bits on a partitioning that is not
//               word-aligned, as in traverse_csc.hpp).
//               Computation range = the same partitioned vertex ranges;
//   * dense   — partitioned COO scanned with endpoint roles swapped.  The
//               partitions own *destination* ranges of the original graph,
//               which are source ranges of the transpose, so writers are
//               not unique and atomics are always required (this is why the
//               paper's partitioning-by-destination pairs with forward
//               flow only).
#pragma once

#include <omp.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/bitmap.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

namespace grind::engine {

/// Sparse transpose traversal: for active u, edges (v, u) deliver u→v.
template <EdgeOperator Op>
Frontier traverse_transpose_sparse(const graph::Graph& g, Frontier& f, Op& op,
                                   eid_t* edges_examined,
                                   TraversalWorkspace* ws = nullptr) {
  f.to_sparse(ws);
  const auto& csc = g.csc();
  const auto verts = f.vertices();
  const int nt = num_threads();
  std::vector<std::vector<vid_t>> local_buffers;
  std::vector<std::vector<vid_t>>& buffers =
      ws != nullptr ? ws->thread_buffers(static_cast<std::size_t>(nt))
                    : local_buffers;
  if (ws == nullptr) local_buffers.resize(static_cast<std::size_t>(nt));
  std::vector<eid_t> local_counts;
  std::vector<eid_t>& edge_counts =
      ws != nullptr ? ws->edge_counters(static_cast<std::size_t>(nt))
                    : local_counts;
  if (ws == nullptr) local_counts.assign(static_cast<std::size_t>(nt), 0);

#pragma omp parallel num_threads(nt)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    auto& buf = buffers[t];
    eid_t local_edges = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::size_t i = 0; i < verts.size(); ++i) {
      const vid_t u = verts[i];
      const auto neigh = csc.neighbors(u);  // original in-neighbors of u
      const auto wts = csc.weights(u);
      local_edges += neigh.size();
      for (std::size_t j = 0; j < neigh.size(); ++j) {
        const vid_t v = neigh[j];
        if (op.cond(v) && op.update_atomic(u, v, wts[j])) buf.push_back(v);
      }
    }
    edge_counts[t] = local_edges;
  }
  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
      total += edge_counts[t];
    *edges_examined = total;
  }
  std::size_t total_active = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
    total_active += buffers[t].size();
  std::vector<vid_t> next =
      ws != nullptr ? ws->acquire_vertex_list() : std::vector<vid_t>{};
  next.reserve(total_active);
  for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
    next.insert(next.end(), buffers[t].begin(), buffers[t].end());
  return Frontier::from_vertices(g.num_vertices(), std::move(next), &g.csc());
}

/// Backward transpose traversal: gather, per original source v, over v's
/// out-edges (v, u); active u contribute to v.  Single writer per v.
template <EdgeOperator Op>
Frontier traverse_transpose_backward(const graph::Graph& g, Frontier& f,
                                     Op& op,
                                     const partition::Partitioning& ranges,
                                     eid_t* edges_examined,
                                     TraversalWorkspace* ws = nullptr,
                                     AffineCounts* affinity = nullptr) {
  f.to_dense(ws);
  const auto& csr = g.csr();
  const NumaModel& numa = g.numa();
  const Bitmap& in = f.bitmap();
  Bitmap next =
      ws != nullptr ? ws->acquire_bitmap(g.num_vertices()) : Bitmap(g.num_vertices());
  const std::vector<VertexRange>& chunks = ranges.sub_chunks();
  std::vector<eid_t> local_counts;
  std::vector<eid_t>& edge_counts = ws != nullptr
                                        ? ws->edge_counters(chunks.size())
                                        : local_counts;
  if (ws == nullptr) local_counts.assign(chunks.size(), 0);

  // The gather writes per original *source* vertex, but the CSR rows it
  // reads live on the same vertex ranges the forward CSC uses, so the same
  // domain-affine schedule applies — domains resolved against the
  // edge-balanced partitioning the CSR pages were placed by.
  const partition::Partitioning& storage_parts = g.partitioning_edges();
  const AffineCounts counts = with_shared_words(
      !ranges.word_aligned(), [&](auto shared_words) {
        return affine_for(
            numa, /*owner=*/&g, /*token=*/&chunks, chunks.size(),
            ws != nullptr ? &ws->domain_schedules() : nullptr,
            [&](std::size_t c) {
              return csc_chunk_domain(storage_parts, numa, chunks[c]);
            },
            [&](std::size_t p) {
              const VertexRange r = chunks[p];
              eid_t local_edges = 0;
              for (vid_t v = r.begin; v < r.end; ++v) {
                if (!op.cond(v)) continue;
                const auto neigh = csr.neighbors(v);
                const auto wts = csr.weights(v);
                for (std::size_t j = 0; j < neigh.size(); ++j) {
                  ++local_edges;
                  const vid_t u = neigh[j];
                  if (!in.get(u)) continue;
                  if (op.update(u, v, wts[j])) next.set_as(shared_words, v);
                  if (!op.cond(v)) break;
                }
              }
              edge_counts[p] = local_edges;
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
  out.recount(&g.csc());
  return out;
}

/// Dense transpose traversal over the partitioned COO with roles swapped —
/// atomics are unavoidable (partitions own original-destination ranges,
/// which are *reader* ranges here).
template <EdgeOperator Op>
Frontier traverse_transpose_coo(const graph::Graph& g, Frontier& f, Op& op,
                                eid_t* edges_examined,
                                TraversalWorkspace* ws = nullptr) {
  f.to_dense(ws);
  const auto& coo = g.coo();
  const Bitmap& in = f.bitmap();
  Bitmap next =
      ws != nullptr ? ws->acquire_bitmap(g.num_vertices()) : Bitmap(g.num_vertices());
  if (edges_examined != nullptr) *edges_examined = coo.num_edges();

  const auto all = coo.all_edges();
  constexpr std::size_t kChunk = 1 << 14;
  const std::size_t chunks = (all.size() + kChunk - 1) / kChunk;
  parallel_for_dynamic(0, chunks, [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t hi = std::min(all.size(), lo + kChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const Edge& e = all[i];  // flow e.dst → e.src
      if (in.get(e.dst) && op.cond(e.src) &&
          op.update_atomic(e.dst, e.src, e.weight)) {
        next.set_atomic(e.src);
      }
    }
  });
  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csc());
  return out;
}

/// Transpose analogue of edge_map(): Algorithm-2 decision with the frontier
/// weight measured in *in*-degrees (out-degrees of the transpose).
template <EdgeOperator Op>
Frontier edge_map_transpose(const graph::Graph& g, Frontier& f, Op op,
                            const Options& opts = {},
                            TraversalStats* stats = nullptr,
                            TraversalWorkspace* ws = nullptr) {
  // Poll at entry only: the transpose kernels run at most one full sweep
  // between edge_map_transpose boundaries, and iterative transpose callers
  // (BP) hit this poll once per iteration — the same boundary guarantee as
  // the forward path without threading the token into three more kernels.
  poll_cancel(opts.cancel.get());
  if (f.empty()) return Frontier::empty(g.num_vertices());

  // Recompute the weight against in-degrees: Σ deg⁻ over active vertices
  // (out-degrees of the transpose).  Computed in place — copying the
  // frontier here would allocate a bitmap per call.
  const auto& csc = g.csc();
  eid_t in_deg = 0;
  if (f.is_dense()) {
    const std::uint64_t* words = f.bitmap().words();
    in_deg = parallel_reduce_sum<eid_t>(
        0, f.bitmap().num_words(), [&](std::size_t i) {
          eid_t sum = 0;
          std::uint64_t word = words[i];
          while (word != 0) {
            const int b = std::countr_zero(word);
            sum += csc.degree(
                static_cast<vid_t>(i * 64 + static_cast<std::size_t>(b)));
            word &= word - 1;
          }
          return sum;
        });
  } else {
    const auto verts = f.vertices();
    in_deg = parallel_reduce_sum<eid_t>(
        0, verts.size(), [&](std::size_t i) { return csc.degree(verts[i]); });
  }
  const eid_t w = static_cast<eid_t>(f.num_active()) + in_deg;

  TraversalKind kind = decide_traversal(w, g.num_edges(), opts);
  if (kind == TraversalKind::kPartitionedCsr)
    kind = TraversalKind::kDenseCoo;  // pruned CSR has no transpose form
  // Unless COO is explicitly forced, prefer the atomic-free gather for
  // dense transpose frontiers: partitioning-by-destination aligns update
  // sets with *forward* flow only, so transpose-COO always pays atomics
  // (§II-C) and loses to the single-writer gather.
  if (kind == TraversalKind::kDenseCoo && opts.layout != Layout::kDenseCoo)
    kind = TraversalKind::kBackwardCsc;

  Timer timer;
  eid_t edges = 0;
  Frontier out;
  bool used_atomics = false;
  AffineCounts affinity;
  switch (kind) {
    case TraversalKind::kSparseCsr:
      out = traverse_transpose_sparse(g, f, op, &edges, ws);
      used_atomics = true;
      break;
    case TraversalKind::kBackwardCsc: {
      const auto& ranges =
          opts.csc_balance == partition::BalanceMode::kVertices
              ? g.partitioning_vertices()
              : g.partitioning_edges();
      out = traverse_transpose_backward(g, f, op, ranges, &edges, ws,
                                        &affinity);
      used_atomics = false;
      break;
    }
    case TraversalKind::kDenseCoo:
    case TraversalKind::kPartitionedCsr:  // unreachable (remapped above)
      // Transpose-COO has no home-domain story (partitions own the *reader*
      // side here), so it stays on plain dynamic scheduling and reports no
      // affinity.
      out = traverse_transpose_coo(g, f, op, &edges, ws);
      used_atomics = true;
      break;
  }
  if (stats != nullptr) {
    stats->record(kind, timer.seconds(), edges, used_atomics);
    stats->record_affinity(affinity);
  }
  return out;
}

}  // namespace grind::engine

// The non-atomic partition kernels at every boundary alignment the builder
// accepts.  Partition-by-destination makes each vertex's value single-
// writer, but the next-frontier bitmap packs 64 vertices per word: with
// boundary_align < 64 two partitions (or two CSC sub-chunks) own vertices
// of the same word, and plain read-modify-write bit sets from concurrent
// tasks lose bits.  PRDelta then drops vertices from its frontier and stops
// early; BFS leaves vertices unreached or at the wrong depth.
//
// The graphs are a few hundred vertices split into 8 partitions, so at
// align 1 and 8 nearly every bitmap word is shared; every round is forced
// onto the kernel under test (sparse_fraction = 0) with atomics off.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/ref/reference.hpp"
#include "common/test_names.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

using Param = std::tuple<int, vid_t, Layout>;  // threads, align, layout

/// Two disjoint random blocks (the fuzzer's "disconnected" family) and a
/// heavy-tailed R-MAT graph.
std::vector<graph::EdgeList> test_graphs() {
  std::vector<graph::EdgeList> out;
  auto a = graph::erdos_renyi(150, 450, 11);
  const auto b = graph::erdos_renyi(120, 360, 12);
  for (const auto& e : b.edges()) a.add(e.src + 150, e.dst + 150, e.weight);
  a.set_num_vertices(270);
  out.push_back(std::move(a));
  out.push_back(graph::rmat(8, 8, 13));
  return out;
}

class SingleWriterWords : public ::testing::TestWithParam<Param> {};

TEST_P(SingleWriterWords, PrDeltaAndBfsMatchOracles) {
  const auto [threads, align, layout] = GetParam();
  const ThreadLimitGuard limit(threads);

  Options opts;
  opts.layout = layout;
  opts.atomics = AtomicsMode::kForceOff;
  opts.sparse_fraction = 0.0;  // every round on the kernel under test

  int case_no = 0;
  for (const graph::EdgeList& el : test_graphs()) {
    SCOPED_TRACE("graph " + std::to_string(case_no++));
    graph::BuildOptions b;
    b.num_partitions = 8;
    b.boundary_align = align;
    b.build_partitioned_csr = layout == Layout::kPartitionedCsr;
    const graph::Graph g = graph::Graph::build(graph::EdgeList(el), b);

    algorithms::PageRankDeltaOptions po;
    po.epsilon = 1e-9;
    po.max_rounds = 300;
    Engine pr_eng(g, opts);
    std::vector<double> rank = algorithms::pagerank_delta(pr_eng, po).rank;
    for (double& r : rank) r *= 1.0 - po.damping;
    const std::vector<double> want =
        algorithms::ref::pagerank(el, 200, po.damping);
    ASSERT_EQ(rank.size(), want.size());
    for (std::size_t v = 0; v < rank.size(); ++v)
      ASSERT_NEAR(rank[v], want[v], 1e-5) << "PRDelta v=" << v;

    for (vid_t source : {vid_t{0}, g.max_out_degree_source()}) {
      Engine bfs_eng(g, opts);
      EXPECT_EQ(algorithms::bfs(bfs_eng, source).level,
                algorithms::ref::bfs_levels(el, source))
          << "BFS source=" << source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NonAtomicKernels, SingleWriterWords,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(vid_t{1}, vid_t{8}, vid_t{64}),
                       ::testing::Values(Layout::kDenseCoo,
                                         Layout::kBackwardCsc,
                                         Layout::kPartitionedCsr)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_align" +
             std::to_string(std::get<1>(info.param)) + "_" +
             testing_support::layout_test_name(std::get<2>(info.param));
    });

}  // namespace
}  // namespace grind::engine

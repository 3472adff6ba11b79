// The benchmark workloads.  Each one builds its graph from the seed, sets
// the service up several times (setup_s), drives a seeded query stream
// through service::GraphService for the measured window, checks a seeded
// sample of the outputs with the registry's check hooks, and prints one
// result line.  The traced run adds the per-layer numbers: builder stage
// times, layout sizes, partition quality, engine kernel statistics from a
// replay of the same queries on engine::Engine, service internals, the
// open-loop rate ladder, and the tracing overhead.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/params.hpp"
#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "engine/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "partition/replication.hpp"
#include "service/graph_service.hpp"
#include "sys/parallel.hpp"

namespace perfbench {

namespace {

using grind::algorithms::AlgorithmRegistry;
using grind::algorithms::AnyResult;
using grind::algorithms::Params;
using grind::service::GraphService;
using grind::service::QueryRequest;
using grind::service::QueryResult;
using grind::service::QueryStatus;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run; setup_s is their median.  At least kMinSetups, and
/// more (up to kMaxSetups) while they have taken less than kSetupBudgetS,
/// so a small graph's set-up is sampled often enough to be steady.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
/// Slices of an untraced run's measured window (see run_one).
constexpr std::size_t kSlices = 3;
/// Mix entry that repeats an earlier request exactly.
constexpr const char* kRepeat = "repeat";

// ------------------------------------------------------------- workloads ---

struct MixEntry {
  const char* algo;  ///< paper code, or kRepeat
  int weight;        ///< copies per shuffled block
};

struct Workload {
  const char* name = "";
  // Graph.
  bool road = false;  ///< road lattice (side × side) instead of R-MAT
  int rmat_scale = 0;
  int road_side = 0;
  // Service shape.
  bool open_loop = false;
  std::size_t workers = 1;    ///< 0 = nproc
  int threads_per_query = 0;  ///< 0 = nproc
  std::size_t cache_entries = 0;
  // Queries.
  std::vector<MixEntry> mix;
  const char* setup_algo = "";  ///< the one query set-up waits for
  std::map<std::string, Params> fixed_params;
  bool vary_pr_damping = false;  ///< makes PR requests distinct
  std::size_t repeat_gap = 10;   ///< repeats copy a request at least this
  std::size_t repeat_window = 60;  ///< ... and at most this far back
  std::size_t bump_every = 0;      ///< bump_epoch before every k-th send
  // Open loop.
  double rate = 0.0;               ///< offered q/s of the measured window
  std::vector<double> ladder;      ///< offered q/s of the traced ladder
  double ladder_seconds = 0.0;     ///< schedule span per ladder rate
  double p90_limit_ms = 0.0;       ///< SLO on latency_p90_ms
  // Output check: results checked per algorithm, and replayed queries per
  // algorithm on engine::Engine in the traced run.
  std::size_t checks_per_algo = 1;
  std::size_t replay_per_algo = 3;
};

Params with(std::initializer_list<std::pair<const char*, std::int64_t>> kv) {
  Params p;
  for (const auto& [k, v] : kv) p.set(k, v);
  return p;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = [] {
    std::vector<Workload> v;

    Workload bd;
    bd.name = "batch-dense";
    bd.rmat_scale = 20;
    bd.workers = 1;
    bd.threads_per_query = 0;
    bd.mix = {{"PR", 2}, {"CC", 2}, {"BP", 1}};
    bd.setup_algo = "PR";
    bd.fixed_params = {{"PR", with({{"iterations", 2}})},
                       {"BP", with({{"iterations", 1}})}};
    bd.checks_per_algo = 1;
    bd.replay_per_algo = 3;
    v.push_back(bd);

    Workload ts;
    ts.name = "traverse-sparse";
    ts.road = true;
    ts.road_side = 360;
    ts.workers = 1;
    ts.threads_per_query = 0;
    ts.mix = {{"BFS", 1}, {"BC", 2}, {"BF", 1}};
    ts.setup_algo = "BFS";
    ts.checks_per_algo = 3;
    ts.replay_per_algo = 5;
    v.push_back(ts);

    Workload sm;
    sm.name = "service-mixed";
    sm.rmat_scale = 18;
    sm.open_loop = true;
    sm.workers = 0;
    sm.threads_per_query = 1;
    sm.cache_entries = 64;
    sm.mix = {{"BFS", 8}, {"BF", 3}, {"PR", 2}, {"CC", 2}, {kRepeat, 5}};
    sm.setup_algo = "BFS";
    sm.vary_pr_damping = true;
    sm.bump_every = 64;
    sm.rate = 20.0;
    sm.ladder = {25.0, 50.0, 75.0, 100.0};
    sm.ladder_seconds = 4.0;
    sm.p90_limit_ms = 500.0;
    sm.checks_per_algo = 2;
    sm.replay_per_algo = 3;
    v.push_back(sm);
    return v;
  }();
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

grind::graph::EdgeList make_graph(const Workload& w, std::uint64_t seed) {
  const std::uint64_t s = derive_seed(seed, 1);
  if (w.road)
    return grind::graph::road_lattice(static_cast<grind::vid_t>(w.road_side),
                                      static_cast<grind::vid_t>(w.road_side),
                                      0.05, s);
  return grind::graph::rmat(w.rmat_scale, 16, s);
}

// ---------------------------------------------------------- query stream ---

struct Query {
  std::string algo;
  Params params;
  bool repeat = false;  ///< an exact copy of an earlier request
};

/// Out-degrees of the input edge list, indexed by original vertex ID.
using Degrees = std::vector<grind::eid_t>;

/// A uniformly drawn vertex with at least one out-edge, so a traversal
/// from it does work.
grind::vid_t random_source(const Degrees& deg, Rng& rng) {
  for (;;) {
    const auto v = static_cast<grind::vid_t>(rng.below(deg.size()));
    if (deg[v] > 0) return v;
  }
}

Query fresh_query(const Workload& w, const std::string& algo,
                  const Degrees& deg, Rng& rng) {
  Query q{algo, {}, false};
  if (auto it = w.fixed_params.find(algo); it != w.fixed_params.end())
    q.params = it->second;
  if (AlgorithmRegistry::instance().at(algo).caps.needs_source)
    q.params.set("source", static_cast<std::int64_t>(random_source(deg, rng)));
  if (algo == "PR" && w.vary_pr_damping)
    q.params.set("damping",
                 0.80 + 1e-4 * static_cast<double>(rng.below(1000)));
  return q;
}

/// Seeded stream: the mix is laid out in blocks holding every entry
/// `weight` times, each block shuffled, so every prefix of the stream keeps
/// the mix's shares (to within one block) whatever the seed.
std::vector<Query> make_stream(const Workload& w, const Degrees& deg,
                               std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::string> block;
  for (const auto& e : w.mix)
    for (int i = 0; i < e.weight; ++i) block.emplace_back(e.algo);
  std::vector<Query> out;
  out.reserve(n);
  while (out.size() < n) {
    for (std::size_t i = block.size(); i > 1; --i)
      std::swap(block[i - 1], block[rng.below(i)]);
    for (const auto& algo : block) {
      const std::size_t i = out.size();
      if (algo == kRepeat && i >= w.repeat_gap) {
        const std::size_t lo =
            i > w.repeat_window ? i - w.repeat_window : 0;
        const std::size_t hi = i - w.repeat_gap;
        Query q = out[lo + rng.below(hi - lo + 1)];
        q.repeat = true;
        out.push_back(std::move(q));
      } else if (algo == kRepeat) {
        out.push_back(fresh_query(w, w.mix.front().algo, deg, rng));
      } else {
        out.push_back(fresh_query(w, algo, deg, rng));
      }
    }
  }
  out.resize(n);
  return out;
}

/// The distinct algorithms a workload runs (mix order, repeats excluded).
std::vector<std::string> algorithms_of(const Workload& w) {
  std::vector<std::string> out;
  for (const auto& e : w.mix)
    if (std::string(e.algo) != kRepeat) out.emplace_back(e.algo);
  return out;
}

// ----------------------------------------------------------- measurement ---

/// One resolved request as the benchmark saw it.
struct Sample {
  std::string algo;
  QueryStatus status = QueryStatus::kOk;
  bool cached = false;
  double latency_s = 0.0;
  double lag_s = 0.0;
  double submit_s = 0.0;
  double queue_s = 0.0;
  double exec_s = 0.0;
};

/// A result kept for the output check.
struct Kept {
  Query query;
  AnyResult value;
  bool cached = false;
};

/// Chooses the seeded sample of results to check: the first completion
/// of each algorithm, further ones with probability `keep_prob` (decided by
/// a hash of the seed and the request's position) up to `per_algo` per
/// algorithm, and the first cache hit, so cached results are checked too.
class Sampler {
 public:
  Sampler(std::uint64_t seed, std::size_t per_algo, double keep_prob)
      : seed_(seed), per_algo_(per_algo), keep_prob_(keep_prob) {}

  void offer(std::uint64_t position, const Query& q, const QueryResult& r) {
    if (!r.ok()) return;
    std::size_t& n = kept_per_algo_[q.algo];
    const bool first_hit = r.cached && !kept_hit_;
    const bool keep =
        first_hit || n == 0 ||
        (n < per_algo_ &&
         Rng(derive_seed(seed_, position)).uniform() < keep_prob_);
    if (!keep) return;
    kept_hit_ = kept_hit_ || r.cached;
    ++n;
    kept_.push_back({q, r.value, r.cached});
  }
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }

 private:
  std::uint64_t seed_;
  std::size_t per_algo_;
  double keep_prob_;
  std::map<std::string, std::size_t> kept_per_algo_;
  bool kept_hit_ = false;
  std::vector<Kept> kept_;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::size_t queue_depth_max = 0;
  /// Outstanding requests sampled at each open-loop send.
  std::vector<double> outstanding;
  grind::service::ServiceStats stats_before, stats_after;
  /// Share of the host's CPU time the hypervisor stole during the phase.
  double steal = 0.0;
};

QueryRequest to_request(const Query& q) { return QueryRequest(q.algo, q.params); }

void trace_query(Tracer& tr, std::uint64_t qid, Clock::time_point due,
                 Clock::time_point sent, Clock::time_point submitted,
                 Clock::time_point done, const QueryResult& r) {
  if (!tr.on()) return;
  const double t_done = tr.at(done);
  const std::int32_t root = tr.add("query", tr.at(due), t_done, -1, qid);
  if (sent > due) tr.add("loadgen.lag", tr.at(due), tr.at(sent), root, qid);
  tr.add("service.submit", tr.at(sent), tr.at(submitted), root, qid);
  if (r.cached) return;
  const std::int32_t wait =
      tr.add("service.wait", tr.at(submitted), t_done, root, qid);
  // Queue and execution intervals from the service's own timers, placed at
  // the end of the wait (their sum never exceeds it).
  const double exec_lo = t_done - r.seconds;
  tr.add("service.queue", exec_lo - r.queue_seconds, exec_lo, wait, qid);
  tr.add("service.exec", exec_lo, t_done, wait, qid);
}

Sample to_sample(const Query& q, const QueryResult& r) {
  Sample s;
  s.algo = q.algo;
  s.status = r.status;
  s.cached = r.cached;
  s.queue_s = r.queue_seconds;
  s.exec_s = r.seconds;
  return s;
}

/// Closed loop, one client, one outstanding query: the next request is
/// sent when the previous one resolved.  Runs for `seconds` and until the
/// p90 has kMinSamplesBeyond samples beyond it (capped at 4 × seconds).
PhaseResult run_closed(GraphService& svc, const std::vector<Query>& stream,
                       std::size_t* cursor, double seconds, Tracer& tr,
                       Sampler* sampler, std::uint64_t* next_qid) {
  PhaseResult out;
  out.stats_before = svc.stats();
  const std::size_t min_n = min_samples_for(0.9);
  const Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if ((elapsed >= seconds && out.samples.size() >= min_n) ||
        elapsed >= 4 * seconds)
      break;
    const std::size_t position = (*cursor)++;
    const Query& q = stream[position % stream.size()];
    QueryRequest req = to_request(q);
    const Clock::time_point t0 = Clock::now();
    std::future<QueryResult> fut = svc.submit(std::move(req));
    const Clock::time_point t1 = Clock::now();
    out.queue_depth_max = std::max(out.queue_depth_max, svc.queue_depth());
    QueryResult r = fut.get();
    const Clock::time_point t2 = Clock::now();
    Sample s = to_sample(q, r);
    s.latency_s = seconds_between(t0, t2);
    s.submit_s = seconds_between(t0, t1);
    out.samples.push_back(s);
    trace_query(tr, ++*next_qid, t0, t0, t1, t2, r);
    if (sampler != nullptr) sampler->offer(position, q, r);
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.stats_after = svc.stats();
  return out;
}

/// Open loop over a Poisson schedule of `stream.size()` requests at `rate`.
PhaseResult run_open(GraphService& svc, const Workload& w,
                     const std::vector<Query>& stream, double rate,
                     std::uint64_t schedule_seed, Tracer& tr, Sampler* sampler,
                     std::uint64_t* next_qid) {
  PhaseResult out;
  out.samples.resize(stream.size());
  std::vector<bool> seen(stream.size(), false);
  const std::vector<double> schedule =
      poisson_schedule(rate, stream.size(), schedule_seed);
  const std::uint64_t qid0 = *next_qid;

  OpenLoop<QueryResult> loop;
  loop.submit = [&](std::size_t i) {
    if (w.bump_every > 0 && i > 0 && i % w.bump_every == 0)
      svc.bump_epoch(GraphService::kDefaultGraphName);
    return svc.submit(to_request(stream[i]));
  };
  loop.sample = [&](std::size_t outstanding) {
    out.outstanding.push_back(static_cast<double>(outstanding));
    out.queue_depth_max = std::max(out.queue_depth_max, svc.queue_depth());
  };
  loop.done = [&](const Completion& c, QueryResult&& r) {
    Sample s = to_sample(stream[c.index], r);
    s.latency_s = c.latency_s;
    s.lag_s = c.lag_s;
    s.submit_s = c.submit_s;
    out.samples[c.index] = s;
    seen[c.index] = true;
    if (tr.on()) {
      const auto lat = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(c.latency_s));
      const auto lag = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(c.lag_s));
      const auto sub = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(c.submit_s));
      const Clock::time_point due = c.done_at - lat;
      trace_query(tr, qid0 + c.index + 1, due, due + lag, due + lag + sub,
                  c.done_at, r);
    }
    if (sampler != nullptr) sampler->offer(qid0 + c.index, stream[c.index], r);
  };
  out.stats_before = svc.stats();
  out.wall_s = loop.run(schedule);
  out.stats_after = svc.stats();
  *next_qid += stream.size();
  for (std::size_t i = 0; i < seen.size(); ++i)
    if (!seen[i]) throw std::logic_error("open loop lost a request");
  return out;
}

/// Backlog growth over an open-loop phase: mean outstanding requests over
/// the last quarter of the sends against the first quarter.
bool backlog_grows(const std::vector<double>& outstanding) {
  const std::size_t q = outstanding.size() / 4;
  if (q == 0) return false;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += outstanding[i];
    last += outstanding[outstanding.size() - 1 - i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2.0 * first + 1.0;
}

std::size_t count_failed(const PhaseResult& p) {
  std::size_t n = 0;
  for (const auto& s : p.samples) n += s.status != QueryStatus::kOk;
  return n;
}

std::vector<double> latencies_ms(const PhaseResult& p) {
  std::vector<double> v;
  v.reserve(p.samples.size());
  for (const auto& s : p.samples) v.push_back(s.latency_s * 1e3);
  return v;
}

/// Run the check hooks on the kept results, at most nproc at a time.
/// Returns the number of mismatches; `compared` counts real comparisons.
std::size_t check_outputs(const grind::graph::Graph& g,
                          const std::vector<Kept>& kept, int nproc,
                          std::size_t* compared) {
  const grind::algorithms::CheckContext cx{&g.edge_list(),
                                           g.remap().is_identity()};
  std::size_t mismatches = 0;
  *compared = 0;
  for (std::size_t lo = 0; lo < kept.size();
       lo += static_cast<std::size_t>(nproc)) {
    const std::size_t hi =
        std::min(kept.size(), lo + static_cast<std::size_t>(nproc));
    std::vector<std::future<std::pair<bool, std::string>>> futs;
    for (std::size_t i = lo; i < hi; ++i) {
      futs.push_back(std::async(std::launch::async, [&, i] {
        const auto& desc = AlgorithmRegistry::instance().at(kept[i].query.algo);
        try {
          const bool ran =
              desc.check(cx, desc.resolve(kept[i].query.params, g), kept[i].value);
          return std::make_pair(ran, std::string());
        } catch (const std::exception& e) {
          return std::make_pair(true, std::string(e.what()));
        }
      }));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      auto [ran, err] = futs[i - lo].get();
      *compared += ran;
      if (!err.empty()) {
        ++mismatches;
        std::fprintf(stderr, "perfbench: output mismatch (%s%s): %s\n",
                     kept[i].query.algo.c_str(),
                     kept[i].cached ? ", cache hit" : "", err.c_str());
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------- set-up ---

struct StageTimes {
  double order = 0, assign = 0, partition = 0, layouts = 0, assemble = 0;
};

struct Setup {
  std::unique_ptr<GraphService> svc;
  double seconds = 0.0;
  StageTimes stages;
};

grind::service::ServiceConfig service_config(const Workload& w, int nproc) {
  grind::service::ServiceConfig cfg;
  cfg.workers = w.workers == 0 ? static_cast<std::size_t>(nproc) : w.workers;
  cfg.threads_per_query =
      w.threads_per_query == 0 ? nproc : w.threads_per_query;
  cfg.result_cache_capacity = w.cache_entries;
  return cfg;
}

/// From an in-memory edge list to the first query result: the builder
/// stages (what Graph::build runs), GraphService construction and one
/// query.  Default BuildOptions and engine Options throughout.
Setup set_up(const Workload& w, const grind::graph::EdgeList& el, int nproc,
             const Query& first, Tracer& tr) {
  grind::graph::EdgeList copy = el;  // outside the timed window
  Setup s;
  Scope root(tr, "setup");
  const Clock::time_point t0 = Clock::now();
  grind::graph::GraphBuilder b(std::move(copy));
  auto stage = [&](const char* name, double* out, auto&& fn) {
    Scope span(tr, name, root.id());
    const Clock::time_point a = Clock::now();
    fn();
    *out = seconds_between(a, Clock::now());
  };
  stage("graph.order", &s.stages.order, [&] { b.order(); });
  stage("graph.assign", &s.stages.assign, [&] { b.assign(); });
  stage("graph.partition", &s.stages.partition, [&] { b.partition(); });
  stage("graph.layouts", &s.stages.layouts, [&] { b.layouts(); });
  grind::graph::Graph g;
  stage("graph.assemble", &s.stages.assemble,
        [&] { g = std::move(b).build(); });
  {
    Scope span(tr, "service.construct", root.id());
    s.svc = std::make_unique<GraphService>(std::move(g),
                                           service_config(w, nproc));
  }
  QueryResult r;
  {
    Scope span(tr, "service.first_query", root.id());
    r = s.svc->submit(to_request(first)).get();
  }
  s.seconds = seconds_between(t0, Clock::now());
  if (!r.ok())
    throw std::runtime_error("set-up query failed: " + r.error);
  return s;
}

// ----------------------------------------------------------- engine layer ---

struct EngineLayer {
  grind::engine::TraversalStats stats;
  double query_s = 0.0;  ///< summed wall time of the replayed queries
  std::size_t queries = 0;
  std::uint64_t allocations = 0;
  std::map<std::string, std::vector<double>> ms_by_algo;
  std::map<std::string, std::vector<double>> sweeps_by_algo;
};

void merge(grind::engine::TraversalStats& into,
           const grind::engine::TraversalStats& s) {
  for (std::size_t k = 0; k < grind::engine::kNumTraversalKinds; ++k) {
    into.calls[k] += s.calls[k];
    into.seconds[k] += s.seconds[k];
    into.edges_examined[k] += s.edges_examined[k];
  }
  into.atomic_rounds += s.atomic_rounds;
  into.nonatomic_rounds += s.nonatomic_rounds;
  into.record_affinity(s.affinity);
}

/// Replay the first `replay_per_algo` queries of each algorithm in the
/// stream through AlgorithmRegistry on engine::Engine (default Options,
/// one reused workspace, the service's per-query thread count): one warm
/// pass, then a measured pass whose stats, sweeps and allocations are kept.
EngineLayer replay_engine(const Workload& w, const grind::graph::Graph& g,
                          const std::vector<Query>& stream, int threads,
                          Tracer& tr) {
  std::vector<const Query*> picked;
  std::map<std::string, std::size_t> taken;
  for (const auto& q : stream)
    if (!q.repeat && taken[q.algo] < w.replay_per_algo) {
      ++taken[q.algo];
      picked.push_back(&q);
    }
  const auto& reg = AlgorithmRegistry::instance();
  std::vector<Params> resolved;
  for (const Query* q : picked)
    resolved.push_back(reg.at(q->algo).resolve(q->params, g));

  EngineLayer out;
  grind::engine::TraversalWorkspace ws;
  grind::ThreadLimitGuard limit(threads);
  for (std::size_t i = 0; i < picked.size(); ++i) {  // warm pass
    grind::engine::Engine eng(g, grind::engine::Options{}, ws);
    (void)reg.at(picked[i]->algo).run_resolved(eng, resolved[i]);
  }
  const Scope root(tr, "engine.replay");
  const std::uint64_t allocs0 = allocations();
  for (std::size_t i = 0; i < picked.size(); ++i) {
    const auto& desc = reg.at(picked[i]->algo);
    grind::engine::Engine eng(g, grind::engine::Options{}, ws);
    const Clock::time_point t0 = Clock::now();
    {
      const Scope span(tr, "engine.query", root.id(), i + 1);
      (void)desc.run_resolved(eng, resolved[i]);
    }
    const double secs = seconds_between(t0, Clock::now());
    merge(out.stats, eng.stats());
    out.query_s += secs;
    out.ms_by_algo[desc.name].push_back(secs * 1e3);
    out.sweeps_by_algo[desc.name].push_back(eng.sweeps_done());
  }
  out.allocations = allocations() - allocs0;
  out.queries = picked.size();
  return out;
}

// ---------------------------------------------------------------- output ---

/// The names of the per-layer metrics every traced run reports; those that
/// do not apply to a workload are reported as 0 and listed in the info line.
const char* const kKernels[] = {"sparse-csr", "backward-csc", "dense-coo"};
const grind::engine::TraversalKind kKernelKinds[] = {
    grind::engine::TraversalKind::kSparseCsr,
    grind::engine::TraversalKind::kBackwardCsc,
    grind::engine::TraversalKind::kDenseCoo};
const std::pair<const char*, const char*> kKernelMetricUnits[] = {
    {".calls", "count"},     {".s", "s"},
    {".edges", "count"},     {".edges_per_s", "1/s"},
    {".bytes_per_edge", "B/edge-computed"}};
const char* const kAllAlgos[] = {"PR", "CC", "BP", "BFS", "BF", "BC"};

std::string rate_label(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%g", r);
  return buf;
}

std::string ladder_names(const Workload& w) {
  std::string s;
  for (double r : w.ladder) {
    if (!s.empty()) s += ',';
    s += rate_label(r);
  }
  return s;
}

struct Report {
  const Workload& w;
  const RunOptions& opts;
  Host host;
  Tracer tracer;
  Metrics metrics;
  std::vector<std::string> not_applicable;
  Json info;
  std::size_t attempted = 0, failed = 0, mismatches = 0;

  Report(const Workload& wl, const RunOptions& o)
      : w(wl), opts(o), host(probe_host()), tracer(o.trace) {}

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void na(const std::string& name, const std::string& unit) {
    put(name, 0.0, unit);
    not_applicable.push_back(name);
  }
};

std::string number_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string string_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += i ? ", \"" : "\"";
    s += v[i];
    s += '"';
  }
  return s + "]";
}

void put_phase_service_metrics(Report& report, const PhaseResult& p,
                               std::size_t workers) {
  std::vector<double> queue_ms, exec_ms, submit_us;
  for (const auto& s : p.samples) {
    if (!s.cached) {
      queue_ms.push_back(s.queue_s * 1e3);
      exec_ms.push_back(s.exec_s * 1e3);
    }
    submit_us.push_back(s.submit_s * 1e6);
  }
  report.put("service.queue_ms.p50", percentile(queue_ms, 0.5), "ms");
  report.put("service.queue_ms.p90", percentile(queue_ms, 0.9), "ms");
  report.put("service.exec_ms.p50", percentile(exec_ms, 0.5), "ms");
  report.put("service.exec_ms.p90", percentile(exec_ms, 0.9), "ms");
  report.put("service.submit_us.p50", percentile(submit_us, 0.5), "us");
  const auto& a = p.stats_after;
  const auto& b = p.stats_before;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double probes = hits + static_cast<double>(a.cache_misses - b.cache_misses);
  if (report.w.cache_entries > 0) {
    report.put("service.cache_hit_ratio", probes > 0 ? hits / probes : 0.0, "ratio");
    report.put("service.cache_hits", hits, "count");
    report.put("service.cache_probes", probes, "count");
  } else {
    report.na("service.cache_hit_ratio", "ratio");
    report.na("service.cache_hits", "count");
    report.na("service.cache_probes", "count");
  }
  report.put("service.busy_frac",
          (a.busy_seconds - b.busy_seconds) /
              (p.wall_s * static_cast<double>(workers)),
          "ratio");
  report.put("service.queue_depth_max", static_cast<double>(p.queue_depth_max),
          "count");
  report.put("service.shed", static_cast<double>(a.queries_shed - b.queries_shed),
          "count");
  report.put("service.deadline",
          static_cast<double>(a.queries_deadline_exceeded -
                              b.queries_deadline_exceeded),
          "count");
  report.put("service.error",
          static_cast<double>(a.queries_failed - b.queries_failed), "count");
  report.put("failed_frac",
          p.samples.empty() ? 0.0
                            : static_cast<double>(count_failed(p)) /
                                  static_cast<double>(p.samples.size()),
          "ratio");
}

void put_graph_metrics(Report& report, const std::vector<StageTimes>& stages,
                       GraphService& svc) {
  auto med = [&](double StageTimes::*f) {
    std::vector<double> v;
    for (const auto& s : stages) v.push_back(s.*f);
    return median(v);
  };
  report.put("graph.order_s", med(&StageTimes::order), "s");
  report.put("graph.assign_s", med(&StageTimes::assign), "s");
  report.put("graph.partition_s", med(&StageTimes::partition), "s");
  report.put("graph.layouts_s", med(&StageTimes::layouts), "s");
  report.put("graph.assemble_s", med(&StageTimes::assemble), "s");
  const auto& g = svc.graph();
  report.put("graph.csr_mb", g.csr().storage_bytes_unweighted() / kMiB, "MiB");
  report.put("graph.csc_mb", g.csc().storage_bytes_unweighted() / kMiB, "MiB");
  report.put("graph.coo_mb", g.coo().storage_bytes_unweighted() / kMiB, "MiB");
  const auto entry = svc.catalog().find(GraphService::kDefaultGraphName);
  report.put("graph.catalog_mb", entry ? entry->bytes() / kMiB : 0.0, "MiB");
  const auto& parts = g.partitioning_edges();
  report.put("partition.count", parts.num_partitions(), "count");
  report.put("partition.edge_imbalance", parts.edge_imbalance(), "ratio");
  report.put("partition.replication",
          grind::partition::replication_factor(g.edge_list(), parts), "ratio");
}

void put_engine_metrics(Report& report, const EngineLayer& e,
                        const grind::graph::Graph& g) {
  const double m = static_cast<double>(std::max<grind::eid_t>(1, g.num_edges()));
  const double weight_bytes = m * sizeof(grind::weight_t);
  const double layout_bytes[] = {
      static_cast<double>(g.csr().storage_bytes_unweighted()) + weight_bytes,
      static_cast<double>(g.csc().storage_bytes_unweighted()) + weight_bytes,
      static_cast<double>(g.coo().storage_bytes_unweighted()) + weight_bytes};
  double kernel_s = 0.0;
  for (std::size_t i = 0; i < std::size(kKernels); ++i) {
    const std::string k = std::string("engine.") + kKernels[i];
    const auto calls = e.stats.calls_for(kKernelKinds[i]);
    const double secs = e.stats.seconds_for(kKernelKinds[i]);
    const auto edges = static_cast<double>(e.stats.edges_for(kKernelKinds[i]));
    kernel_s += secs;
    if (calls == 0) {
      for (const auto& [suffix, unit] : kKernelMetricUnits) report.na(k + suffix, unit);
      continue;
    }
    report.put(k + ".calls", static_cast<double>(calls), "count");
    report.put(k + ".s", secs, "s");
    report.put(k + ".edges", edges, "count");
    report.put(k + ".edges_per_s", secs > 0 ? edges / secs : 0.0, "1/s");
    report.put(k + ".bytes_per_edge", layout_bytes[i] / m, "B/edge-computed");
  }
  report.put("engine.atomic_rounds", static_cast<double>(e.stats.atomic_rounds),
          "count");
  report.put("engine.nonatomic_rounds",
          static_cast<double>(e.stats.nonatomic_rounds), "count");
  report.put("engine.home_visits",
          static_cast<double>(e.stats.affinity.home_items), "count");
  report.put("engine.outside_kernel_s", std::max(0.0, e.query_s - kernel_s), "s");
  report.put("engine.steady_allocs",
          e.queries == 0 ? 0.0
                         : static_cast<double>(e.allocations) /
                               static_cast<double>(e.queries),
          "count");
  report.put("engine.replayed", static_cast<double>(e.queries), "count");
  for (const char* a : kAllAlgos) {
    const std::string base = std::string("algorithms.") + a;
    auto it = e.ms_by_algo.find(a);
    if (it == e.ms_by_algo.end()) {
      report.na(base + ".p50_ms", "ms");
      report.na(base + ".sweeps", "count");
      continue;
    }
    report.put(base + ".p50_ms", median(it->second), "ms");
    report.put(base + ".sweeps", median(e.sweeps_by_algo.at(a)), "count");
  }
}

// ----------------------------------------------------------------- runner ---

int run_one(const Workload& w, const RunOptions& opts) {
  Report report(w, opts);
  const Host& host = report.host;
  if (!host.optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from an unoptimised "
                 "build (build type '%s')\n",
                 host.build_type.c_str());
    return 3;
  }
  const int nproc = std::max(1, host.nproc);
  std::fprintf(stderr, "perfbench: %s seed %llu, %.1f s, trace %d\n", w.name,
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0);

  // Inputs from the seed.
  const grind::graph::EdgeList el = make_graph(w, opts.seed);
  const Degrees deg = el.out_degrees();
  Query first;
  {
    Rng rng(derive_seed(opts.seed, 2));
    first = fresh_query(w, w.setup_algo, deg, rng);
  }

  // Set-up, several times; the last service is the one measured.
  std::vector<double> setup_s;
  std::vector<StageTimes> stages;
  Setup live;
  double setup_total = 0.0;
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && setup_total >= kSetupBudgetS) break;
    live = Setup{};  // drop the previous graph before building the next
    live = set_up(w, el, nproc, first, report.tracer);
    setup_s.push_back(live.seconds);
    setup_total += live.seconds;
    stages.push_back(live.stages);
  }
  GraphService& svc = *live.svc;
  const grind::graph::Graph& g = svc.graph();

  // Query streams and the warm-up (one query of each algorithm, untimed;
  // the epoch bump leaves the result cache cold for the measured window).
  const auto algos = algorithms_of(w);
  {
    Rng rng(derive_seed(opts.seed, 3));
    for (const auto& a : algos)
      if (!svc.submit(to_request(fresh_query(w, a, deg, rng))).get().ok())
        throw std::runtime_error("warm-up query failed: " + a);
    svc.bump_epoch(GraphService::kDefaultGraphName);
  }
  // The measured window.  An untraced run cuts it into kSlices consecutive
  // slices, each large enough for its own p90 (kMinSamplesBeyond samples
  // beyond it), and reports the median over the slices, so one transient
  // disturbance of the host moves a figure by at most one slice's worth.
  // A traced run measures half the window untraced and half traced, on
  // the same requests; the difference is the tracing overhead.
  const std::size_t slices = opts.trace ? 2 : kSlices;
  const double slice_s = opts.seconds / static_cast<double>(slices);
  const std::size_t open_n = std::max(
      min_samples_for(0.9),
      static_cast<std::size_t>(std::llround(w.rate * slice_s)));
  const std::vector<Query> stream = make_stream(
      w, deg, derive_seed(opts.seed, 4), w.open_loop ? slices * open_n : 8192);
  Sampler sampler(derive_seed(opts.seed, 5), w.checks_per_algo, 0.1);
  std::uint64_t qid = 0;
  std::size_t cursor = 0;
  const std::size_t workers = service_config(w, nproc).workers;
  Tracer off(false);

  auto measure = [&](Tracer& tr, std::size_t part) {
    const CpuTimes before = cpu_times();
    PhaseResult p;
    if (!w.open_loop) {
      p = run_closed(svc, stream, &cursor, slice_s, tr, &sampler, &qid);
    } else {
      const auto first =
          stream.begin() + static_cast<std::ptrdiff_t>(part * open_n);
      const std::vector<Query> requests(
          first, first + static_cast<std::ptrdiff_t>(open_n));
      svc.bump_epoch(GraphService::kDefaultGraphName);
      p = run_open(svc, w, requests, w.rate, derive_seed(opts.seed, 6 + part),
                   tr, &sampler, &qid);
    }
    p.steal = steal_fraction(before, cpu_times());
    return p;
  };
  std::vector<PhaseResult> phases;
  if (!opts.trace) {
    for (std::size_t i = 0; i < slices; ++i) phases.push_back(measure(off, i));
  } else {
    phases.push_back(measure(off, 0));
    cursor = 0;  // the traced half replays the same requests
    phases.push_back(measure(report.tracer, 0));
  }
  // The program's peak memory: read before the output check, whose
  // reference oracles are the benchmark's memory, not the program's.
  const double rss_mb = peak_rss_mb();

  // Every phase counts toward attempted / failed.
  for (const auto& p : phases) {
    report.attempted += p.samples.size();
    report.failed += count_failed(p);
  }

  // Per-layer extras of the traced run (outside every timed window).
  std::vector<std::pair<double, PhaseResult>> ladder;
  EngineLayer engine_layer;
  if (opts.trace) {
    if (w.open_loop) {
      for (std::size_t i = 0; i < w.ladder.size(); ++i) {
        const double r = w.ladder[i];
        const auto n = std::max(min_samples_for(0.9),
                                static_cast<std::size_t>(std::llround(r * w.ladder_seconds)));
        const std::vector<Query> s =
            make_stream(w, deg, derive_seed(opts.seed, 20 + i), n);
        svc.bump_epoch(GraphService::kDefaultGraphName);
        ladder.emplace_back(r, run_open(svc, w, s, r, derive_seed(opts.seed, 40 + i),
                                        off, nullptr, &qid));
      }
    }
    engine_layer = replay_engine(w, g, stream, service_config(w, nproc).threads_per_query,
                                 report.tracer);
  }

  // Output check on the seeded sample.
  std::size_t compared = 0;
  report.mismatches = check_outputs(g, sampler.kept(), nproc, &compared);
  report.failed += report.mismatches;

  // ---- metrics
  std::vector<double> p50, p90, qps, steal;
  std::size_t samples = 0, min_beyond = SIZE_MAX;
  for (const auto& p : phases) {
    const std::vector<double> lat = latencies_ms(p);
    std::size_t ok_verified = 0;
    for (const auto& s : p.samples) ok_verified += s.status == QueryStatus::kOk;
    if (report.mismatches > 0) ok_verified = 0;  // a wrong answer voids the window
    p50.push_back(percentile(lat, 0.5));
    p90.push_back(percentile(lat, 0.9));
    qps.push_back(static_cast<double>(ok_verified) / p.wall_s);
    samples += lat.size();
    steal.push_back(p.steal);
    min_beyond = std::min(min_beyond, samples_beyond(lat.size(), 0.9));
  }
  if (!opts.trace) {
    report.put("setup_s", median(setup_s), "s");
    report.put("latency_p50_ms", median(p50), "ms");
    report.put("latency_p90_ms", median(p90), "ms");
    report.put("throughput_qps", median(qps), "1/s");
    report.put("peak_rss_mb", rss_mb, "MiB");
  } else {
    put_graph_metrics(report, stages, svc);
    put_engine_metrics(report, engine_layer, g);
    const PhaseResult& traced = phases.back();
    put_phase_service_metrics(report, traced, workers);
    // SLO ladder.
    double slo = 0.0;
    for (const auto& [r, p] : ladder) {
      const double p90 = percentile(latencies_ms(p), 0.9);
      report.put("service.latency_p90_ms." + rate_label(r), p90, "ms");
      if (p90 <= w.p90_limit_ms && count_failed(p) == 0 &&
          !backlog_grows(p.outstanding))
        slo = std::max(slo, r);
    }
    if (w.open_loop) {
      report.put("slo_max_qps", slo, "1/s");
      std::vector<double> lag;
      for (const auto& s : traced.samples) lag.push_back(s.lag_s * 1e3);
      report.put("loadgen.lag_ms.p90", percentile(lag, 0.9), "ms");
    } else {
      for (double r : find_workload("service-mixed")->ladder)
        report.na("service.latency_p90_ms." + rate_label(r), "ms");
      report.na("slo_max_qps", "1/s");
      report.na("loadgen.lag_ms.p90", "ms");
    }
    report.put("trace.overhead_frac", p50[0] > 0 ? p50[1] / p50[0] - 1.0 : 0.0,
            "ratio");
  }

  // ---- the info line: host fingerprint, graph against LLC, sample sizes.
  const double layout_bytes =
      static_cast<double>(g.csr().storage_bytes_unweighted() +
                          g.csc().storage_bytes_unweighted() +
                          g.coo().storage_bytes_unweighted()) +
      3.0 * static_cast<double>(g.num_edges()) * sizeof(grind::weight_t);
  Json hostj;
  hostj.integer("nproc", host.nproc)
      .num("llc_mib", static_cast<double>(host.llc_bytes) / kMiB)
      .integer("numa_nodes", host.numa_nodes)
      .str("compiler", host.compiler)
      .str("build_type", host.build_type)
      .integer("omp_threads", host.omp_threads);
  Json graphj;
  graphj.integer("vertices", g.num_vertices())
      .integer("edges", static_cast<std::int64_t>(g.num_edges()))
      .num("layout_mib", layout_bytes / kMiB)
      .num("layout_over_llc",
           host.llc_bytes > 0 ? layout_bytes / static_cast<double>(host.llc_bytes)
                              : 0.0);
  report.info.str("workload", w.name)
      .integer("seed", static_cast<std::int64_t>(opts.seed))
      .boolean("trace", opts.trace)
      .raw("host", hostj.dump())
      .raw("graph", graphj.dump())
      .integer("latency_samples", static_cast<std::int64_t>(samples))
      .integer("slices", static_cast<std::int64_t>(slices))
      .raw("slice_p50_ms", number_list(p50))
      .raw("slice_steal_frac", number_list(steal))
      .integer("min_samples_beyond_p90_per_slice",
               static_cast<std::int64_t>(min_beyond))
      .integer("checked_outputs", static_cast<std::int64_t>(sampler.kept().size()))
      .integer("compared_outputs", static_cast<std::int64_t>(compared))
      .integer("setups", static_cast<std::int64_t>(setup_s.size()));
  if (w.open_loop) report.info.num("offered_qps", w.rate);
  if (opts.trace) {
    report.info.raw("not_applicable", string_list(report.not_applicable));
    if (w.open_loop) report.info.str("ladder", ladder_names(w));
    const std::string path = opts.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(opts.seed) + ".spans.jsonl";
    if (report.tracer.write(path)) report.info.str("spans", path);
    Json spans;
    for (const auto& [name, s] : report.tracer.summarize())
      spans.raw(name, Json()
                          .integer("count", static_cast<std::int64_t>(s.count))
                          .num("total_s", s.total_s)
                          .num("self_s", s.self_s)
                          .dump());
    report.info.raw("span_summary", spans.dump());
  }
  std::printf("%s\n", Json().raw("info", report.info.dump()).dump().c_str());

  const bool correct = report.mismatches == 0 && report.failed == 0;
  std::printf("%s\n", Json()
                          .boolean("correct", correct)
                          .integer("attempted", static_cast<std::int64_t>(report.attempted))
                          .integer("failed", static_cast<std::int64_t>(report.failed))
                          .raw("metrics", metrics_json(report.metrics))
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int run_workload(const RunOptions& opts) {
  const Workload* w = find_workload(opts.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  try {
    return run_one(*w, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench

// The benchmark harness: sample statistics, the seeded Poisson arrival
// schedule, the closed- and open-loop load loops, the in-memory span
// recorder, the allocation counter, the host fingerprint and the JSON
// output.  Everything here is independent of the library under test, so
// selftest.cpp can check the arithmetic against fakes.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ statistics ---

/// The tail rule: a percentile is reported only when at least this many
/// samples lie beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile p (0 < p ≤ 1) in n samples.
std::size_t nearest_rank(std::size_t n, double p);
/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);
/// Smallest sample count whose p-th percentile has kMinSamplesBeyond beyond.
std::size_t min_samples_for(double p);
/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
double percentile(std::vector<double> v, double p);
/// Median (mean of the two middle values for an even count).
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
/// Python's statistics.quantiles(v, n=4) (the default "exclusive" method),
/// so the harness and the acceptance script compute the same spread.
Quartiles quartiles(std::vector<double> v);

// ---------------------------------------------------------------- random ---

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Derive an independent seed for one named purpose from the run seed, so
/// the graph, the query stream and the sample choice never share a stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Send offsets (seconds from the start) of `n` Poisson arrivals at `rate`
/// per second, conditioned on exactly n arrivals in [0, n / rate): n sorted
/// uniform draws, which is what a Poisson process looks like given its
/// count.  Conditioning keeps the offered load identical from seed to seed
/// while the gaps stay exponential.  Same seed ⇒ same schedule.
std::vector<double> poisson_schedule(double rate, std::size_t n,
                                     std::uint64_t seed);

// ------------------------------------------------------------ load loops ---

/// One finished request as a load loop saw it.
struct Completion {
  std::size_t index = 0;
  double latency_s = 0.0;  ///< from the scheduled send (open) or submit (closed)
  double lag_s = 0.0;      ///< how late the send ran against its schedule
  double submit_s = 0.0;   ///< time spent inside submit()
  Clock::time_point done_at{};  ///< when the result was stamped
};

/// Open-loop runner.  The calling thread sends request i at start +
/// schedule[i] whatever the state of earlier requests; a collector thread
/// stamps each future as it becomes ready.  Latency runs from the
/// *scheduled* send time, so a stall in the generator or the service is
/// also charged to every request queued behind it.
///
///   submit(i)          -> std::future<R>   (sends request i)
///   done(c, R&&)                            (collector thread, serialised)
///   sample(outstanding)                     (generator, before each send)
template <typename R>
struct OpenLoop {
  std::function<std::future<R>(std::size_t)> submit;
  std::function<void(const Completion&, R&&)> done;
  std::function<void(std::size_t)> sample;
  /// Collector poll period; bounds the stamp error for requests that do
  /// not resolve inside submit().
  std::chrono::microseconds poll{200};

  /// Returns the wall time from the first scheduled send to the last
  /// completion.
  double run(const std::vector<double>& schedule);
};

template <typename R>
double OpenLoop<R>::run(const std::vector<double>& schedule) {
  struct Pending {
    std::size_t index;
    Clock::time_point due;
    double lag_s;
    double submit_s;
    std::future<R> fut;
  };
  std::mutex m;
  std::vector<Pending> pending;
  std::atomic<bool> sending{true};
  std::atomic<std::size_t> outstanding{0};
  Clock::time_point last_done{};
  std::mutex done_m;

  auto finish = [&](Pending& p, Clock::time_point now) {
    Completion c{p.index, seconds_between(p.due, now), p.lag_s, p.submit_s,
                 now};
    R r = p.fut.get();
    std::lock_guard<std::mutex> lock(done_m);
    last_done = std::max(last_done, now);
    done(c, std::move(r));
  };

  // Failures of the callbacks on either thread are carried out of run():
  // the collector stops on its first one, the generator stops sending, and
  // the collector is joined before anything is rethrown.
  std::exception_ptr failure;
  std::thread collector([&] {
    try {
      std::vector<Pending> ready;
      for (;;) {
        const bool more = sending.load(std::memory_order_acquire);
        {
          std::lock_guard<std::mutex> lock(m);
          for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
              ready.push_back(std::move(pending[i]));
              pending[i] = std::move(pending.back());
              pending.pop_back();
            } else {
              ++i;
            }
          }
          if (!more && pending.empty() && ready.empty()) break;
        }
        const Clock::time_point now = Clock::now();
        for (auto& p : ready) {
          finish(p, now);
          outstanding.fetch_sub(1, std::memory_order_relaxed);
        }
        ready.clear();
        std::this_thread::sleep_for(poll);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(done_m);
      failure = std::current_exception();
    }
  });

  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(done_m);
        if (failure) break;
      }
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[i]));
      std::this_thread::sleep_until(due);
      if (sample) sample(outstanding.load(std::memory_order_relaxed));
      const Clock::time_point sent = Clock::now();
      Pending p{i, due, seconds_between(due, sent), 0.0, submit(i)};
      const Clock::time_point after = Clock::now();
      p.submit_s = seconds_between(sent, after);
      if (p.fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(p, after);  // resolved inside submit (cache hit, shed)
      } else {
        outstanding.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(m);
        pending.push_back(std::move(p));
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(done_m);
    if (!failure) failure = std::current_exception();
  }
  sending.store(false, std::memory_order_release);
  collector.join();
  if (failure) std::rethrow_exception(failure);
  return seconds_between(start, std::max(last_done, start));
}

// --------------------------------------------------------------- tracing ---

/// One span: a named interval at a layer boundary, the span that caused it
/// (-1 for a root) and the query it belongs to (0 for none).
struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  std::int32_t parent = -1;
  std::uint64_t query = 0;
};

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per call, which is how the untraced runs use it.  Spans are kept
/// until write(); the capacity is reserved up front so recording does not
/// allocate in the measured path.
class Tracer {
 public:
  explicit Tracer(bool on, std::size_t capacity = 1 << 16);

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] double now() const;
  /// A steady-clock instant on this tracer's time axis.
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }
  /// Open a span; returns its id (-1 when tracing is off).
  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::uint64_t query = 0);
  void end(std::int32_t id);
  /// Record a finished span with explicit times.
  std::int32_t add(const char* name, double start, double end,
                   std::int32_t parent = -1, std::uint64_t query = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  struct Summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name: count, total duration and self time (duration minus
  /// the part of it covered by the span's children).
  [[nodiscard]] std::map<std::string, Summary> summarize() const;
  /// Write the spans as JSON lines; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// Self time of every span in `spans` (same order).
std::vector<double> self_times(const std::vector<Span>& spans);

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int32_t parent = -1,
        std::uint64_t query = 0)
      : t_(t), id_(t.begin(name, parent, query)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int32_t id_;
};

// ----------------------------------------------------------- allocations ---

/// Global operator new calls so far in this process (alloc_counter.cpp).
std::uint64_t allocations();

// ------------------------------------------------------------------ host ---

struct Host {
  int nproc = 0;
  std::size_t llc_bytes = 0;
  int numa_nodes = 0;
  int omp_threads = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
};
Host probe_host();
/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTimes {
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
  std::uint64_t total = 0;
};
CpuTimes cpu_times();
/// Share of all CPU time between two readings that was stolen by the
/// hypervisor (0 when /proc/stat is unavailable).
double steal_fraction(const CpuTimes& before, const CpuTimes& after);

// ------------------------------------------------------------------ JSON ---

/// Minimal ordered JSON object writer (numbers, strings, booleans, nested
/// raw objects).  Numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// A reported metric: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string metrics_json(const Metrics& m);

}  // namespace perfbench

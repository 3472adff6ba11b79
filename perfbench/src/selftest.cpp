// Self-tests of the harness's own arithmetic: the percentile rule, median
// and quartiles, the seeded Poisson schedule, self time, and the open-loop
// lateness accounting against fake services that stall once.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_percentiles() {
  // Nearest rank: p90 of 100 samples is the 90th value, 10 beyond it.
  expect(nearest_rank(100, 0.9) == 90, "nearest rank of p90 in 100");
  expect(samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(99, 0.9) == 9, "9 samples beyond p90 of 99");
  expect(min_samples_for(0.9) == 100, "p90 needs 100 samples");
  expect(min_samples_for(0.5) == 20, "p50 needs 20 samples");
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.9) == 90.0, "p90 of 1..100");
  expect(percentile(v, 0.5) == 50.0, "p50 of 1..100");
  expect(percentile({7.0}, 0.9) == 7.0, "percentile of one sample");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  // Reference values from Python's statistics.quantiles(v, n=4).
  Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10");
  q = quartiles({3.5, 1.25, 9.0, 4.0, 7.75});
  expect(near(q.q1, 2.375) && near(q.q2, 4.0) && near(q.q3, 8.375),
         "quartiles of five values");
  q = quartiles({5.0, 1.0});
  expect(near(q.q1, 0.0) && near(q.q2, 3.0) && near(q.q3, 6.0),
         "quartiles of two values");
}

void test_schedule() {
  const auto a = poisson_schedule(50.0, 500, 7);
  const auto b = poisson_schedule(50.0, 500, 7);
  const auto c = poisson_schedule(50.0, 500, 8);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "different seed, different schedule");
  expect(std::is_sorted(a.begin(), a.end()), "schedule is sorted");
  expect(a.front() >= 0.0 && a.back() < 10.0, "schedule inside n / rate");
  // Exponential gaps: mean 1/rate, coefficient of variation near 1.
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double d = a[i] - a[i - 1];
    sum += d;
    sq += d * d;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  expect(std::fabs(mean - 0.02) < 0.002, "mean gap is 1/rate");
  expect(cv > 0.85 && cv < 1.15, "gaps are exponential (cv near 1)");
}

void test_self_time() {
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [9,12]
  // (clipped to 10): covered = [1,5] + [9,10] = 5, self = 5.
  std::vector<Span> s = {{"root", 0, 10, -1, 1},
                         {"a", 1, 3, 0, 1},
                         {"b", 2, 5, 0, 1},
                         {"c", 9, 12, 0, 1},
                         {"leaf", 2, 2.5, 1, 1}};
  const auto self = self_times(s);
  expect(near(self[0], 5.0), "self time subtracts the union of children");
  expect(near(self[1], 1.5), "self time of a span with one child");
  expect(near(self[2], 3.0), "self time of a leaf");
  Tracer off(false);
  expect(off.begin("x") == -1 && off.spans().empty(), "disabled tracer records nothing");
}

/// A fake one-worker service: FIFO, each request takes `work`; request
/// `stall_at` takes `stall` instead.
class FakeService {
 public:
  FakeService(std::chrono::milliseconds work, std::size_t stall_at,
              std::chrono::milliseconds stall)
      : work_(work), stall_at_(stall_at), stall_(stall),
        worker_([this] { loop(); }) {}
  ~FakeService() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  std::future<int> submit(std::size_t i) {
    std::promise<int> p;
    auto f = p.get_future();
    {
      std::lock_guard<std::mutex> lock(m_);
      q_.emplace_back(i, std::move(p));
    }
    cv_.notify_one();
    return f;
  }

 private:
  void loop() {
    for (;;) {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [this] { return stop_ || !q_.empty(); });
      if (q_.empty()) return;
      auto [i, p] = std::move(q_.front());
      q_.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(i == stall_at_ ? stall_ : work_);
      p.set_value(static_cast<int>(i));
    }
  }
  std::chrono::milliseconds work_;
  std::size_t stall_at_;
  std::chrono::milliseconds stall_;
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::promise<int>>> q_;
  bool stop_ = false;
  std::thread worker_;
};

void test_lateness_service_stall() {
  // 30 requests 10 ms apart, 1 ms of work each; request 5 stalls 150 ms.
  // Requests scheduled behind it queue and must be charged the wait.
  std::vector<double> schedule;
  for (int i = 0; i < 30; ++i) schedule.push_back(0.01 * i);
  std::vector<double> lat(schedule.size(), -1.0);
  FakeService svc(std::chrono::milliseconds(1), 5,
                  std::chrono::milliseconds(150));
  OpenLoop<int> loop;
  loop.submit = [&](std::size_t i) { return svc.submit(i); };
  loop.done = [&](const Completion& c, int&& v) {
    lat[c.index] = c.latency_s;
    expect(static_cast<std::size_t>(v) == c.index, "result matches request");
  };
  loop.run(schedule);
  // Request 6 was due 10 ms after 5 and waits for the rest of the stall.
  expect(lat[4] < 0.05, "request before the stall is fast");
  expect(lat[6] > 0.12, "request behind the stall is charged its wait");
  expect(lat[10] > 0.08, "a later queued request is still charged");
  expect(lat[29] < 0.02, "requests after the backlog drains are fast");
}

void test_lateness_generator_stall() {
  // submit() itself blocks 100 ms at request 3 (a stalled sender): the
  // requests due during the stall go out late and their latency counts
  // from when they were due, not from when they were sent.
  std::vector<double> schedule;
  for (int i = 0; i < 12; ++i) schedule.push_back(0.01 * i);
  std::vector<Completion> done(schedule.size());
  OpenLoop<int> loop;
  loop.submit = [&](std::size_t i) {
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::promise<int> p;
    p.set_value(static_cast<int>(i));
    return p.get_future();
  };
  loop.done = [&](const Completion& c, int&&) { done[c.index] = c; };
  loop.run(schedule);
  expect(done[4].lag_s > 0.08, "send after the stall runs late");
  expect(done[4].latency_s >= done[4].lag_s, "latency includes lateness");
  expect(done[4].latency_s > 0.08, "stall charged to the next request");
  expect(done[8].latency_s > 0.03, "stall charged to later requests");
  expect(done[1].latency_s < 0.02, "request before the stall is fast");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_percentiles();
  test_schedule();
  test_self_time();
  test_lateness_service_stall();
  test_lateness_generator_stall();
  return g_failures;
}

}  // namespace perfbench

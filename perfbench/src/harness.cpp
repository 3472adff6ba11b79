#include "harness.hpp"

#include <omp.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

// ------------------------------------------------------------ statistics ---

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  // statistics.quantiles(data, n=4, method="exclusive"):
  //   m = len + 1; j = i*m // 4; delta = i*m - j*4 (j clamped to [1, n-1])
  //   result = (data[j-1] * (4 - delta) + data[j] * delta) / 4
  Quartiles q;
  const std::size_t n = v.size();
  if (n == 0) return q;
  std::sort(v.begin(), v.end());
  if (n == 1) return {v[0], v[0], v[0]};
  double out[3];
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {out[0], out[1], out[2]};
}

// ---------------------------------------------------------------- random ---

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed * 0x2545f4914f6cdd1dULL + purpose);
  r.next();
  return r.next();
}

std::vector<double> poisson_schedule(double rate, std::size_t n,
                                     std::uint64_t seed) {
  Rng rng(seed);
  const double span = static_cast<double>(n) / rate;
  std::vector<double> t(n);
  for (auto& x : t) x = rng.uniform() * span;
  std::sort(t.begin(), t.end());
  return t;
}

// --------------------------------------------------------------- tracing ---

Tracer::Tracer(bool on, std::size_t capacity)
    : on_(on), origin_(Clock::now()) {
  if (on_) spans_.reserve(capacity);
}

double Tracer::now() const { return seconds_between(origin_, Clock::now()); }

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t query) {
  if (!on_) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back({name, t, t, parent, query});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  if (!on_ || id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::int32_t Tracer::add(const char* name, double start, double end,
                         std::int32_t parent, std::uint64_t query) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back({name, start, end, parent, query});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  const std::vector<Span> s = spans();
  const std::vector<double> self = self_times(s);
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    Summary& x = out[s[i].name];
    ++x.count;
    x.total_s += s[i].end - s[i].start;
    x.self_s += self[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> s = spans();
  const std::vector<double> self = self_times(s);
  char buf[256];
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"query\":%llu,\"self\":%.9f}\n",
                  i, s[i].name, s[i].start, s[i].end, s[i].parent,
                  static_cast<unsigned long long>(s[i].query), self[i]);
    out << buf;
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------------ host ---

namespace {

std::size_t read_llc_bytes() {
  // Highest-level cache of cpu0 from sysfs ("307200K"); sysconf fallback.
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    std::size_t mult = 1;
    if (s.back() == 'K') mult = 1024;
    if (s.back() == 'M') mult = 1024 * 1024;
    best = std::max(best, static_cast<std::size_t>(std::stoull(s)) * mult);
  }
#ifdef _SC_LEVEL3_CACHE_SIZE
  if (best == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) best = static_cast<std::size_t>(v);
  }
#endif
  return best;
}

int count_numa_nodes() {
  int n = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/sys/devices/system/node", ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("node", 0) == 0 && name.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(name[4])))
      ++n;
  }
  return n == 0 ? 1 : n;
}

}  // namespace

Host probe_host() {
  Host h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.llc_bytes = read_llc_bytes();
  h.numa_nodes = count_numa_nodes();
  h.omp_threads = omp_get_max_threads();
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  h.optimized = h.build_type == "Release" || h.build_type == "RelWithDebInfo";
#else
  h.optimized = false;
#endif
  return h;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes cpu_times() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user, so it is left out of the total.
  std::ifstream f("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(f >> label) || label != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

// ------------------------------------------------------------------ JSON ---

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += escape(k);
  body_ += "\": ";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  body_ += escape(v);
  body_ += '"';
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string metrics_json(const Metrics& m) {
  Json j;
  for (const auto& [name, metric] : m)
    j.raw(name, Json().num("value", metric.value).str("unit", metric.unit).dump());
  return j.dump();
}

}  // namespace perfbench

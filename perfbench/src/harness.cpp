#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "tensor/backend.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_NATIVE_KERNELS
#define PERFBENCH_NATIVE_KERNELS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Full-precision number; non-finite values become null (run.py then
/// refuses the run instead of reading a bogus figure).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::ostringstream& os,
                   const std::map<std::string, Metric>& metrics) {
  os << '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(name) << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  os << '}';
}

}  // namespace

void Result::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = {value, unit};
}
void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}
void Result::report(const std::string& name, double value,
                    const std::string& unit) {
  report_[name] = {value, unit};
}
void Result::param(const std::string& name, const std::string& value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted += '"';
  params_[name] = std::move(quoted);
}
void Result::param(const std::string& name, double value) {
  params_[name] = json_number(value);
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Result::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Result::to_json(const RunConfig& cfg) const {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(cfg.workload)
     << "\", \"seed\": " << cfg.seed
     << ", \"seconds\": " << json_number(cfg.seconds)
     << ", \"trace\": " << (cfg.trace ? 1 : 0)
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": ";
  // The contract set of this mode is "metrics"; the other set and the
  // workload-specific figures ride along as "report".
  write_metrics(os, cfg.trace ? layer_ : e2e_);
  std::map<std::string, Metric> rest = report_;
  for (const auto& kv : cfg.trace ? e2e_ : layer_) rest.insert(kv);
  os << ", \"report\": ";
  write_metrics(os, rest);
  os << ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << json_escape(checks_[i].name)
       << "\", \"ok\": " << (checks_[i].ok ? "true" : "false")
       << ", \"detail\": \"" << json_escape(checks_[i].detail) << "\"}";
  }
  os << "], \"params\": {";
  bool first = true;
  for (const auto& [name, value] : params_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(name) << "\": " << value;
  }
  os << "}, \"build\": {\"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"native_kernels\": \"" << PERFBENCH_NATIVE_KERNELS
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"backend\": \"" << kBackend << "\", \"simd_isa\": \""
     << orco::tensor::simd_isa() << "\"}}";
  return os.str();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

namespace {

constexpr double kHistMinUs = 0.1;
constexpr double kHistGrowth = 1.01;
constexpr std::size_t kHistBuckets = 2800;  // 0.1 us * 1.01^2800 > 10^5 s

}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::add(double us) {
  std::size_t b = 0;
  if (us > kHistMinUs) {
    b = std::min(kHistBuckets - 1,
                 static_cast<std::size_t>(std::log(us / kHistMinUs) /
                                          std::log(kHistGrowth)));
  }
  ++buckets_[b];
  ++count_;
  sum_ += us;
}

double LogHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // The rank the linear-interpolation quantile of the raw sample would
  // sit at, located in its bucket and interpolated geometrically inside.
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const double n = buckets_[b];
    if (n > 0.0 && rank < before + n) {
      const double frac = (rank - before + 0.5) / n;
      return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(b) + frac);
    }
    before += n;
  }
  return kHistMinUs * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

WindowedLatency::WindowedLatency(double seconds)
    : seconds_(seconds), windows_(kWindows) {}

void WindowedLatency::add(double at_s, double latency_us) {
  whole_.add(latency_us);
  const auto w = static_cast<int>(at_s / seconds_ * kWindows);
  if (at_s >= 0.0 && w < kWindows) windows_[w].add(latency_us);
}

WindowedStats WindowedLatency::stats() const {
  const double width = seconds_ / kWindows;
  std::vector<double> p50, p99, rate;
  WindowedStats out;
  out.min_window_samples = whole_.count();
  for (const LogHistogram& w : windows_) {
    out.min_window_samples = std::min(out.min_window_samples, w.count());
    rate.push_back(static_cast<double>(w.count()) / width);
    p50.push_back(w.quantile(0.5));
    p99.push_back(w.quantile(0.99));
  }
  out.p50_us = median_of(p50);
  out.p99_us = median_of(p99);
  out.per_s = median_of(rate);
  return out;
}

bool IdSet::insert(std::uint64_t id) {
  if (id >= seen_.size()) seen_.resize(2 * id + 1024, false);
  if (seen_[id]) return false;
  seen_[id] = true;
  return true;
}

void flush_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- spans ---------------------------------------------------------------

Spans::Spans() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::uint32_t Spans::intern(std::string_view name) {
  const std::string key(name);
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  return id;
}

std::int64_t Spans::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Spans::add(std::string_view name, Clock::time_point start,
                Clock::time_point end) {
  spans_.push_back({intern(name), current_parent_, ns_since_origin(start),
                    ns_since_origin(end)});
}

Spans::Scope::Scope(Spans& spans, std::string_view name)
    : spans_(spans),
      index_(spans.spans_.size()),
      saved_parent_(spans.current_parent_) {
  const std::int64_t now = spans.ns_since_origin(Clock::now());
  spans.spans_.push_back({spans.intern(name), spans.current_parent_, now, now});
  spans.current_parent_ = static_cast<std::uint32_t>(index_ + 1);
}

Spans::Scope::~Scope() {
  spans_.spans_[index_].end_ns = spans_.ns_since_origin(Clock::now());
  spans_.current_parent_ = saved_parent_;
}

std::vector<double> Spans::durations_us(std::string_view name) const {
  std::vector<double> out;
  const auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \""
        << json_escape(names_[s.name]) << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << json_number(s.start_ns / 1000.0)
        << ", \"dur\": " << json_number((s.end_ns - s.start_ns) / 1000.0)
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

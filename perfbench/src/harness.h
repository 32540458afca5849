// Shared harness for the perfbench workloads: the run configuration, the
// result record the benchmark prints as JSON, quantiles, an in-memory span
// recorder for traced runs, and small timing helpers.
//
// Every workload follows the same shape:
//   1. set up several times (setup_s is the median set-up time),
//   2. warm up, then measure for RunConfig::seconds with tracing off,
//   3. in a traced run, measure again with the benchmark's spans on,
//   4. check outputs; a failed check makes the whole run incorrect.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The kernel backend every workload pins (process default and configs).
inline constexpr const char* kBackend = "simd";

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

class Spans;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory of this run (cold tiers); removed at exit.
  std::string work_dir;
  /// Span recorder of a traced run (null when tracing is off). Workloads
  /// record into it only during their traced pass.
  Spans* spans = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run produces. `e2e` and `layer` are the two metric sets
/// BENCHMARK.json names; `report` holds the workload-specific figures that
/// are printed but not gated; `params` records the generator parameters.
class Result {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void report(const std::string& name, double value, const std::string& unit);
  void param(const std::string& name, const std::string& value);
  void param(const std::string& name, double value);
  /// Records an output check; any failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = {});

  bool correct() const;
  bool has_layer(const std::string& name) const {
    return layer_.count(name) > 0;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One JSON object: workload, trace flag, correct/attempted/failed, the
  /// contract metrics of this mode (e2e untraced, layer traced), the other
  /// metrics as report, checks, params and the build block.
  std::string to_json(const RunConfig& cfg) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> e2e_, layer_, report_;
  std::map<std::string, std::string> params_;
  std::vector<Check> checks_;
};

/// Mean, and median with linear interpolation between closest ranks; 0 for
/// an empty sample.
double mean(const std::vector<double>& v);
double median_of(std::vector<double> v);

/// Latency histogram with log-spaced buckets 1% wide (0.1 us up to hours):
/// fixed memory whatever the request count, so the benchmark's own
/// bookkeeping does not grow with throughput, and quantiles within 1%.
class LogHistogram {
 public:
  LogHistogram();
  void add(double us);
  std::uint64_t count() const noexcept { return count_; }
  double mean() const;
  /// Interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// A pass's latency and throughput as the median over kWindows equal
/// windows of its measuring time (each completion falls in the window it
/// completed in), so one disturbed stretch of a run does not move them.
struct WindowedStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double per_s = 0.0;
  std::uint64_t min_window_samples = 0;
};
inline constexpr int kWindows = 10;

class WindowedLatency {
 public:
  explicit WindowedLatency(double seconds = 1.0);
  /// One completion `at_s` seconds after the pass started; completions
  /// after the measuring time (the drain) count only in whole().
  void add(double at_s, double latency_us);
  WindowedStats stats() const;
  const LogHistogram& whole() const noexcept { return whole_; }

 private:
  double seconds_;
  std::vector<LogHistogram> windows_;
  LogHistogram whole_;
};

/// Response ids seen in a pass. Ids are dense integers from a runtime
/// counter, so a bitmap stays small.
class IdSet {
 public:
  /// False when `id` was already recorded.
  bool insert(std::uint64_t id);

 private:
  std::vector<bool> seen_;
};

/// Writes back the dirty data and metadata of the filesystem holding `dir`
/// (syncfs), so a pass that writes files starts from the same clean state
/// whatever earlier runs left behind.
void flush_filesystem(const std::string& dir);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Calls `setup` kSetupRepeats times, keeping the last result; each call's
/// wall time lands in `seconds` (the previous object is destroyed before
/// the next set-up starts, so peak memory stays one set-up high).
template <typename T, typename F>
T repeated_setup(F&& setup, std::vector<double>& seconds) {
  std::optional<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();
    const auto t0 = Clock::now();
    kept.emplace(setup());
    seconds.push_back(s_between(t0, Clock::now()));
  }
  return std::move(*kept);
}

/// In-memory span recorder for traced runs (single-threaded use: the
/// benchmark records spans only from its own generator thread). A span is
/// a named interval with a parent; spans are written out as a Chrome trace
/// when the run ends, and per-name durations feed the per-layer metrics.
class Spans {
 public:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;  // index + 1 into spans_, 0 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Spans& spans, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
    std::uint32_t saved_parent_;
  };

  Spans();

  /// Records a finished interval under the current parent.
  void add(std::string_view name, Clock::time_point start,
           Clock::time_point end);
  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(std::string_view name) const;
  /// Chrome trace-event JSON ("X" events); false when the file failed.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::uint32_t intern(std::string_view name);
  std::int64_t ns_since_origin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::uint32_t current_parent_ = 0;
};

}  // namespace perfbench

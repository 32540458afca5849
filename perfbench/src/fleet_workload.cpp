// fleet_churn: a Zipf request stream over a large registered population
// through fleet::EdgeFleet (2 cells of 1 shard), with warm_capacity far
// below the active set, so cold wakes (ColdStore load, system build, plan
// compile, registry publish, replication ship) and demotions (an atomic
// checkpoint write) sit beside the decode reads. One caller thread sends one
// request at a time and waits for its answer; a submit to a cold tenant
// performs the wake (and the demotion that admits it) in that thread, so
// its latency includes them.
//
// It runs as a short pass inside every traced run, where it feeds the fleet
// layer metrics and the fleet output checks. It is not a gated workload:
// its throughput moved by up to 2x between processes on the reference host
// (a 4-vCPU VM), far beyond any usable regression bound.
//
// The cold tier lives under the run's own scratch directory and is removed
// when the run ends.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "fleet/fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orco::serve::DecodeResponse;
using orco::serve::ResponseStatus;
using orco::tensor::Tensor;
namespace fleet = orco::fleet;

constexpr std::size_t kCells = 2;
constexpr std::size_t kPopulation = 20000;
constexpr std::size_t kWarmCapacity = 64;
constexpr double kZipfS = 1.05;
constexpr std::size_t kLatents = 256;
constexpr std::size_t kWarmupRequests = 1000;
/// Length of the churn pass a traced run makes.
constexpr double kProbeSeconds = 3.0;
constexpr std::size_t kTwinChecks = 4;
constexpr std::size_t kMinLatencySamples = 1000;
/// Traced passes record a submit span for one request in kSpanEvery.
constexpr std::uint64_t kSpanEvery = 8;
constexpr auto kAnswerTimeout = std::chrono::seconds(30);

/// Zipf(s) sampler over ranks [0, n): cumulative table + binary search.
class ZipfTable {
 public:
  ZipfTable() = default;
  ZipfTable(std::size_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cumulative_[r] = total;
    }
    for (double& c : cumulative_) c /= total;
  }

  std::size_t sample(orco::common::Pcg32& rng) const {
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                     rng.uniform());
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative_.begin()),
        cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

/// A directory removed with its contents when the owner goes away.
class ScratchDir {
 public:
  ScratchDir() = default;
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ScratchDir(ScratchDir&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  ScratchDir& operator=(ScratchDir&& other) noexcept {
    if (this != &other) {
      release();
      path_ = std::move(other.path_);
      other.path_.clear();
    }
    return *this;
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() { release(); }

  const std::string& path() const noexcept { return path_; }

 private:
  void release() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    path_.clear();
  }

  std::string path_;
};

struct FleetSetup {
  ScratchDir dir;  // declared first: removed after the fleet shuts down
  std::unique_ptr<fleet::EdgeFleet> fleet;
  std::vector<fleet::ClusterId> ids;  // rank -> tenant id
  ZipfTable zipf;
  std::vector<Tensor> latents;
};

FleetSetup setup_fleet(const RunConfig& cfg) {
  FleetSetup s;
  s.dir = ScratchDir(cfg.work_dir + "/fleet-churn");
  s.fleet = std::make_unique<fleet::EdgeFleet>(
      fleet_churn_config(s.dir.path() + "/cold", kWarmCapacity));
  // Tenant ids are a seeded permutation of the population, so each seed
  // puts a different set of tenants at the hot ranks.
  s.ids.resize(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) s.ids[i] = i;
  orco::common::Pcg32 rng(cfg.seed * 31 + 7);
  for (std::size_t i = kPopulation - 1; i > 0; --i) {
    std::swap(s.ids[i], s.ids[rng.next() % (i + 1)]);
  }
  s.zipf = ZipfTable(kPopulation, kZipfS);
  const std::size_t latent_dim = fleet_tenant_config().orco.latent_dim;
  for (std::size_t i = 0; i < kLatents; ++i) {
    s.latents.push_back(Tensor::randn({1, latent_dim}, rng));
  }
  for (const fleet::ClusterId id : s.ids) s.fleet->register_tenant(id);
  s.fleet->start();
  // Warm-up: fill the warm set and start the demotion churn.
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    (void)s.fleet
        ->submit(s.ids[s.zipf.sample(rng)], s.latents[i % kLatents])
        .get();
  }
  return s;
}

struct FleetPass {
  WindowedLatency latency;  // kOk: submit start -> observed
  std::uint64_t attempted = 0, ok = 0, other = 0, missing = 0;
  std::uint64_t warm_hits = 0, repeated_ids = 0;
  std::size_t resident_max = 0;
  std::vector<IdSet> ids = std::vector<IdSet>(kCells);  // per cell runtime
  fleet::FleetStats before, after;
  orco::obs::HistogramSnapshot wake_before, wake_after;
};

FleetPass fleet_pass(FleetSetup& s, std::uint64_t stream, double seconds,
                     Spans* spans) {
  FleetPass p;
  p.before = s.fleet->stats();
  p.wake_before = s.fleet->cold_wake_histogram();
  orco::common::Pcg32 rng(stream);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  p.latency = WindowedLatency(seconds);
  Clock::time_point last_seen = start;
  while (last_seen < end) {
    const fleet::ClusterId tenant = s.ids[s.zipf.sample(rng)];
    const Tensor& latent = s.latents[rng.next() % kLatents];
    const bool warm = s.fleet->resident(tenant);
    const auto t0 = Clock::now();
    std::future<DecodeResponse> future = s.fleet->submit(tenant, latent);
    const auto t1 = Clock::now();
    if (spans != nullptr && p.attempted % kSpanEvery == 0) {
      spans->add(warm ? "fleet.submit_warm" : "fleet.submit_cold", t0, t1);
    }
    p.warm_hits += warm ? 1 : 0;
    p.resident_max = std::max(p.resident_max, s.fleet->resident_count());
    ++p.attempted;
    // Poll rather than block: the caller's core never idles, so the answer
    // is seen the moment it lands instead of after a wake-up whose cost
    // depends on the host's scheduling of an idle virtual CPU.
    const auto deadline = t1 + kAnswerTimeout;
    while (future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready &&
           Clock::now() < deadline) {
    }
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++p.missing;
      break;
    }
    const DecodeResponse r = future.get();
    last_seen = Clock::now();
    if (r.status == ResponseStatus::kOk) {
      ++p.ok;
      p.latency.add(s_between(start, last_seen), us_between(t0, last_seen));
      if (!p.ids[s.fleet->owner_of(tenant)].insert(r.id)) ++p.repeated_ids;
    } else {
      ++p.other;
    }
  }
  p.after = s.fleet->stats();
  p.wake_after = s.fleet->cold_wake_histogram();
  return p;
}

/// Cold-wake latency histogram of one pass (the difference of two
/// cumulative snapshots; max is the cumulative max).
orco::obs::HistogramSnapshot wake_delta(const FleetPass& p) {
  orco::obs::HistogramSnapshot d = p.wake_after;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= p.wake_before.buckets[i];
  }
  d.count -= p.wake_before.count;
  d.sum_us -= p.wake_before.sum_us;
  return d;
}

void check_pass(const std::string& pass, FleetPass& p, Result& result) {
  const std::uint64_t answered = p.ok + p.other;
  result.check(pass + ".answered_once",
               p.missing == 0 && answered == p.attempted,
               std::to_string(answered) + " answered of " +
                   std::to_string(p.attempted));
  result.check(pass + ".all_ok", p.other == 0,
               std::to_string(p.other) + " not ok");
  result.check(pass + ".unique_ids", p.repeated_ids == 0,
               std::to_string(p.repeated_ids) + " repeated");
  result.check(pass + ".resident_max",
               p.resident_max <= kWarmCapacity,
               std::to_string(p.resident_max) + " resident, capacity " +
                   std::to_string(kWarmCapacity));
  result.check(pass + ".latency_samples",
               p.latency.whole().count() >= kMinLatencySamples,
               std::to_string(p.latency.whole().count()) + " samples");
}

/// A demoted tenant woken from its cold record must decode bitwise like
/// the same tenant in a fleet that never demoted it.
void check_cold_wake_twin(const RunConfig& cfg, FleetSetup& s,
                          Result& result) {
  ScratchDir twin_dir(cfg.work_dir + "/fleet-twin");
  fleet::EdgeFleet twin(
      fleet_churn_config(twin_dir.path() + "/cold", 4 * kTwinChecks));
  twin.start();
  std::size_t checked = 0, mismatches = 0;
  for (std::size_t rank = 0; rank < kPopulation && checked < kTwinChecks;
       ++rank) {
    const fleet::ClusterId id = s.ids[rank];
    if (s.fleet->resident(id) || !s.fleet->cold_store().contains(id)) continue;
    const Tensor& latent = s.latents[rank % kLatents];
    const DecodeResponse woken = s.fleet->submit(id, latent).get();
    twin.register_tenant(id);
    const DecodeResponse fresh = twin.submit(id, latent).get();
    ++checked;
    if (woken.status != ResponseStatus::kOk ||
        fresh.status != ResponseStatus::kOk ||
        !bitwise_equal(woken.reconstruction, fresh.reconstruction)) {
      ++mismatches;
    }
  }
  twin.shutdown();
  result.check("cold_wake_twin_bitwise", checked == kTwinChecks && mismatches == 0,
               std::to_string(mismatches) + " mismatches in " +
                   std::to_string(checked) + " cold-woken tenants");
}

}  // namespace

fleet::FleetConfig fleet_churn_config(const std::string& cold_dir,
                                      std::size_t warm_capacity) {
  fleet::FleetConfig cfg;
  cfg.replicas = kCells;
  cfg.vnodes = 96;
  cfg.warm_capacity = warm_capacity;
  cfg.cold_dir = cold_dir;
  cfg.system = fleet_tenant_config();
  cfg.serve.shard_count = 1;
  cfg.serve.backend = kBackend;
  cfg.serve.queue.capacity = 4096;
  // One request is outstanding at a time, so there is never a straggler to
  // wait for: a coalescing window would only idle the shard.
  cfg.serve.queue.max_wait_us = 0;
  cfg.serve.per_tenant_telemetry = false;
  cfg.trainer_threads = 0;
  return cfg;
}

void run_fleet_churn_probe(const RunConfig& cfg, Result& result) {
  result.param("fleet_churn.population", static_cast<double>(kPopulation));
  result.param("fleet_churn.warm_capacity", static_cast<double>(kWarmCapacity));
  result.param("fleet_churn.zipf_s", kZipfS);
  result.param("fleet_churn.seconds", kProbeSeconds);
  result.param("fleet_churn.model", "64->16 encoder, 1-layer decoder 16->64");
  result.param("fleet_churn.loop",
               "closed, 1 caller thread, 1 request outstanding");

  FleetSetup s = setup_fleet(cfg);
  // The cold tier writes a file per demotion: the measured pass starts from
  // a written-back filesystem, not from what the set-up left dirty.
  flush_filesystem(cfg.work_dir);
  FleetPass p = fleet_pass(s, cfg.seed * 2 + 1, kProbeSeconds, cfg.spans);
  check_pass("fleet_churn", p, result);
  check_cold_wake_twin(cfg, s, result);
  s.fleet->shutdown();

  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(p.attempted, 1));
  const LogHistogram& whole = p.latency.whole();
  const auto wakes = wake_delta(p);
  result.report("fleet_churn.latency_p50_us", whole.quantile(0.5), "us");
  result.report("fleet_churn.latency_p99_us", whole.quantile(0.99), "us");
  result.report("fleet_churn.throughput_rps",
                static_cast<double>(p.ok) / kProbeSeconds, "1/s");
  result.report("fleet_churn.cold_wake_p50_us", wakes.quantile(0.5), "us");
  result.report("fleet_churn.cold_wake_p99_us", wakes.quantile(0.99), "us");
  result.report("fleet_churn.error_ratio",
                static_cast<double>(p.attempted - p.ok) / attempted, "ratio");
  const auto& a = p.after;
  const auto& b = p.before;
  result.layer("fleet.warm_hit_ratio",
               static_cast<double>(p.warm_hits) / attempted, "ratio");
  result.layer("fleet.cold_wakes",
               static_cast<double>(a.cold_wakes - b.cold_wakes +
                                   a.cold_builds - b.cold_builds),
               "count");
  result.layer("fleet.demotions",
               static_cast<double>(a.demotions - b.demotions), "count");
  result.layer("fleet.demotion_aborts",
               static_cast<double>(a.demotion_aborts - b.demotion_aborts),
               "count");
  result.layer("fleet.full_ships",
               static_cast<double>(a.full_ships - b.full_ships), "count");
  result.layer("fleet.resident_max", static_cast<double>(p.resident_max),
               "count");
}

}  // namespace perfbench

// train_online: the paper's stage 2 (§III-B) on one core::OrcoDcsSystem —
// kRoundsPerPass Orchestrator::train_round calls on seeded synthetic-MNIST
// batches of 64, then evaluate_loss. A pass starts from a freshly built
// system with the same seed, and passes repeat until the measuring time is
// used up, so every pass must end on the bitwise-same final loss.
//
// Each round runs the full 4-message protocol: encode + noise, uplink,
// edge reconstruct, downlink, residual, uplink, decoder step, downlink,
// encoder step — serialized and shipped through the simulated wsn channel.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "data/synthetic_mnist.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orco::tensor::Tensor;
namespace core = orco::core;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kTrainBatches = 16;  // distinct seeded batches, cycled
constexpr std::size_t kRoundsPerPass = 100;
constexpr std::size_t kEvalImages = 256;
/// Fixed ceiling on the eval loss after kRoundsPerPass rounds: an untrained
/// decoder sits well above it, so a training path that stops learning fails.
constexpr double kLossCeiling = 0.05;
/// A 20 s run makes ~2500 rounds on the reference host; the floor only
/// catches a loop that stopped making progress.
constexpr std::size_t kMinRoundSamples = 500;

struct TrainSetup {
  std::vector<Tensor> batches;
  orco::data::Dataset eval;
  std::unique_ptr<core::OrcoDcsSystem> system;
  bool system_fresh = false;  // built and not trained yet
};

TrainSetup setup_train(std::uint64_t seed) {
  TrainSetup s;
  s.batches = make_train_batches(seed);
  orco::data::MnistConfig eval_cfg;
  eval_cfg.count = kEvalImages;
  eval_cfg.seed = seed * 104729 + 5;
  s.eval = orco::data::make_synthetic_mnist(eval_cfg);
  s.system = std::make_unique<core::OrcoDcsSystem>(train_system_config(seed));
  s.system_fresh = true;
  return s;
}

struct TrainPass {
  WindowedLatency round_us;
  std::uint64_t rounds = 0;
  std::vector<float> final_loss;  // one per pass
  std::size_t wire_bytes = 0;     // uplink + downlink of the first round
  bool wire_constant = true;
  std::uint64_t failed = 0;
  double wall_s = 0.0;

  double rounds_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(rounds) / wall_s : 0.0;
  }
};

TrainPass train_pass(TrainSetup& s, std::uint64_t seed, double seconds,
                     Spans* spans) {
  TrainPass p;
  p.round_us = WindowedLatency(seconds);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  do {
    if (!s.system_fresh) {
      const auto b0 = Clock::now();
      s.system = std::make_unique<core::OrcoDcsSystem>(train_system_config(seed));
      if (spans != nullptr) spans->add("core.system_build", b0, Clock::now());
    }
    s.system_fresh = false;
    core::Orchestrator& orchestrator = s.system->orchestrator();
    for (std::size_t r = 0; r < kRoundsPerPass; ++r) {
      const auto t0 = Clock::now();
      core::RoundRecord rec;
      try {
        rec = orchestrator.train_round(s.batches[r % kTrainBatches]);
      } catch (const std::exception&) {
        ++p.failed;
        continue;
      }
      const auto t1 = Clock::now();
      if (spans != nullptr) spans->add("core.train_round", t0, t1);
      p.round_us.add(s_between(start, t1), us_between(t0, t1));
      ++p.rounds;
      const std::size_t bytes =
          rec.uplink_payload_bytes + rec.downlink_payload_bytes;
      if (p.wire_bytes == 0) p.wire_bytes = bytes;
      p.wire_constant = p.wire_constant && bytes == p.wire_bytes;
    }
    const auto e0 = Clock::now();
    p.final_loss.push_back(s.system->evaluate_loss(s.eval));
    if (spans != nullptr) spans->add("core.evaluate_loss", e0, Clock::now());
  } while (Clock::now() < end);
  p.wall_s = s_between(start, Clock::now());
  return p;
}

void check_pass(const std::string& pass, const TrainPass& p,
                const TrainPass* reference, Result& result) {
  bool identical = !p.final_loss.empty();
  for (const float loss : p.final_loss) {
    identical = identical && std::memcmp(&loss, &p.final_loss.front(),
                                         sizeof loss) == 0;
  }
  if (reference != nullptr && !reference->final_loss.empty()) {
    identical = identical && std::memcmp(&p.final_loss.front(),
                                         &reference->final_loss.front(),
                                         sizeof(float)) == 0;
  }
  const double loss = p.final_loss.empty() ? 0.0 : p.final_loss.front();
  result.check(pass + ".final_loss_identical", identical,
               std::to_string(p.final_loss.size()) + " passes");
  result.check(pass + ".final_loss_ceiling",
               std::isfinite(loss) && loss > 0.0 && loss < kLossCeiling,
               "final_loss " + std::to_string(loss));
  // Every round ships the same four messages: B x (M + N + N + M) floats
  // plus framing.
  const std::size_t floats = kBatch * 2 * (128 + 784);
  result.check(pass + ".wire_bytes",
               p.wire_constant && p.wire_bytes >= floats * sizeof(float),
               std::to_string(p.wire_bytes) + " B per round");
  result.check(pass + ".no_failed_rounds", p.failed == 0,
               std::to_string(p.failed) + " failed");
  result.check(pass + ".round_samples", p.rounds >= kMinRoundSamples,
               std::to_string(p.rounds) + " rounds");
}

}  // namespace

core::SystemConfig train_system_config(std::uint64_t seed) {
  return mnist_tenant_config(tenant_model_seed(seed, 1000));
}

std::vector<Tensor> make_train_batches(std::uint64_t seed) {
  orco::data::MnistConfig train_cfg;
  train_cfg.count = kBatch * kTrainBatches;
  train_cfg.seed = seed * 104729 + 3;
  const orco::data::Dataset train = orco::data::make_synthetic_mnist(train_cfg);
  std::vector<Tensor> batches;
  for (std::size_t b = 0; b < kTrainBatches; ++b) {
    batches.push_back(train.images().slice_rows(b * kBatch, (b + 1) * kBatch));
  }
  return batches;
}

void run_train_online(const RunConfig& cfg, Result& result) {
  result.param("model", "784->128 encoder, 3-layer decoder 128->456->456->784");
  result.param("batch", static_cast<double>(kBatch));
  result.param("rounds_per_pass", static_cast<double>(kRoundsPerPass));
  result.param("distinct_batches", static_cast<double>(kTrainBatches));
  result.param("eval_images", static_cast<double>(kEvalImages));
  result.param("loss_ceiling", kLossCeiling);
  result.param("loop", "closed, 1 thread; fresh system per pass");

  const InlineGemmScope inline_gemm;
  std::vector<double> setup_s;
  TrainSetup s = repeated_setup<TrainSetup>(
      [&] { return setup_train(cfg.seed); }, setup_s);

  TrainPass p = train_pass(s, cfg.seed, cfg.seconds, nullptr);
  check_pass("untraced", p, nullptr, result);
  result.attempted = p.rounds + p.failed;
  result.failed = p.failed;
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  const WindowedStats win = p.round_us.stats();
  const LogHistogram& whole = p.round_us.whole();
  result.e2e("setup_s", median_of(setup_s), "s");
  result.e2e("latency_p50_us", win.p50_us, "us");
  result.e2e("latency_p99_us", win.p99_us, "us");
  result.e2e("throughput_rps", p.rounds_per_s(), "1/s");
  result.e2e("ok_ratio", static_cast<double>(p.rounds) / attempted, "ratio");
  result.report("train_round_p50_ms", whole.quantile(0.5) / 1000.0, "ms");
  result.report("train_round_p90_ms", whole.quantile(0.9) / 1000.0, "ms");
  result.report("latency_p99_us_whole_run", whole.quantile(0.99), "us");
  result.report("train_samples_per_s",
                p.rounds_per_s() * static_cast<double>(kBatch), "samples/s");
  result.report("final_loss",
                p.final_loss.empty() ? 0.0 : p.final_loss.front(), "loss");
  result.report("wire_bytes_per_round", static_cast<double>(p.wire_bytes), "B");
  result.report("passes", static_cast<double>(p.final_loss.size()), "count");

  if (cfg.spans != nullptr) {
    TrainPass traced = train_pass(s, cfg.seed, cfg.seconds, cfg.spans);
    check_pass("traced", traced, &p, result);
    result.layer("bench.trace_overhead_ratio",
                 p.rounds_per_s() > 0.0
                     ? traced.rounds_per_s() / p.rounds_per_s()
                     : 0.0,
                 "ratio");
  }
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

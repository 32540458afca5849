// serve_open and serve_closed: eight MNIST-like tenants behind a 2-shard
// serve::ServerRuntime, driven by one generator thread.
//
//   serve_open   — open loop: Poisson arrivals at the fixed kOpenRateRps,
//                  latency timed from each request's due time; odd tenants
//                  send kFixed8 payloads through the int8 decode path, even
//                  tenants send f32 latents.
//   serve_closed — closed loop: kClientsPerTenant f32 clients per tenant,
//                  enough to fill max_batch for every tenant; latency is
//                  submit to observed completion.
//
// Latents are the tenants' own encodings of seeded synthetic frames; the
// models are frozen. Sampled responses are checked bitwise against a
// batch-1 decode on the tenant's EdgeServer.
#include <algorithm>
#include <array>
#include <memory>
#include <random>

#include "common/rng.h"
#include "core/quantization.h"
#include "data/synthetic_mnist.h"
#include "nn/infer_context.h"
#include "serve/serve.h"
#include "tensor/backend.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orco::serve::DecodeResponse;
using orco::serve::ResponseStatus;
using orco::tensor::Tensor;
namespace core = orco::core;
namespace serve = orco::serve;

constexpr std::size_t kTenants = 8;
constexpr std::size_t kFrames = 256;
constexpr std::size_t kShards = 2;
constexpr std::size_t kMaxBatch = 32;
constexpr std::uint64_t kMaxWaitUs = 200;
constexpr std::size_t kQueueCapacity = 4096;
/// Offered rate of serve_open: a constant, never derived from a measurement
/// at run time. On the reference host (4-vCPU avx512 Xeon VM) it keeps the
/// mean batch near 5; half of serve_closed capacity would push it past 11,
/// out of the small-batch regime this workload exists for.
constexpr double kOpenRateRps = 20000.0;
/// serve_closed's clients per tenant: each waits for its answer and sends
/// the next request for the same tenant, so every tenant keeps one full
/// batch outstanding. (Two batches per tenant doubled the queueing and made
/// p50 jump between "next batch" and "the one after".)
constexpr std::size_t kClientsPerTenant = kMaxBatch;
constexpr std::size_t kClosedWindow = kTenants * kClientsPerTenant;
/// Longest a closed-loop generator sleeps on its oldest request before
/// sweeping again: bounds how late an answer from the other shard is seen.
constexpr auto kClosedNap = std::chrono::microseconds(50);
constexpr std::size_t kWarmupPerTenant = 64;
constexpr std::size_t kSampleEvery = 61;
constexpr std::size_t kMaxSamples = 400;
constexpr std::size_t kMinLatencySamples = 1000;
/// Traced passes record a submit span for one request in kSpanEvery.
constexpr std::uint64_t kSpanEvery = 64;
constexpr auto kAnswerTimeout = std::chrono::seconds(30);

bool int8_tenant(std::size_t t) { return t % 2 == 1; }

struct ServeSetup {
  std::vector<std::shared_ptr<core::OrcoDcsSystem>> tenants;
  std::vector<std::vector<Tensor>> latents;  // [tenant][frame], shape (M)
  std::vector<std::vector<std::vector<std::uint8_t>>> payloads;  // kFixed8
  std::unique_ptr<serve::ServerRuntime> runtime;
};

ServeSetup setup_serve(std::uint64_t seed) {
  ServeSetup s;
  orco::data::MnistConfig frames_cfg;
  frames_cfg.count = kFrames;
  frames_cfg.seed = seed * 7919 + 17;
  const Tensor frames = orco::data::make_synthetic_mnist(frames_cfg).images();

  serve::ServeConfig sc;
  sc.shard_count = kShards;
  sc.queue.capacity = kQueueCapacity;
  sc.queue.max_batch = kMaxBatch;
  sc.queue.max_wait_us = kMaxWaitUs;
  sc.backend = kBackend;
  sc.int8_decode = true;
  s.runtime = std::make_unique<serve::ServerRuntime>(sc);

  s.latents.resize(kTenants);
  s.payloads.resize(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    core::SystemConfig cfg = mnist_tenant_config(tenant_model_seed(seed, t));
    cfg.orco.int8_decode = int8_tenant(t);
    auto system = std::make_shared<core::OrcoDcsSystem>(cfg);
    const Tensor latents = system->aggregator().encode_inference(frames);
    for (std::size_t f = 0; f < kFrames; ++f) {
      s.latents[t].push_back(latents.row_copy(f));
      if (int8_tenant(t)) {
        s.payloads[t].push_back(core::quantize_latents(
            latents.slice_rows(f, f + 1), core::LatentPrecision::kFixed8));
      }
    }
    s.runtime->register_cluster(t, system);
    s.tenants.push_back(std::move(system));
  }
  s.runtime->start();

  // Warm-up: compile every tenant's plan and fill the shards' contexts at
  // both the small and the full batch size.
  std::vector<std::future<DecodeResponse>> warm;
  for (std::size_t i = 0; i < kWarmupPerTenant; ++i) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      warm.push_back(s.runtime->submit(t, s.latents[t][i % kFrames]));
      if (int8_tenant(t)) {
        warm.push_back(s.runtime->submit(t, s.payloads[t][i % kFrames],
                                         core::LatentPrecision::kFixed8));
      }
    }
  }
  for (auto& f : warm) (void)f.get();
  return s;
}

struct Sample {
  std::size_t tenant = 0;
  std::size_t frame = 0;
  bool quantized = false;
  Tensor reconstruction;
};

/// What one measured pass saw.
struct PassStats {
  Clock::time_point start;
  WindowedLatency latency;  // kOk: due (open) / submit (closed) -> seen
  LogHistogram lag;         // submit start - due (0 in the closed loop)
  double from_submit_sum_us = 0.0;  // kOk: submit start -> seen
  std::uint64_t attempted = 0, ok = 0, shed = 0, other = 0, missing = 0;
  std::uint64_t repeated_ids = 0;
  double batch_sum = 0.0;
  IdSet ids;
  std::vector<Sample> samples;
};

/// One request on its way through the runtime.
struct InFlight {
  Clock::time_point due, submit_start, submit_end;
  std::future<DecodeResponse> future;
  std::size_t tenant = 0, frame = 0;
  bool quantized = false;
};

/// Folds the (ready) answer of `f`, observed at `seen`, into `st`.
void collect(InFlight& f, Clock::time_point seen, PassStats& st) {
  DecodeResponse r = f.future.get();
  if (!st.ids.insert(r.id)) ++st.repeated_ids;
  st.lag.add(us_between(f.due, f.submit_start));
  if (r.status == ResponseStatus::kOk) {
    ++st.ok;
    st.latency.add(s_between(st.start, seen), us_between(f.due, seen));
    st.from_submit_sum_us += us_between(f.submit_start, seen);
    st.batch_sum += static_cast<double>(r.batch_size);
    if (st.attempted % kSampleEvery == 0 && st.samples.size() < kMaxSamples) {
      st.samples.push_back(
          {f.tenant, f.frame, f.quantized, std::move(r.reconstruction)});
    }
  } else if (r.status == ResponseStatus::kShed) {
    ++st.shed;
  } else {
    ++st.other;
  }
  ++st.attempted;
}

/// One measured pass from a single generator thread, which also observes
/// the answers: between submissions it spins over the outstanding futures,
/// so an answer is seen within one sweep of landing, in any order.
///   open   — submits on a Poisson schedule at kOpenRateRps, regardless of
///            progress; latency runs from each request's due time.
///   closed — kClientsPerTenant clients per tenant, each sending its next
///            f32 request as soon as its answer is seen; latency runs from
///            submission.
PassStats drive(ServeSetup& s, std::uint64_t stream, double seconds,
                Spans* spans, bool open) {
  PassStats st;
  orco::common::Pcg32 rng(stream);
  std::exponential_distribution<double> gap(kOpenRateRps);
  std::vector<InFlight> inflight;
  inflight.reserve(2 * kClosedWindow);
  const auto start = Clock::now();
  st.start = start;
  st.latency = WindowedLatency(seconds);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  // Collects every answered request; the closed loop's clients whose
  // answer arrived land in `answered`. Returns how many were collected.
  std::vector<std::size_t> answered;
  const auto sweep = [&] {
    std::size_t collected = 0;
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        if (!open) answered.push_back(inflight[i].tenant);
        collect(inflight[i], Clock::now(), st);
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
        ++collected;
      } else {
        ++i;
      }
    }
    return collected;
  };
  // Closed loop: when nothing was answered, sleep on the oldest request for
  // at most kClosedNap instead of spinning, leaving the cores to the shards.
  const auto nap = [&] {
    const auto oldest = std::min_element(
        inflight.begin(), inflight.end(), [](const auto& a, const auto& b) {
          return a.submit_start < b.submit_start;
        });
    if (oldest != inflight.end()) oldest->future.wait_for(kClosedNap);
  };
  std::uint64_t issued = 0;
  const auto issue = [&](std::size_t tenant, Clock::time_point due) {
    InFlight f;
    f.tenant = tenant;
    f.frame = rng.next() % kFrames;
    f.quantized = open && int8_tenant(f.tenant);
    f.due = due;
    f.submit_start = Clock::now();
    f.future = f.quantized
                   ? s.runtime->submit(f.tenant, s.payloads[f.tenant][f.frame],
                                       core::LatentPrecision::kFixed8)
                   : s.runtime->submit(f.tenant, s.latents[f.tenant][f.frame]);
    f.submit_end = Clock::now();
    if (spans != nullptr && issued % kSpanEvery == 0) {
      spans->add("serve.submit", f.submit_start, f.submit_end);
    }
    ++issued;
    inflight.push_back(std::move(f));
  };

  if (open) {
    auto due = start;
    for (;;) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      if (due >= end) break;
      while (Clock::now() < due) sweep();
      issue(rng.next() % kTenants, due);
    }
  } else {
    for (std::size_t i = 0; i < kClosedWindow; ++i) {
      issue(i % kTenants, Clock::now());
    }
    while (Clock::now() < end) {
      if (sweep() == 0) nap();
      for (const std::size_t tenant : answered) issue(tenant, Clock::now());
      answered.clear();
    }
  }
  const auto deadline = Clock::now() + kAnswerTimeout;
  while (!inflight.empty() && Clock::now() < deadline) {
    if (sweep() == 0 && !open) nap();
  }
  st.missing = inflight.size();
  st.attempted += st.missing;
  return st;
}

struct StageTotals {
  std::array<double, serve::Telemetry::kStageCount> us{};
  std::array<double, serve::Telemetry::kStageCount> requests{};
};

StageTotals stage_totals(const serve::ServerRuntime& runtime) {
  StageTotals totals;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto stages = runtime.telemetry().stage_snapshot(t);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      totals.us[i] += static_cast<double>(stages[i].us);
      totals.requests[i] += static_cast<double>(stages[i].requests);
    }
  }
  return totals;
}

/// Output checks of one pass: exactly-once answers, status accounting
/// against the runtime's counters, and sampled bitwise parity with a
/// batch-1 decode on the tenant's own EdgeServer.
void check_pass(const std::string& pass, ServeSetup& s, PassStats& st,
                const serve::TelemetrySnapshot& before,
                const serve::TelemetrySnapshot& after, Result& result) {
  const std::uint64_t answered = st.ok + st.shed + st.other;
  result.check(pass + ".answered_once",
               st.missing == 0 && answered == st.attempted,
               std::to_string(answered) + " answered of " +
                   std::to_string(st.attempted) + ", " +
                   std::to_string(st.missing) + " missing");
  result.check(pass + ".unique_ids", st.repeated_ids == 0,
               std::to_string(st.repeated_ids) + " repeated");
  result.check(
      pass + ".telemetry_counts",
      after.submitted - before.submitted == st.attempted &&
          after.completed - before.completed == st.ok &&
          after.shed - before.shed == st.shed,
      "submitted " + std::to_string(after.submitted - before.submitted) +
          ", completed " + std::to_string(after.completed - before.completed));
  result.check(pass + ".latency_samples",
               st.latency.whole().count() >= kMinLatencySamples,
               std::to_string(st.latency.whole().count()) + " samples");

  orco::tensor::BackendScope scope(orco::tensor::find_backend(kBackend));
  orco::nn::InferContext ctx;
  Tensor ref;
  std::size_t mismatches = 0, quantized = 0;
  for (const Sample& sample : st.samples) {
    const core::EdgeServer& edge = s.tenants[sample.tenant]->edge();
    if (sample.quantized) {
      ++quantized;
      const auto& payload = s.payloads[sample.tenant][sample.frame];
      float lo = 0.0f, step = 0.0f;
      core::quantized_dequant_params(payload.data(),
                                     core::LatentPrecision::kFixed8, &lo,
                                     &step);
      const orco::tensor::QuantHeader qh{&lo, &step};
      const std::size_t header =
          core::quantization_header_bytes(core::LatentPrecision::kFixed8);
      edge.decode_inference_quantized(payload.data() + header, qh, 1, ref,
                                      ctx);
    } else {
      const Tensor& latent = s.latents[sample.tenant][sample.frame];
      edge.decode_inference(latent.reshaped({1, latent.numel()}), ref, ctx);
    }
    if (!bitwise_equal(sample.reconstruction, ref)) ++mismatches;
  }
  result.check(pass + ".bitwise_vs_batch1",
               !st.samples.empty() && mismatches == 0,
               std::to_string(mismatches) + " mismatches in " +
                   std::to_string(st.samples.size()) + " samples (" +
                   std::to_string(quantized) + " kFixed8)");
}

void run_serve(const RunConfig& cfg, Result& result, bool open) {
  result.param("tenants", static_cast<double>(kTenants));
  result.param("shards", static_cast<double>(kShards));
  result.param("max_batch", static_cast<double>(kMaxBatch));
  result.param("max_wait_us", static_cast<double>(kMaxWaitUs));
  result.param("model", "784->128 encoder, 3-layer decoder 128->456->456->784");
  result.param("frames_per_tenant", static_cast<double>(kFrames));
  if (open) {
    result.param("loop", "open, Poisson arrivals, 1 generator thread");
    result.param("offered_rps", kOpenRateRps);
    result.param("payloads", "odd tenants kFixed8 (int8 decode), even f32");
  } else {
    result.param("loop", "closed, 1 generator thread driving all clients");
    result.param("clients_per_tenant", static_cast<double>(kClientsPerTenant));
    result.param("payloads", "f32");
  }

  std::vector<double> setup_s;
  ServeSetup s = repeated_setup<ServeSetup>(
      [&] { return setup_serve(cfg.seed); }, setup_s);

  const auto before = s.runtime->telemetry().snapshot();
  PassStats st = drive(s, cfg.seed * 2 + 1, cfg.seconds, nullptr, open);
  const auto after = s.runtime->telemetry().snapshot();
  check_pass("untraced", s, st, before, after, result);

  result.attempted = st.attempted;
  result.failed = st.attempted - st.ok;
  const WindowedStats win = st.latency.stats();
  const LogHistogram& whole = st.latency.whole();
  const double attempted = static_cast<double>(std::max<std::uint64_t>(
      st.attempted, 1));
  result.e2e("setup_s", median_of(setup_s), "s");
  result.e2e("latency_p50_us", win.p50_us, "us");
  result.e2e("latency_p99_us", win.p99_us, "us");
  result.e2e("throughput_rps", win.per_s, "1/s");
  result.e2e("ok_ratio", static_cast<double>(st.ok) / attempted, "ratio");
  result.report("latency_p90_us", whole.quantile(0.9), "us");
  result.report("latency_mean_us", whole.mean(), "us");
  result.report("latency_p99_us_whole_run", whole.quantile(0.99), "us");
  result.report("latency_samples", static_cast<double>(whole.count()),
                "count");
  result.report("latency_samples_min_window",
                static_cast<double>(win.min_window_samples), "count");
  result.report("error_ratio",
                static_cast<double>(st.attempted - st.ok) / attempted, "ratio");
  result.report("batch_mean",
                st.ok > 0 ? st.batch_sum / static_cast<double>(st.ok) : 0.0,
                "count");
  if (open) {
    result.report("offered_rps", kOpenRateRps, "1/s");
    result.report("generator_lag_p99_us", st.lag.quantile(0.99), "us");
  }

  if (cfg.spans != nullptr) {
    const StageTotals stages_before = stage_totals(*s.runtime);
    const auto tb = s.runtime->telemetry().snapshot();
    PassStats traced = drive(s, cfg.seed * 2 + 2, cfg.seconds, cfg.spans, open);
    const auto ta = s.runtime->telemetry().snapshot();
    const StageTotals stages_after = stage_totals(*s.runtime);
    check_pass("traced", s, traced, tb, ta, result);

    const double submit = mean(cfg.spans->durations_us("serve.submit"));
    static const char* kStageNames[] = {"serve.queue_wait_us",
                                        "serve.assembly_us",
                                        "serve.decode_us",
                                        "serve.respond_us"};
    double staged = 0.0;
    for (std::size_t i = 0; i < serve::Telemetry::kStageCount; ++i) {
      const double requests =
          stages_after.requests[i] - stages_before.requests[i];
      const double us = requests > 0.0
                            ? (stages_after.us[i] - stages_before.us[i]) /
                                  requests
                            : 0.0;
      staged += us;
      result.layer(kStageNames[i], us, "us");
    }
    const double e2e =
        traced.ok > 0
            ? traced.from_submit_sum_us / static_cast<double>(traced.ok)
            : 0.0;
    result.layer("serve.submit_us", submit, "us");
    result.layer("serve.e2e_mean_us", e2e, "us");
    result.layer("serve.unaccounted_us", e2e - submit - staged, "us");
    result.layer("serve.unaccounted_share",
                 e2e > 0.0 ? (e2e - submit - staged) / e2e : 0.0, "ratio");
    result.layer("serve.batch_mean",
                 traced.ok > 0
                     ? traced.batch_sum / static_cast<double>(traced.ok)
                     : 0.0,
                 "count");
    result.layer("serve.shed", static_cast<double>(traced.shed), "count");
    if (open) {
      result.layer("bench.generator_lag_p99_us",
                   traced.lag.quantile(0.99), "us");
    }
    result.layer("bench.trace_overhead_ratio",
                 win.per_s > 0.0 ? traced.latency.stats().per_s / win.per_s
                                 : 0.0,
                 "ratio");
  }
  s.runtime->shutdown();
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

void run_serve_open(const RunConfig& cfg, Result& result) {
  run_serve(cfg, result, /*open=*/true);
}

void run_serve_closed(const RunConfig& cfg, Result& result) {
  run_serve(cfg, result, /*open=*/false);
}

}  // namespace perfbench

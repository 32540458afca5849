// Per-layer probes of a traced run. Each probe times calls into one
// module's public functions from here, recording one span per timed sample
// (the span name is the metric name), and reports the median (or, where a
// row must add up with its siblings, the mean) per call:
//
//   nn     — InferPlan::run / run_quantized on a serve tenant's plan;
//   tensor — gemm_prepacked per decoder op, plain and with the op's fused
//            epilogue, at batch 1 and 32, plus gemm_quantized and the
//            training GEMMs; FLOPs and bytes are computed from the shapes;
//   core   — the protocol steps of one training round on a twin system,
//            against whole rounds on a second twin fed the same batches;
//   wsn    — uplink/downlink payload bytes of one round (RoundRecord);
//   train  — ModelRegistry::publish of a decoder clone (plan compile);
//   fleet  — demote, cold wake, ColdStore load/save and ring routing on a
//            private fleet under the run directory, and a short fleet_churn
//            pass for the fleet counters (fleet_workload.cpp).
//
// The parts-sum rows (core.protocol_overhead_ms, fleet.wake_remainder_us)
// are the whole minus its measured parts, with their share of the whole.
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "core/quantization.h"
#include "fleet/fleet.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "tensor/backend.h"
#include "train/model_registry.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orco::tensor::Tensor;
namespace core = orco::core;
namespace nn = orco::nn;
namespace tensor = orco::tensor;

/// Times `fn` `reps` times after `warmup` untimed calls, one span per
/// sample named `name`; each sample covers `inner` calls. Returns the
/// per-call durations (us) of the samples.
template <typename F>
std::vector<double> sample_us(Spans& spans, const std::string& name, int reps,
                              int inner, int warmup, F&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    spans.add(name, t0, Clock::now());
  }
  std::vector<double> us = spans.durations_us(name);
  for (double& v : us) v /= inner;
  return us;
}

template <typename F>
double median_us(Spans& spans, const std::string& name, int reps, int inner,
                 F&& fn) {
  return median_of(sample_us(spans, name, reps, inner, 3, fn));
}

std::vector<std::uint8_t> random_codes(std::size_t n,
                                       orco::common::Pcg32& rng) {
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next() & 0xff);
  return codes;
}

void probe_nn_tensor(const RunConfig& cfg, Result& result) {
  Spans& spans = *cfg.spans;
  Spans::Scope scope(spans, "probe.nn_tensor");
  core::SystemConfig sc = mnist_tenant_config(tenant_model_seed(cfg.seed, 0));
  sc.orco.int8_decode = true;
  core::OrcoDcsSystem tenant(sc);
  const auto plan = tenant.edge().current_plan();
  const std::size_t latent = sc.orco.latent_dim;
  orco::common::Pcg32 rng(cfg.seed * 13 + 1);
  nn::InferContext ctx;
  Tensor out;

  for (const std::size_t b : {1, 8, 32}) {
    const Tensor x = Tensor::uniform({b, latent}, rng);
    result.layer("nn.plan_run_us.b" + std::to_string(b),
                 median_us(spans, "nn.plan_run_us.b" + std::to_string(b), 200,
                           4, [&] { plan->run(x, out, ctx); }),
                 "us");
  }
  constexpr std::size_t kQBatch = 8;
  const std::vector<std::uint8_t> codes = random_codes(kQBatch * latent, rng);
  std::vector<float> lo(kQBatch, -0.5f), scale(kQBatch, 1.0f / 255.0f);
  const tensor::QuantHeader qh{lo.data(), scale.data()};
  result.layer("nn.plan_run_quantized_us.b8",
               median_us(spans, "nn.plan_run_quantized_us.b8", 200, 4,
                         [&] {
                           plan->run_quantized(codes.data(), qh, kQBatch,
                                               latent, out, ctx);
                         }),
               "us");

  // Kernel vs epilogue, per Dense op of the compiled decoder.
  const tensor::Backend& backend = plan->backend();
  std::size_t op_index = 0;
  const nn::PlanOp* head = nullptr;
  for (const nn::PlanOp& op : plan->ops()) {
    if (op.dense == nullptr || op.packed == nullptr) continue;
    if (head == nullptr) head = &op;
    const std::size_t k = op.dense->in_features();
    const std::size_t n = op.dense->out_features();
    const tensor::Epilogue plain{};
    const tensor::Epilogue fused{op.dense->bias().data().data(), false, op.act,
                                 op.leaky_alpha};
    const std::string tag = ".op" + std::to_string(op_index);
    for (const std::size_t m : {1, 32}) {
      const Tensor a = Tensor::uniform({m, k}, rng);
      std::vector<float> c(m * n);
      const std::string bt = ".b" + std::to_string(m);
      const int inner = m == 1 ? 16 : 2;
      const double gemm = median_us(spans, "tensor.gemm_us" + tag + bt, 200,
                                    inner, [&] {
                                      backend.gemm_prepacked(
                                          a.data().data(), *op.packed,
                                          c.data(), m, k, n, plain);
                                    });
      const double whole = median_us(
          spans, "tensor.fused_us" + tag + bt, 200, inner, [&] {
            backend.gemm_prepacked(a.data().data(), *op.packed, c.data(), m,
                                   k, n, fused);
          });
      const double flops = 2.0 * static_cast<double>(m * k * n);
      // Operands read once, output written once, plus the bias vector.
      const double bytes =
          4.0 * static_cast<double>(m * k + k * n + m * n + n);
      result.layer("tensor.gemm_us" + tag + bt, gemm, "us");
      result.layer("tensor.epilogue_us" + tag + bt, whole - gemm, "us");
      result.layer("tensor.gemm_flops_computed" + tag + bt, flops, "FLOP");
      result.layer("tensor.gemm_bytes_computed" + tag + bt, bytes, "B");
      if (m == 32) {
        result.layer("tensor.gemm_gflops" + tag + bt,
                     gemm > 0.0 ? flops / (gemm * 1e3) : 0.0, "GFLOP/s");
      }
    }
    ++op_index;
  }
  if (head != nullptr) {
    const std::size_t k = head->dense->in_features();
    const std::size_t n = head->dense->out_features();
    const tensor::Epilogue fused{head->dense->bias().data().data(), false,
                                 head->act, head->leaky_alpha};
    std::vector<float> c(kQBatch * n);
    result.layer("tensor.gemm_quantized_us.b8",
                 median_us(spans, "tensor.gemm_quantized_us.b8", 200, 4,
                           [&] {
                             backend.gemm_quantized(codes.data(), qh,
                                                    *head->packed, c.data(),
                                                    kQBatch, k, n, fused);
                           }),
                 "us");
  }

  // Training GEMMs at train_online's shapes (batch 64) and threading: the
  // forward y = x·Wᵀ (gemm_nt) and the weight gradient dW = dYᵀ·X (gemm_tn)
  // of every decoder Dense layer, summed per round.
  constexpr std::size_t kTrainBatch = 64;
  double nt_total = 0.0, tn_total = 0.0;
  {
    const InlineGemmScope inline_gemm;
    const nn::Sequential& decoder = tenant.edge().decoder();
    for (std::size_t i = 0; i < decoder.size(); ++i) {
      const auto* dense = dynamic_cast<const nn::Dense*>(&decoder.layer(i));
      if (dense == nullptr) continue;
      const std::size_t in = dense->in_features();
      const std::size_t outf = dense->out_features();
      const Tensor x = Tensor::uniform({kTrainBatch, in}, rng);
      const Tensor dy =
          Tensor::uniform({kTrainBatch, outf}, rng, -0.01f, 0.01f);
      std::vector<float> y(kTrainBatch * outf), dw(outf * in);
      const std::string tag = ".layer" + std::to_string(i);
      nt_total += median_us(spans, "tensor.gemm_nt" + tag, 60, 1, [&] {
        std::fill(y.begin(), y.end(), 0.0f);
        backend.gemm_nt(x.data().data(), dense->weight().data().data(),
                        y.data(), kTrainBatch, in, outf);
      });
      tn_total += median_us(spans, "tensor.gemm_tn" + tag, 60, 1, [&] {
        std::fill(dw.begin(), dw.end(), 0.0f);
        backend.gemm_tn(dy.data().data(), x.data().data(), dw.data(), outf,
                        kTrainBatch, in);
      });
    }
  }
  result.layer("tensor.gemm_nt_us.train", nt_total, "us");
  result.layer("tensor.gemm_tn_us.train", tn_total, "us");

  // IoT-side costs of one frame: encoder inference and int8 quantization.
  const Tensor frame = Tensor::uniform({1, sc.orco.input_dim}, rng);
  result.layer("core.encode_inference_us.b1",
               median_us(spans, "core.encode_inference_us.b1", 200, 4,
                         [&] {
                           (void)tenant.aggregator().encode_inference(frame);
                         }),
               "us");
  const Tensor z = Tensor::uniform({1, latent}, rng);
  result.layer("core.quantize_us.b1",
               median_us(spans, "core.quantize_us.b1", 200, 16,
                         [&] {
                           (void)core::quantize_latents(
                               z, core::LatentPrecision::kFixed8);
                         }),
               "us");
}

void probe_core_wsn(const RunConfig& cfg, Result& result) {
  Spans& spans = *cfg.spans;
  Spans::Scope scope(spans, "probe.core");
  const std::vector<Tensor> batches = make_train_batches(cfg.seed);
  // Twin systems with the same seed see the same batches in the same order:
  // `steps` runs a round's protocol steps one by one (no serialization, no
  // channel), `whole` runs Orchestrator::train_round.
  core::OrcoDcsSystem steps(train_system_config(cfg.seed));
  core::OrcoDcsSystem whole(train_system_config(cfg.seed));
  tensor::BackendScope backend_scope(tensor::find_backend(kBackend));
  const InlineGemmScope inline_gemm;  // as train_online runs its rounds
  constexpr int kWarmup = 3, kRounds = 40;
  const char* kSteps[] = {"core.encode_batch_ms", "core.edge_reconstruct_ms",
                          "core.residual_ms", "core.edge_train_step_ms",
                          "core.apply_latent_grad_ms"};
  std::vector<double> step_ms[5];
  std::vector<double> round_ms;
  core::RoundRecord record;
  for (int r = 0; r < kWarmup + kRounds; ++r) {
    const Tensor& batch = batches[static_cast<std::size_t>(r) % batches.size()];
    const auto round = static_cast<std::uint64_t>(r);
    Clock::time_point t[6];
    t[0] = Clock::now();
    const core::LatentBatchMsg latents =
        steps.aggregator().encode_batch(batch, round, true);
    t[1] = Clock::now();
    const core::ReconstructionMsg recon = steps.edge().reconstruct(latents, true);
    t[2] = Clock::now();
    const auto [loss, residual] =
        steps.aggregator().evaluate_reconstruction(recon);
    (void)loss;
    t[3] = Clock::now();
    const core::LatentGradMsg grad = steps.edge().train_step(residual);
    t[4] = Clock::now();
    steps.aggregator().apply_latent_gradient(grad);
    t[5] = Clock::now();
    const auto w0 = Clock::now();
    record = whole.orchestrator().train_round(batch);
    const auto w1 = Clock::now();
    if (r < kWarmup) continue;
    for (int s = 0; s < 5; ++s) {
      spans.add(kSteps[s], t[s], t[s + 1]);
      step_ms[s].push_back(us_between(t[s], t[s + 1]) / 1000.0);
    }
    spans.add("core.train_round_ms", w0, w1);
    round_ms.push_back(us_between(w0, w1) / 1000.0);
  }
  // Means, so the parts and the overhead row add up to the round.
  double parts = 0.0;
  for (int s = 0; s < 5; ++s) {
    const double m = mean(step_ms[s]);
    parts += m;
    result.layer(kSteps[s], m, "ms");
  }
  const double round = mean(round_ms);
  result.layer("core.train_round_ms", round, "ms");
  result.layer("core.protocol_overhead_ms", round - parts, "ms");
  result.layer("core.protocol_overhead_share",
               round > 0.0 ? (round - parts) / round : 0.0, "ratio");
  result.layer("wsn.uplink_bytes_per_round",
               static_cast<double>(record.uplink_payload_bytes), "B");
  result.layer("wsn.downlink_bytes_per_round",
               static_cast<double>(record.downlink_payload_bytes), "B");
}

void probe_train_fleet(const RunConfig& cfg, Result& result) {
  Spans& spans = *cfg.spans;
  Spans::Scope scope(spans, "probe.fleet");
  const core::SystemConfig fleet_sc = fleet_tenant_config();

  // The fleet template's build and clone: two of a cold wake's parts.
  const double build_us = median_us(spans, "core.system_build", 20, 1, [&] {
    core::OrcoDcsSystem system(fleet_sc);
  });
  result.layer("core.system_build_ms", build_us / 1000.0, "ms");
  core::OrcoDcsSystem donor(fleet_sc);
  result.layer("core.export_clone_us",
               median_us(spans, "core.export_clone_us", 50, 1,
                         [&] { (void)donor.export_decoder_clone(); }),
               "us");

  // Registry publish of a fresh decoder clone (the registry compiles and
  // packs the plan); clones are made outside the timed span.
  orco::train::ModelRegistry registry;
  std::uint64_t version = 0;
  std::vector<double> publish;
  for (int i = 0; i < 50; ++i) {
    auto snapshot = std::make_shared<orco::train::ModelSnapshot>();
    snapshot->version = ++version;
    snapshot->decoder =
        std::shared_ptr<const nn::Sequential>(donor.export_decoder_clone());
    snapshot->latent_dim = fleet_sc.orco.latent_dim;
    snapshot->output_dim = fleet_sc.orco.input_dim;
    const auto t0 = Clock::now();
    registry.publish(1, std::move(snapshot));
    const auto t1 = Clock::now();
    if (i < 3) continue;
    spans.add("train.publish_us", t0, t1);
    publish.push_back(us_between(t0, t1));
  }
  const double publish_us = median_of(publish);
  result.layer("train.publish_us", publish_us, "us");

  // A private fleet: build each tenant, demote it (checkpoint write),
  // wake it from the cold record, and time the cold store on its own.
  const std::string dir = cfg.work_dir + "/probe-fleet";
  std::filesystem::remove_all(dir);
  constexpr std::size_t kTenants = 24;
  std::vector<double> demote, wake, load, save;
  bool all_demoted = true;
  {
    orco::fleet::EdgeFleet fleet(fleet_churn_config(dir + "/cold", 4 * kTenants));
    orco::fleet::ColdStore store(dir + "/save");
    fleet.start();
    for (std::size_t id = 0; id < kTenants; ++id) {
      fleet.register_tenant(id);
      fleet.warm(id);
      auto t0 = Clock::now();
      const bool demoted = fleet.demote(id);
      auto t1 = Clock::now();
      all_demoted = all_demoted && demoted;
      spans.add("fleet.demote_us", t0, t1);
      demote.push_back(us_between(t0, t1));
      t0 = Clock::now();
      fleet.warm(id);
      t1 = Clock::now();
      spans.add("fleet.wake_us", t0, t1);
      wake.push_back(us_between(t0, t1));
      t0 = Clock::now();
      const orco::fleet::ColdRecord record = fleet.cold_store().load(id);
      t1 = Clock::now();
      spans.add("fleet.cold_load_us", t0, t1);
      load.push_back(us_between(t0, t1));
      t0 = Clock::now();
      store.save(id, record);
      t1 = Clock::now();
      spans.add("fleet.cold_save_us", t0, t1);
      save.push_back(us_between(t0, t1));
    }
    constexpr std::uint64_t kRoutes = 1 << 20;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t key = 0; key < kRoutes; ++key) {
      sink += fleet.ring().route(key * 0x9e3779b97f4a7c15ULL);
    }
    const auto t1 = Clock::now();
    spans.add("fleet.route_batch", t0, t1);
    // Keys spread over both cells, so the routed cell indices sum above 0.
    result.check("probe.route_spread", sink > 0);
    result.layer("fleet.route_ns", us_between(t0, t1) * 1000.0 / kRoutes,
                 "ns");
    fleet.shutdown();
  }
  std::filesystem::remove_all(dir);
  result.check("probe.fleet_demote", all_demoted);
  const double wake_us = median_of(wake);
  const double load_us = median_of(load);
  const double remainder = wake_us - load_us - build_us - publish_us;
  result.layer("fleet.demote_us", median_of(demote), "us");
  result.layer("fleet.wake_us", wake_us, "us");
  result.layer("fleet.cold_load_us", load_us, "us");
  result.layer("fleet.cold_save_us", median_of(save), "us");
  result.layer("fleet.wake_remainder_us", remainder, "us");
  result.layer("fleet.wake_remainder_share",
               wake_us > 0.0 ? remainder / wake_us : 0.0, "ratio");
}

}  // namespace

void run_layer_probes(const RunConfig& cfg, Result& result) {
  probe_nn_tensor(cfg, result);
  probe_core_wsn(cfg, result);
  probe_train_fleet(cfg, result);
  run_fleet_churn_probe(cfg, result);
}

}  // namespace perfbench

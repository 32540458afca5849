// Tests for InferPlan, the compile-once inference plan (nn/infer_plan.h):
// compile-time structure (identity layers dropped, activations fused,
// packed panels pre-attached), bitwise parity with the unfused training
// path Sequential::forward(x, false) across all three backends and odd
// shapes, the int8 quantized head (against forward on the dequantized
// batch), all-identity chains, nested-chain flattening, weight-staleness
// detection, and the precomputed arena high-water.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/dense.h"
#include "nn/infer_context.h"
#include "nn/infer_plan.h"
#include "nn/noise.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/backend.h"

namespace orco {
namespace {

using nn::InferContext;
using nn::InferPlan;
using tensor::Tensor;

/// The three real backends every parity claim must hold on.
std::vector<const tensor::Backend*> all_backends() {
  return {&tensor::reference_backend(), &tensor::blocked_backend(),
          &tensor::simd_backend()};
}

/// Odd-shaped Dense chain (no power-of-two dims, every epilogue kind) —
/// identical weights for every call with the same seed.
std::unique_ptr<nn::Sequential> make_odd_dense_model(std::uint64_t seed) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Dense>(13, 37, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Dense>(37, 29, rng);
  model->emplace<nn::LeakyReLU>(0.07f);
  model->emplace<nn::Dense>(29, 23, rng);
  model->emplace<nn::Tanh>();
  model->emplace<nn::Dense>(23, 31, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

/// The 128 -> 456 -> 784 paper decoder with `hidden` after the first
/// layer and a Sigmoid output.
std::unique_ptr<nn::Sequential> make_paper_decoder(std::uint64_t seed,
                                                   nn::LayerPtr hidden) {
  common::Pcg32 rng(seed);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Dense>(128, 456, rng);
  model->add(std::move(hidden));
  model->emplace<nn::Dense>(456, 784, rng);
  model->emplace<nn::Sigmoid>();
  return model;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " elem " << i;
  }
}

/// Seeded int8 codes with distinct per-row affine headers.
struct QuantBatch {
  std::vector<std::uint8_t> codes;
  std::vector<float> lo, scale;
  std::size_t batch, features;

  QuantBatch(std::size_t rows, std::size_t cols, std::size_t mul,
             std::size_t add)
      : codes(rows * cols), lo(rows), scale(rows), batch(rows),
        features(cols) {
    for (std::size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<std::uint8_t>((i * mul + add) & 0xFF);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      lo[i] = -0.75f + 0.2f * static_cast<float>(i);
      scale[i] = (1.0f + 0.1f * static_cast<float>(i)) / 255.0f;
    }
  }

  tensor::QuantHeader header() const { return {lo.data(), scale.data()}; }

  /// The first `rows` rows decoded as x = lo + q*scale in float math — the
  /// exact values gemm_quantized feeds its GEMM.
  Tensor dequantized(std::size_t rows) const {
    Tensor x({rows, features});
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < features; ++j) {
        x.at(i, j) = lo[i] + static_cast<float>(codes[i * features + j]) *
                                 scale[i];
      }
    }
    return x;
  }
};

TEST(InferPlanTest, CompileDropsIdentityAndFusesActivations) {
  common::Pcg32 rng(41);
  nn::Sequential model;
  model.emplace<nn::GaussianNoise>(0.1f, common::Pcg32(1));
  model.emplace<nn::Dense>(16, 32, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(32, 24, rng);
  model.emplace<nn::LeakyReLU>(0.05f);
  model.emplace<nn::Dense>(24, 8, rng);
  model.emplace<nn::Sigmoid>();

  const auto plan = InferPlan::compile(model, &tensor::blocked_backend());
  // Noise dropped, each Dense+activation pair fused: 7 layers -> 3 ops.
  ASSERT_EQ(plan->size(), 3u);
  EXPECT_EQ(&plan->backend(), &tensor::blocked_backend());
  const tensor::EpilogueAct acts[] = {tensor::EpilogueAct::kReLU,
                                      tensor::EpilogueAct::kLeakyReLU,
                                      tensor::EpilogueAct::kSigmoid};
  for (std::size_t i = 0; i < 3; ++i) {
    const nn::PlanOp& op = plan->ops()[i];
    EXPECT_TRUE(op.fused) << "op " << i;
    EXPECT_EQ(op.act, acts[i]) << "op " << i;
    ASSERT_NE(op.dense, nullptr) << "op " << i;
    EXPECT_EQ(op.conv, nullptr) << "op " << i;
    // Panels packed at compile, pinned to the compile backend.
    ASSERT_NE(op.packed, nullptr) << "op " << i;
    EXPECT_EQ(op.packed->owner, &tensor::blocked_backend()) << "op " << i;
    EXPECT_EQ(op.packed_version, op.dense->weight_version()) << "op " << i;
  }
  EXPECT_EQ(plan->ops()[1].leaky_alpha, 0.05f);
  EXPECT_FALSE(plan->weights_stale());
}

TEST(InferPlanTest, MatchesSequentialBitwiseOnAllBackendsAndOddShapes) {
  // The odd-shaped chain walks every fringe tile path; the 128 -> 456 -> 784
  // paper decoder at batch 32/64 fills whole simd register tiles, under
  // every hidden activation the epilogue can fuse.
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    std::vector<std::unique_ptr<nn::Sequential>> models;
    models.push_back(make_odd_dense_model(97));
    models.push_back(make_paper_decoder(401, std::make_unique<nn::ReLU>()));
    models.push_back(
        make_paper_decoder(401, std::make_unique<nn::LeakyReLU>(0.05f)));
    models.push_back(make_paper_decoder(401, std::make_unique<nn::Tanh>()));
    models.push_back(make_paper_decoder(401, std::make_unique<nn::Sigmoid>()));
    for (const auto& model : models) {
      const auto plan = InferPlan::compile(*model, backend);
      const std::size_t in =
          dynamic_cast<const nn::Dense&>(model->layer(0)).in_features();
      const std::string what = backend->name() + " " + model->layer(1).name() +
                               " in=" + std::to_string(in);
      InferContext plan_ctx;
      Tensor got;
      common::Pcg32 rng(5);
      for (const std::size_t batch : {1u, 3u, 7u, 11u, 7u, 32u, 64u}) {
        const Tensor x = Tensor::randn({batch, in}, rng);
        plan->run(x, got, plan_ctx);
        expect_bitwise_equal(got, model->forward(x, false), what.c_str());
      }
    }
  }
}

TEST(InferPlanTest, ConvChainMatchesSequentialBitwiseOnAllBackends) {
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    common::Pcg32 rng(57);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
    model.emplace<nn::ReLU>();
    model.emplace<nn::MaxPool2d>(4, 8, 8, 2, 2);
    model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 4, 4, rng);
    model.emplace<nn::Sigmoid>();
    const auto plan = InferPlan::compile(model, backend);
    // Conv2d op carries panels; pool / transpose run the generic entries.
    ASSERT_EQ(plan->size(), 3u);
    EXPECT_NE(plan->ops()[0].conv, nullptr);
    EXPECT_NE(plan->ops()[0].packed, nullptr);

    InferContext plan_ctx;
    Tensor got;
    for (const std::size_t batch : {1u, 3u, 5u}) {
      const Tensor x = Tensor::randn({batch, 64}, rng);
      plan->run(x, got, plan_ctx);
      expect_bitwise_equal(got, model.forward(x, false), "conv plan");
    }
  }
}

TEST(InferPlanTest, RunUnderForeignBackendScopeStaysBitwiseCorrect) {
  // Panels are pinned to the compile backend; a BackendScope override at
  // run time must fall back to the unpacked kernels and still match the
  // forward result under that same scope bitwise — for the int8 head too,
  // which then dequantizes and runs the float ops. simd panels are the
  // discriminating case: simd rounds differently from reference, so
  // running them under the reference scope would show.
  const auto model = make_odd_dense_model(131);
  const QuantBatch q(5, 13, 59, 23);
  common::Pcg32 rng(9);
  const Tensor x = Tensor::randn({5, 13}, rng);
  for (const tensor::Backend* compile_backend :
       {&tensor::blocked_backend(), &tensor::simd_backend()}) {
    const auto plan = InferPlan::compile(*model, compile_backend);
    tensor::BackendScope scope(&tensor::reference_backend());
    InferContext plan_ctx;
    Tensor got;
    plan->run(x, got, plan_ctx);
    expect_bitwise_equal(got, model->forward(x, false), "foreign-scope plan");

    plan->run_quantized(q.codes.data(), q.header(), q.batch, q.features, got,
                        plan_ctx);
    expect_bitwise_equal(got, model->forward(q.dequantized(5), false),
                         "foreign-scope quantized plan");
  }
}

TEST(InferPlanTest, QuantizedHeadMatchesSequentialBitwiseOnAllBackends) {
  const QuantBatch q(6, 13, 73, 19);
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    const auto model = make_odd_dense_model(211);
    const auto plan = InferPlan::compile(*model, backend);

    InferContext plan_ctx;
    Tensor got;
    plan->run_quantized(q.codes.data(), q.header(), q.batch, q.features, got,
                        plan_ctx);
    expect_bitwise_equal(got, model->forward(q.dequantized(6), false),
                         "quantized head");

    // Partial batch through the same context.
    plan->run_quantized(q.codes.data(), q.header(), 2, q.features, got,
                        plan_ctx);
    expect_bitwise_equal(got, model->forward(q.dequantized(2), false),
                         "quantized head partial batch");
  }
}

TEST(InferPlanTest, QuantizedNonDenseHeadDequantizesAndMatchesSequential) {
  // A conv-headed chain has no Dense to feed codes into: the plan
  // dequantizes into a context buffer and runs the float ops.
  const QuantBatch q(3, 16, 41, 7);
  for (const tensor::Backend* backend : all_backends()) {
    tensor::BackendScope scope(backend);
    common::Pcg32 rng(77);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 2, 3, 1, 1, 4, 4, rng);
    model.emplace<nn::ReLU>();
    const auto plan = InferPlan::compile(model);

    InferContext plan_ctx;
    Tensor got;
    plan->run_quantized(q.codes.data(), q.header(), q.batch, q.features, got,
                        plan_ctx);
    expect_bitwise_equal(got, model.forward(q.dequantized(3), false),
                         "conv-head quantized");
  }
}

TEST(InferPlanTest, AllIdentityChainCompilesToEmptyPlanAndCopies) {
  nn::Sequential model;
  model.emplace<nn::GaussianNoise>(0.2f, common::Pcg32(3));
  model.emplace<nn::GaussianNoise>(0.3f, common::Pcg32(4));
  const auto plan = InferPlan::compile(model);
  EXPECT_EQ(plan->size(), 0u);
  EXPECT_EQ(plan->scratch_floats(), 0u);
  EXPECT_FALSE(plan->weights_stale());

  common::Pcg32 rng(15);
  const Tensor x = Tensor::randn({4, 9}, rng);
  InferContext plan_ctx;
  Tensor got;
  plan->run(x, got, plan_ctx);
  expect_bitwise_equal(got, model.forward(x, false), "identity chain");

  // Quantized entry through an empty plan is pure dequantization.
  const QuantBatch q(2, 9, 31, 128);
  plan->run_quantized(q.codes.data(), q.header(), 2, 9, got, plan_ctx);
  expect_bitwise_equal(got, q.dequantized(2), "identity chain quantized");
}

TEST(InferPlanTest, NestedChainCompilesAndRunsBitwiseEqualToFlat) {
  // Same seed -> identical weights; the nested container must flatten into
  // the same plan (op count included) and the same bits as the flat chain.
  const auto flat = make_odd_dense_model(303);

  common::Pcg32 rng(303);
  auto outer = std::make_unique<nn::Sequential>();
  auto inner = std::make_unique<nn::Sequential>();
  outer->emplace<nn::Dense>(13, 37, rng);
  outer->emplace<nn::ReLU>();
  inner->emplace<nn::Dense>(37, 29, rng);
  inner->emplace<nn::LeakyReLU>(0.07f);
  inner->emplace<nn::Dense>(29, 23, rng);
  inner->emplace<nn::Tanh>();
  outer->add(std::move(inner));
  outer->emplace<nn::Dense>(23, 31, rng);
  outer->emplace<nn::Sigmoid>();

  const auto flat_plan = InferPlan::compile(*flat);
  const auto nested_plan = InferPlan::compile(*outer);
  ASSERT_EQ(nested_plan->size(), flat_plan->size());

  InferContext flat_ctx, nested_ctx;
  Tensor flat_out, nested_out;
  common::Pcg32 data_rng(31);
  for (const std::size_t batch : {1u, 6u}) {
    const Tensor x = Tensor::randn({batch, 13}, data_rng);
    flat_plan->run(x, flat_out, flat_ctx);
    nested_plan->run(x, nested_out, nested_ctx);
    expect_bitwise_equal(nested_out, flat_out, "nested plan vs flat plan");
    expect_bitwise_equal(nested_out, outer->forward(x, false),
                         "nested plan vs forward");

    // The container's compile-on-demand infer_into agrees too.
    Tensor seq_out;
    outer->infer_into(x, seq_out, nested_ctx);
    expect_bitwise_equal(seq_out, flat_out, "nested infer_into vs flat plan");
  }
}

TEST(InferPlanTest, WeightsStaleFlipsAfterMutationAndRecompileClears) {
  common::Pcg32 rng(59);
  nn::Sequential model;
  auto& dense = model.emplace<nn::Dense>(8, 12, rng);
  model.emplace<nn::ReLU>();
  const Tensor x = Tensor::randn({2, 8}, rng);

  const auto plan = InferPlan::compile(model);
  EXPECT_FALSE(plan->weights_stale());
  // A training step / checkpoint load bumps the weight version this way.
  model.invalidate_weight_cache();
  EXPECT_TRUE(plan->weights_stale());

  const auto fresh = InferPlan::compile(model);
  EXPECT_FALSE(fresh->weights_stale());
  // The stale plan still executes (reading its captured panels) — it must
  // not crash.
  InferContext ctx;
  Tensor stale_out, fresh_out;
  plan->run(x, stale_out, ctx);

  // Editing the weight through the mutable accessor flips staleness too,
  // and only a recompiled plan sees the new values.
  dense.weight().fill(0.25f);
  EXPECT_TRUE(fresh->weights_stale());
  const auto recompiled = InferPlan::compile(model);
  EXPECT_FALSE(recompiled->weights_stale());
  recompiled->run(x, fresh_out, ctx);
  expect_bitwise_equal(fresh_out, model.forward(x, false),
                       "recompiled after mutation");
  plan->run(x, stale_out, ctx);
  bool differs = false;
  for (std::size_t i = 0; i < fresh_out.numel(); ++i) {
    differs = differs || fresh_out[i] != stale_out[i];
  }
  EXPECT_TRUE(differs) << "the stale plan must still read its old panels";
}

TEST(InferPlanTest, ScratchFloatsCoversArenaHighWaterExactly) {
  // The conv chain is the scratch-hungry case: the im2col column matrix is
  // the arena high-water, precomputed at compile so the first run() reserves
  // once and the arena never opens a second block.
  tensor::BackendScope scope(&tensor::blocked_backend());
  common::Pcg32 rng(67);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::ConvTranspose2d>(4, 1, 2, 2, 0, 8, 8, rng);
  const auto plan = InferPlan::compile(model);
  EXPECT_GT(plan->scratch_floats(), 0u);

  InferContext ctx;
  Tensor out;
  const Tensor x = Tensor::randn({4, 64}, rng);
  plan->run(x, out, ctx);
  EXPECT_LE(ctx.scratch().high_water(), plan->scratch_floats());
  EXPECT_EQ(ctx.scratch().block_count(), 1u);  // one reserve, no growth
  const std::size_t cap = ctx.scratch().capacity();
  for (int i = 0; i < 4; ++i) plan->run(x, out, ctx);
  EXPECT_EQ(ctx.scratch().capacity(), cap);
  EXPECT_EQ(ctx.scratch().block_count(), 1u);
}

TEST(InferPlanTest, MultiOpPlanRejectsContextBufferOutput) {
  // Two ping-pong buffers cannot hold the input chain AND an aliased output
  // of a multi-op plan; the executor refuses loudly instead of silently
  // allocating (the retired Sequential escape hatch).
  common::Pcg32 rng(83);
  nn::Sequential model;
  model.emplace<nn::Dense>(8, 16, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(16, 8, rng);
  const auto plan = InferPlan::compile(model);
  ASSERT_GE(plan->size(), 2u);

  InferContext ctx;
  const Tensor x = Tensor::randn({2, 8}, rng);
  EXPECT_THROW(plan->run(x, ctx.buffer(1), ctx), std::invalid_argument);
}

}  // namespace
}  // namespace orco

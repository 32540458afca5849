// The perfbench workloads, the per-layer probes of a traced run, and
// the model templates they share. Every input is generated from the run
// seed; the program only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/system.h"
#include "fleet/fleet.h"
#include "harness.h"
#include "tensor/backend.h"

namespace perfbench {

/// MNIST-like tenant (784 -> 128 latent, 3-layer decoder) used by the serve
/// workloads, the train workload and the nn/tensor/core probes.
orco::core::SystemConfig mnist_tenant_config(std::uint64_t model_seed);

/// The small fleet tenant (64 -> 16, 1-layer decoder): a large registered
/// population whose cold tier and standby images stay in memory budget.
orco::core::SystemConfig fleet_tenant_config();

/// Seed of tenant `t`'s model in a run with `seed` (distinct weights per
/// tenant and per seed).
std::uint64_t tenant_model_seed(std::uint64_t seed, std::uint64_t t);

/// train_online's system and its seeded batches of 64 (shared with the
/// core probes, which replay them on twin systems).
orco::core::SystemConfig train_system_config(std::uint64_t seed);
std::vector<orco::tensor::Tensor> make_train_batches(std::uint64_t seed);

/// fleet_churn's fleet: 2 cells of 1 shard, the fleet tenant template, no
/// trainer, per-tenant telemetry off, no coalescing wait.
orco::fleet::FleetConfig fleet_churn_config(const std::string& cold_dir,
                                            std::size_t warm_capacity);

void run_serve_open(const RunConfig& cfg, Result& result);
void run_serve_closed(const RunConfig& cfg, Result& result);
void run_train_online(const RunConfig& cfg, Result& result);

/// Bitwise equality of two decoded outputs (the parity oracle of the
/// output checks).
inline bool bitwise_equal(const orco::tensor::Tensor& a,
                          const orco::tensor::Tensor& b) {
  return a.numel() == b.numel() && a.numel() > 0 &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

/// Runs GEMMs inline on the calling thread for the scope's lifetime, the
/// way the program's own online trainer (train::TrainerRuntime) runs its
/// training rounds, instead of fanning them out to the shared pool.
class InlineGemmScope {
 public:
  InlineGemmScope() : previous_(orco::tensor::thread_gemm_parallelism()) {
    orco::tensor::set_thread_gemm_parallelism(false);
  }
  ~InlineGemmScope() { orco::tensor::set_thread_gemm_parallelism(previous_); }
  InlineGemmScope(const InlineGemmScope&) = delete;
  InlineGemmScope& operator=(const InlineGemmScope&) = delete;

 private:
  bool previous_;
};

/// A short fleet_churn pass (fleet_workload.cpp) for traced runs: the fleet
/// layer counters, its cold-wake figures and the fleet output checks.
void run_fleet_churn_probe(const RunConfig& cfg, Result& result);

/// The per-layer probes of a traced run: times calls into the public
/// functions of nn, tensor, core, wsn, train and fleet on private objects
/// built from the run seed, independent of the workload's own traffic.
void run_layer_probes(const RunConfig& cfg, Result& result);

}  // namespace perfbench

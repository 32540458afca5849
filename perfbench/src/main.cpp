// orco_perfbench — runs one perfbench workload and prints its result as one
// JSON line (see harness.h for the run shape; run.py builds and runs it).
//
//   orco_perfbench --workload serve_open --seed 1 --seconds 10 --trace 0
//                  --work-dir <scratch dir> [--trace-out trace.json]
//
// Exit status: 0 with a result line (the result says whether every output
// check passed), 2 on bad arguments, 3 when the workload threw.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/config.h"
#include "tensor/backend.h"
#include "workloads.h"

namespace perfbench {

orco::core::SystemConfig mnist_tenant_config(std::uint64_t model_seed) {
  orco::core::SystemConfig cfg;
  cfg.orco.input_dim = 784;
  cfg.orco.latent_dim = 128;
  cfg.orco.decoder_layers = 3;
  cfg.orco.batch_size = 64;
  cfg.orco.noise_variance = 0.01f;
  cfg.orco.seed = model_seed;
  cfg.orco.backend = kBackend;
  cfg.field.device_count = 24;
  cfg.field.radio_range_m = 45.0;
  return cfg;
}

orco::core::SystemConfig fleet_tenant_config() {
  orco::core::SystemConfig cfg;
  cfg.orco.input_dim = 64;
  cfg.orco.latent_dim = 16;
  cfg.orco.decoder_layers = 1;
  cfg.orco.batch_size = 16;
  cfg.orco.seed = 4242;  // the fleet re-mixes it with each tenant id
  cfg.orco.backend = kBackend;
  cfg.field.device_count = 4;
  cfg.field.radio_range_m = 60.0;
  return cfg;
}

std::uint64_t tenant_model_seed(std::uint64_t seed, std::uint64_t t) {
  return seed * 1000003ULL + t * 7919ULL + 1;
}

namespace {

/// Layers a workload may leave idle: their counters are reported as 0 on
/// workloads that never call into them (the probes cover the rest).
struct IdleMetric {
  const char* name;
  const char* unit;
};
constexpr IdleMetric kWorkloadCounters[] = {
    {"serve.submit_us", "us"},        {"serve.queue_wait_us", "us"},
    {"serve.assembly_us", "us"},      {"serve.decode_us", "us"},
    {"serve.respond_us", "us"},       {"serve.e2e_mean_us", "us"},
    {"serve.unaccounted_us", "us"},   {"serve.unaccounted_share", "ratio"},
    {"serve.batch_mean", "count"},    {"serve.shed", "count"},
    {"bench.generator_lag_p99_us", "us"},
};

int usage(const char* why) {
  std::cerr << "orco_perfbench: " << why
            << "\nusage: orco_perfbench --workload <serve_open|serve_closed|"
               "train_online> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  void (*workload)(const RunConfig&, Result&) = nullptr;
  if (cfg.workload == "serve_open") workload = &run_serve_open;
  if (cfg.workload == "serve_closed") workload = &run_serve_closed;
  if (cfg.workload == "train_online") workload = &run_train_online;
  if (workload == nullptr) return usage("unknown workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  if (cfg.work_dir.empty()) return usage("--work-dir is required");

  // Observability defaults (metrics on, tracing off) and one kernel backend
  // for everything the process computes.
  orco::obs::configure(orco::obs::ObsConfig{});
  orco::tensor::set_backend(kBackend);
  std::filesystem::create_directories(cfg.work_dir);
  // Write back what earlier processes left dirty (fleet_churn writes and
  // deletes thousands of files) before this run's set-up is timed.
  flush_filesystem(cfg.work_dir);

  Spans spans;
  if (cfg.trace) cfg.spans = &spans;
  Result result;
  try {
    workload(cfg, result);
    if (cfg.trace) {
      run_layer_probes(cfg, result);
      for (const IdleMetric& m : kWorkloadCounters) {
        if (!result.has_layer(m.name)) result.layer(m.name, 0.0, m.unit);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "orco_perfbench: " << cfg.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }
  if (cfg.trace && !trace_out.empty() && !spans.write_chrome_trace(trace_out)) {
    result.check("trace_written", false, trace_out);
  }
  std::cout << result.to_json(cfg) << std::endl;
  return 0;
}

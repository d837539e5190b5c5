#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/score.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "runtime/scenario_runner.h"
#include "workload/scenario.h"

namespace xrbench::core {

/// Harness-level options (the user-defined benchmark inputs of Figure 2).
/// Policies are named, not enumerated: the strings resolve through
/// runtime::PolicyRegistry at run time, so user-registered policies are
/// first-class harness inputs and unknown names fail with the registered
/// list in the error.
struct HarnessOptions {
  runtime::RunConfig run;  ///< duration, seed, jitter
  ScoreConfig score;
  std::string scheduler = "latency-greedy";
  /// DVFS policy consulted at dispatch time. "fixed-nominal" reproduces the
  /// pre-DVFS behavior exactly (every inference runs at the nominal clock).
  std::string governor = "fixed-nominal";
  /// Per-sub-accelerator governor overrides, (sub-accel index, governor
  /// name): sub-accelerator i runs under its override when present, under
  /// `governor` otherwise (heterogeneous governor mixes).
  std::vector<std::pair<std::size_t, std::string>> governor_overrides;
  /// Admission-control policy consulted once per request at its arrival
  /// instant. "admit-all" reproduces pre-admission behavior byte-exactly;
  /// "drop-early" rejects requests whose telemetry-projected completion
  /// already misses the deadline (graceful degradation under faults).
  std::string admission = "admit-all";
  /// Trials averaged for dynamic (stochastic) scenarios; static scenarios
  /// always run once. Paper runs 200 trials for the Figure-7 sweep.
  int dynamic_trials = 20;
  costmodel::EnergyParams energy;  ///< Cost-model energy constants.
};

/// Throws std::invalid_argument when a governor_overrides entry names a
/// sub-accelerator index the system does not have — an out-of-range
/// override would otherwise be silently inert (the dispatcher only ever
/// queries real hardware indices). Harness validates at construction;
/// SweepEngine validates per point.
void validate_governor_overrides(const HarnessOptions& options,
                                 const hw::AcceleratorSystem& system);

/// Outcome of benchmarking one scenario on one accelerator system.
struct ScenarioOutcome {
  ScenarioScore score;              ///< Averaged over trials if dynamic.
  runtime::ScenarioRunResult last_run;  ///< Raw result of the final trial.
  int trials = 1;
};

/// Outcome of the full suite (all Table-2 scenarios).
struct BenchmarkOutcome {
  std::string accelerator_id;
  std::int64_t total_pes = 0;
  BenchmarkScore score;
  std::vector<ScenarioOutcome> scenarios;
};

/// XRBench harness facade (Figure 2): wires the model zoo, the analytical
/// cost model, the accelerator system, the runtime and the scoring module
/// together behind two calls — run_scenario() and run_suite().
///
/// Typical use:
///   auto system = hw::make_accelerator('J', 8192);
///   core::Harness harness(system);
///   auto outcome = harness.run_suite();
///   std::cout << outcome.score.overall;
class Harness {
 public:
  explicit Harness(hw::AcceleratorSystem system, HarnessOptions options = {});

  const hw::AcceleratorSystem& system() const { return system_; }
  const HarnessOptions& options() const { return options_; }
  const runtime::CostTable& cost_table() const { return *cost_table_; }

  /// One raw run of `scenario` with an explicit seed (no score averaging).
  /// A non-null `scratch` reuses that arena across runs (bit-identical
  /// results; trial loops pass one so the big per-trial allocations —
  /// event heap, record arenas, request/timeline vectors — are
  /// reused instead of reallocated).
  runtime::ScenarioRunResult run_once(const workload::UsageScenario& scenario,
                                      std::uint64_t seed,
                                      runtime::RunScratch* scratch =
                                          nullptr) const;

  /// Benchmarks one scenario; dynamic scenarios are averaged over
  /// options.dynamic_trials trials (seeds seed, seed+1, ...).
  ScenarioOutcome run_scenario(const workload::UsageScenario& scenario) const;

  /// One raw run of a scenario program (continuous multi-phase timeline).
  /// A program naming its own scheduler/governor overrides the harness
  /// options for that run.
  runtime::ScenarioRunResult run_program_once(
      const workload::ScenarioProgram& program, std::uint64_t seed,
      runtime::RunScratch* scratch = nullptr) const;

  /// Benchmarks one program; programs with any dynamic phase are averaged
  /// over options.dynamic_trials trials, mirroring run_scenario.
  ScenarioOutcome run_program(const workload::ScenarioProgram& program) const;

  /// Benchmarks every Table-2 scenario and combines them into the
  /// XRBench score (Definition 16).
  BenchmarkOutcome run_suite() const;

 private:
  hw::AcceleratorSystem system_;
  HarnessOptions options_;
  costmodel::AnalyticalCostModel cost_model_;
  std::unique_ptr<runtime::CostTable> cost_table_;
  runtime::ScenarioRunner runner_;
};

}  // namespace xrbench::core

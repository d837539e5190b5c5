#include "core/harness.h"

#include "runtime/policy_registry.h"

namespace xrbench::core {

void validate_governor_overrides(const HarnessOptions& options,
                                 const hw::AcceleratorSystem& system) {
  for (const auto& [sub_accel, name] : options.governor_overrides) {
    if (sub_accel >= system.sub_accels.size()) {
      throw std::invalid_argument(
          "governor_overrides: sub-accelerator index " +
          std::to_string(sub_accel) + " out of range (system '" + system.id +
          "' has " + std::to_string(system.sub_accels.size()) +
          " sub-accelerators)");
    }
  }
}

Harness::Harness(hw::AcceleratorSystem system, HarnessOptions options)
    : system_(std::move(system)),
      options_(std::move(options)),
      cost_model_(options_.energy),
      cost_table_(
          std::make_unique<runtime::CostTable>(system_, cost_model_)),
      runner_(system_, *cost_table_) {
  validate_governor_overrides(options_, system_);
  // Fail bad fault profiles at construction, not mid-sweep: begin_run
  // re-validates the resolved spec per run, but the harness owns both
  // candidate specs and can report them eagerly.
  runtime::validate_fault_spec(system_.faults);
  runtime::validate_fault_spec(options_.run.faults);
}

runtime::ScenarioRunResult Harness::run_once(
    const workload::UsageScenario& scenario, std::uint64_t seed,
    runtime::RunScratch* scratch) const {
  runtime::RunConfig cfg = options_.run;
  cfg.seed = seed;
  const auto& registry = runtime::PolicyRegistry::instance();
  auto scheduler = registry.make_scheduler(options_.scheduler);
  scheduler->reset();
  auto governor = registry.make_governor_map(options_.governor,
                                             options_.governor_overrides);
  governor->reset();
  auto admission = registry.make_admission(options_.admission);
  admission->reset();
  return runner_.run(scenario, *scheduler, cfg, governor.get(), scratch,
                     admission.get());
}

runtime::ScenarioRunResult Harness::run_program_once(
    const workload::ScenarioProgram& program, std::uint64_t seed,
    runtime::RunScratch* scratch) const {
  runtime::RunConfig cfg = options_.run;
  cfg.seed = seed;
  const auto& registry = runtime::PolicyRegistry::instance();
  auto scheduler = registry.make_scheduler(
      program.scheduler.empty() ? options_.scheduler : program.scheduler);
  scheduler->reset();
  auto governor = registry.make_governor_map(
      program.governor.empty() ? options_.governor : program.governor,
      options_.governor_overrides);
  governor->reset();
  auto admission = registry.make_admission(
      program.admission.empty() ? options_.admission : program.admission);
  admission->reset();
  return runner_.run_program(program, *scheduler, cfg, governor.get(), scratch,
                             admission.get());
}

namespace {

/// Shared trial-averaging shape of run_scenario / run_program: runs
/// `trials` raw runs with consecutive seeds and averages their scores. One
/// RunScratch spans the loop — trial t+1 reuses trial t's arenas (record
/// stores, timeline, event heap), recycled after scoring.
template <typename RunOnce>
ScenarioOutcome run_trials(int trials, std::uint64_t base_seed,
                           const ScoreConfig& score, RunOnce&& run_once) {
  std::vector<ScenarioScore> trial_scores;
  trial_scores.reserve(static_cast<std::size_t>(trials));
  runtime::RunScratch scratch;
  runtime::ScenarioRunResult last;
  for (int t = 0; t < trials; ++t) {
    auto run = run_once(base_seed + static_cast<std::uint64_t>(t), &scratch);
    trial_scores.push_back(score_scenario(run, score));
    if (t == trials - 1) {
      last = std::move(run);
    } else {
      scratch.recycle(std::move(run));
    }
  }
  ScenarioOutcome outcome;
  outcome.score = average_scores(trial_scores);
  outcome.last_run = std::move(last);
  outcome.trials = trials;
  return outcome;
}

}  // namespace

ScenarioOutcome Harness::run_scenario(
    const workload::UsageScenario& scenario) const {
  const int trials = workload::is_dynamic_scenario(scenario)
                         ? std::max(1, options_.dynamic_trials)
                         : 1;
  return run_trials(trials, options_.run.seed, options_.score,
                    [&](std::uint64_t seed, runtime::RunScratch* scratch) {
                      return run_once(scenario, seed, scratch);
                    });
}

ScenarioOutcome Harness::run_program(
    const workload::ScenarioProgram& program) const {
  const int trials = workload::is_dynamic_program(program)
                         ? std::max(1, options_.dynamic_trials)
                         : 1;
  return run_trials(trials, options_.run.seed, options_.score,
                    [&](std::uint64_t seed, runtime::RunScratch* scratch) {
                      return run_program_once(program, seed, scratch);
                    });
}

BenchmarkOutcome Harness::run_suite() const {
  BenchmarkOutcome outcome;
  outcome.accelerator_id = system_.id;
  outcome.total_pes = system_.total_pes();
  std::vector<ScenarioScore> scores;
  for (const auto& scenario : workload::benchmark_suite()) {
    auto sc = run_scenario(scenario);
    scores.push_back(sc.score);
    outcome.scenarios.push_back(std::move(sc));
  }
  outcome.score = combine_scenarios(std::move(scores));
  return outcome;
}

}  // namespace xrbench::core

#include "core/sweep.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "runtime/policy_registry.h"

namespace xrbench::core {

namespace {

/// Trials per batched task: trials / (threads * kChunksPerThread), floored
/// at 1. Small enough that every worker gets several chunks to steal (load
/// balance), large enough that a sub-millisecond trial stops paying one
/// queue round-trip per trial. Inline pools get one chunk — there is no
/// queue to amortize.
std::size_t trial_chunk(int trials, std::size_t threads) {
  constexpr std::size_t kChunksPerThread = 4;
  if (threads == 0) return static_cast<std::size_t>(std::max(1, trials));
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(trials) / (threads * kChunksPerThread));
}

bool same_energy(const costmodel::EnergyParams& a,
                 const costmodel::EnergyParams& b) {
  return a.mac_pj == b.mac_pj && a.sram_pj_per_byte == b.sram_pj_per_byte &&
         a.noc_pj_per_byte == b.noc_pj_per_byte &&
         a.dram_pj_per_byte == b.dram_pj_per_byte &&
         a.static_mw_per_pe == b.static_mw_per_pe;
}

bool same_sub_accel(const costmodel::SubAccelConfig& a,
                    const costmodel::SubAccelConfig& b) {
  // transition_ms does not enter the CostTable, but grouping stays
  // conservative: a point with a different penalty is a different design.
  if (a.dataflow != b.dataflow || a.num_pes != b.num_pes ||
      a.clock_ghz != b.clock_ghz ||
      a.noc_bytes_per_cycle != b.noc_bytes_per_cycle ||
      a.offchip_bytes_per_cycle != b.offchip_bytes_per_cycle ||
      a.sram_bytes != b.sram_bytes ||
      a.dvfs.nominal_level != b.dvfs.nominal_level ||
      a.dvfs.transition_ms != b.dvfs.transition_ms ||
      a.dvfs.idle_mw != b.dvfs.idle_mw ||
      a.dvfs.levels.size() != b.dvfs.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.dvfs.levels.size(); ++i) {
    if (a.dvfs.levels[i].freq_ghz != b.dvfs.levels[i].freq_ghz ||
        a.dvfs.levels[i].voltage_v != b.dvfs.levels[i].voltage_v) {
      return false;
    }
  }
  return true;
}

/// True when two systems produce identical CostTables (everything the cost
/// model reads matches; ids/descriptions are ignored). The fault spec is
/// deliberately NOT compared: faults never enter the CostTable, and every
/// trial reads the fault profile from its own point's system, so points
/// that differ only in [faults] still share one table build.
bool same_system(const hw::AcceleratorSystem& a,
                 const hw::AcceleratorSystem& b) {
  if (a.sub_accels.size() != b.sub_accels.size()) return false;
  for (std::size_t i = 0; i < a.sub_accels.size(); ++i) {
    if (!same_sub_accel(a.sub_accels[i], b.sub_accels[i])) return false;
  }
  return true;
}

int trials_for(const workload::UsageScenario& scenario,
               const HarnessOptions& options) {
  return workload::is_dynamic_scenario(scenario)
             ? std::max(1, options.dynamic_trials)
             : 1;
}

int trials_for(const workload::ScenarioProgram& program,
               const HarnessOptions& options) {
  return workload::is_dynamic_program(program)
             ? std::max(1, options.dynamic_trials)
             : 1;
}

/// Per-(point, scenario) accumulation slots; every trial job writes only
/// its own pre-sized slot, so no synchronization beyond the pool's queue is
/// needed and reduction order equals submission order.
struct ScenarioWork {
  int trials = 1;
  std::vector<ScenarioScore> trial_scores;
  runtime::ScenarioRunResult last_run;
};

/// Policy instances for one trial, resolved through the registry exactly
/// like Harness does: point options name the policies, a program's own
/// names (when set) win over the options'.
struct TrialPolicies {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::FrequencyGovernor> governor;
  std::unique_ptr<runtime::AdmissionController> admission;
};

TrialPolicies make_policies(const HarnessOptions& options,
                            const std::string& scheduler_override,
                            const std::string& governor_override,
                            const std::string& admission_override) {
  const auto& registry = runtime::PolicyRegistry::instance();
  TrialPolicies p;
  p.scheduler = registry.make_scheduler(
      scheduler_override.empty() ? options.scheduler : scheduler_override);
  p.scheduler->reset();
  p.governor = registry.make_governor_map(
      governor_override.empty() ? options.governor : governor_override,
      options.governor_overrides);
  p.governor->reset();
  p.admission = registry.make_admission(
      admission_override.empty() ? options.admission : admission_override);
  p.admission->reset();
  return p;
}

/// One trial: fresh scheduler, shared read-only cost table, deterministic
/// seed = base seed + trial index. Identical to Harness::run_once. The
/// worker's scratch arena (when provided) is reused across the trials that
/// land on that worker and recycled after scoring — only the kept last run
/// escapes the pool.
void run_trial(const hw::AcceleratorSystem& system,
               const runtime::CostTable& table,
               const workload::UsageScenario& scenario,
               const HarnessOptions& options, int trial, ScenarioWork& work,
               runtime::RunScratch* scratch) {
  runtime::RunConfig cfg = options.run;
  cfg.seed += static_cast<std::uint64_t>(trial);
  auto policies = make_policies(options, "", "", "");
  const runtime::ScenarioRunner runner(system, table);
  auto run = runner.run(scenario, *policies.scheduler, cfg,
                        policies.governor.get(), scratch,
                        policies.admission.get());
  work.trial_scores[static_cast<std::size_t>(trial)] =
      score_scenario(run, options.score);
  if (trial == work.trials - 1) {
    work.last_run = std::move(run);
  } else if (scratch != nullptr) {
    scratch->recycle(std::move(run));
  }
}

/// One program trial — the run_program analogue, identical to
/// Harness::run_program_once at seed base + trial.
void run_program_trial(const hw::AcceleratorSystem& system,
                       const runtime::CostTable& table,
                       const workload::ScenarioProgram& program,
                       const HarnessOptions& options, int trial,
                       ScenarioWork& work, runtime::RunScratch* scratch) {
  runtime::RunConfig cfg = options.run;
  cfg.seed += static_cast<std::uint64_t>(trial);
  auto policies = make_policies(options, program.scheduler, program.governor,
                                program.admission);
  const runtime::ScenarioRunner runner(system, table);
  auto run = runner.run_program(program, *policies.scheduler, cfg,
                                policies.governor.get(), scratch,
                                policies.admission.get());
  work.trial_scores[static_cast<std::size_t>(trial)] =
      score_scenario(run, options.score);
  if (trial == work.trials - 1) {
    work.last_run = std::move(run);
  } else if (scratch != nullptr) {
    scratch->recycle(std::move(run));
  }
}

ScenarioOutcome assemble(ScenarioWork&& work) {
  ScenarioOutcome outcome;
  outcome.score = average_scores(work.trial_scores);
  outcome.last_run = std::move(work.last_run);
  outcome.trials = work.trials;
  return outcome;
}

/// Shared body of run_scenario_points / run_program_points: group points
/// that share a (system, energy) pair behind one CostTable build, chunk
/// each point's trials into batch tasks, reduce in submission order.
/// `run_one(p, table, trial, work)` runs one trial of point `p`.
template <typename Point, typename TrialsFn, typename RunFn>
std::vector<ScenarioOutcome> run_grouped_points(
    util::ThreadPool& pool,
    const std::function<costmodel::AnalyticalCostModel&(
        const costmodel::EnergyParams&)>& model_for,
    const std::vector<Point>& points, TrialsFn trials_of, RunFn run_one) {
  std::vector<ScenarioWork> work(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    validate_governor_overrides(points[p].options, points[p].system);
    auto& sw = work[p];
    sw.trials = trials_of(points[p]);
    sw.trial_scores.resize(static_cast<std::size_t>(sw.trials));
  }

  // Points that share an accelerator system and energy constants share one
  // CostTable build (governor/scenario sweeps like bench_ablation_dvfs vary
  // only the policy across many points of a single design).
  struct TableGroup {
    std::unique_ptr<runtime::CostTable> table;
    std::vector<std::size_t> members;  ///< Point indices, ascending.
  };
  std::vector<TableGroup> groups;
  for (std::size_t p = 0; p < points.size(); ++p) {
    TableGroup* home = nullptr;
    for (auto& g : groups) {
      const std::size_t rep = g.members.front();
      if (same_system(points[rep].system, points[p].system) &&
          same_energy(points[rep].options.energy, points[p].options.energy)) {
        home = &g;
        break;
      }
    }
    if (home == nullptr) {
      groups.emplace_back();
      home = &groups.back();
    }
    home->members.push_back(p);
  }

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    pool.submit([&pool, &model_for, &points, &work, &groups, &run_one, gi] {
      TableGroup& group = groups[gi];
      const std::size_t rep = group.members.front();
      group.table = std::make_unique<runtime::CostTable>(
          points[rep].system, model_for(points[rep].options.energy));
      std::vector<util::Task> batch;
      for (std::size_t p : group.members) {
        const int trials = work[p].trials;
        const auto chunk =
            static_cast<int>(trial_chunk(trials, pool.num_threads()));
        for (int t0 = 0; t0 < trials; t0 += chunk) {
          const int t1 = std::min(trials, t0 + chunk);
          batch.push_back([&work, &groups, &run_one, gi, p, t0, t1] {
            for (int t = t0; t < t1; ++t) {
              run_one(p, *groups[gi].table, t, work[p]);
            }
          });
        }
      }
      pool.submit_batch(std::move(batch));
    });
  }
  pool.wait_idle();

  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(points.size());
  for (auto& sw : work) outcomes.push_back(assemble(std::move(sw)));
  return outcomes;
}

}  // namespace

SweepEngine::SweepEngine(std::size_t num_threads)
    : pool_(num_threads), scratch_(pool_.num_threads() + 1) {}

runtime::RunScratch* SweepEngine::worker_scratch() {
  const std::size_t slot = util::ThreadPool::current_worker_slot();
  return slot < scratch_.size() ? &scratch_[slot] : nullptr;
}

SweepEngine::~SweepEngine() = default;

costmodel::AnalyticalCostModel& SweepEngine::model_for(
    const costmodel::EnergyParams& energy) {
  std::unique_lock lock(models_mutex_);
  for (auto& [params, model] : models_) {
    if (same_energy(params, energy)) return *model;
  }
  models_.emplace_back(
      energy, std::make_unique<costmodel::AnalyticalCostModel>(energy));
  return *models_.back().second;
}

std::vector<BenchmarkOutcome> SweepEngine::run_suite_points(
    const std::vector<SweepPoint>& points) {
  // Touch lazily-initialized registries on this thread first; worker
  // threads then only read them.
  const auto& suite = workload::benchmark_suite();

  struct PointWork {
    std::unique_ptr<runtime::CostTable> table;
    std::vector<ScenarioWork> scenarios;
  };
  std::vector<PointWork> work(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    validate_governor_overrides(points[p].options, points[p].system);
    work[p].scenarios.resize(suite.size());
    for (std::size_t s = 0; s < suite.size(); ++s) {
      auto& sw = work[p].scenarios[s];
      sw.trials = trials_for(suite[s], points[p].options);
      sw.trial_scores.resize(static_cast<std::size_t>(sw.trials));
    }
  }

  for (std::size_t p = 0; p < points.size(); ++p) {
    // One table-build job per point; it fans the point's trial jobs out as
    // soon as its cost table exists, so table builds and trials overlap
    // across points. Trials are chunked into batch tasks (see trial_chunk)
    // and enqueued with a single submit_batch — each trial still writes its
    // own submission-order slot, so chunking never changes a result.
    pool_.submit([this, &points, &work, &suite, p] {
      const SweepPoint& point = points[p];
      auto& pw = work[p];
      pw.table = std::make_unique<runtime::CostTable>(
          point.system, model_for(point.options.energy));
      std::vector<util::Task> batch;
      for (std::size_t s = 0; s < suite.size(); ++s) {
        const int trials = pw.scenarios[s].trials;
        const auto chunk =
            static_cast<int>(trial_chunk(trials, pool_.num_threads()));
        for (int t0 = 0; t0 < trials; t0 += chunk) {
          const int t1 = std::min(trials, t0 + chunk);
          batch.push_back([this, &points, &work, &suite, p, s, t0, t1] {
            for (int t = t0; t < t1; ++t) {
              run_trial(points[p].system, *work[p].table, suite[s],
                        points[p].options, t, work[p].scenarios[s],
                        worker_scratch());
            }
          });
        }
      }
      pool_.submit_batch(std::move(batch));
    });
  }
  pool_.wait_idle();

  std::vector<BenchmarkOutcome> outcomes;
  outcomes.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    BenchmarkOutcome out;
    out.accelerator_id = points[p].system.id;
    out.total_pes = points[p].system.total_pes();
    std::vector<ScenarioScore> scores;
    scores.reserve(suite.size());
    for (auto& sw : work[p].scenarios) {
      auto outcome = assemble(std::move(sw));
      scores.push_back(outcome.score);
      out.scenarios.push_back(std::move(outcome));
    }
    out.score = combine_scenarios(std::move(scores));
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

std::vector<ScenarioOutcome> SweepEngine::run_scenario_points(
    const std::vector<ScenarioSweepPoint>& points) {
  const std::function<costmodel::AnalyticalCostModel&(
      const costmodel::EnergyParams&)>
      model = [this](const costmodel::EnergyParams& e)
      -> costmodel::AnalyticalCostModel& { return model_for(e); };
  return run_grouped_points(
      pool_, model, points,
      [](const ScenarioSweepPoint& p) {
        return trials_for(p.scenario, p.options);
      },
      [this, &points](std::size_t p, const runtime::CostTable& table, int t,
                      ScenarioWork& w) {
        run_trial(points[p].system, table, points[p].scenario,
                  points[p].options, t, w, worker_scratch());
      });
}

std::vector<ScenarioOutcome> SweepEngine::run_program_points(
    const std::vector<ProgramSweepPoint>& points) {
  // Touch the lazily-initialized registries on this thread first; worker
  // threads then only read them (the scenario registries are reached
  // through program phases, the policy registry through trial policies).
  workload::extension_programs();
  runtime::PolicyRegistry::instance();
  const std::function<costmodel::AnalyticalCostModel&(
      const costmodel::EnergyParams&)>
      model = [this](const costmodel::EnergyParams& e)
      -> costmodel::AnalyticalCostModel& { return model_for(e); };
  return run_grouped_points(
      pool_, model, points,
      [](const ProgramSweepPoint& p) {
        return trials_for(p.program, p.options);
      },
      [this, &points](std::size_t p, const runtime::CostTable& table, int t,
                      ScenarioWork& w) {
        run_program_trial(points[p].system, table, points[p].program,
                          points[p].options, t, w, worker_scratch());
      });
}

std::vector<std::unique_ptr<runtime::CostTable>> SweepEngine::build_cost_tables(
    const std::vector<hw::AcceleratorSystem>& systems,
    const costmodel::AnalyticalCostModel& cost_model) {
  std::vector<std::unique_ptr<runtime::CostTable>> tables(systems.size());
  std::vector<util::Task> batch;
  batch.reserve(systems.size());
  for (std::size_t i = 0; i < systems.size(); ++i) {
    batch.push_back([&systems, &cost_model, &tables, i] {
      tables[i] =
          std::make_unique<runtime::CostTable>(systems[i], cost_model);
    });
  }
  pool_.submit_batch(std::move(batch));
  pool_.wait_idle();
  return tables;
}

costmodel::MemoStats SweepEngine::model_memo_stats() const {
  costmodel::MemoStats total;
  std::unique_lock lock(models_mutex_);
  for (const auto& [params, model] : models_) {
    const auto s = model->model_memo_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.inserts += s.inserts;
    total.entries += s.entries;
    if (total.shard_entries.size() < s.shard_entries.size()) {
      total.shard_entries.resize(s.shard_entries.size(), 0);
    }
    for (std::size_t i = 0; i < s.shard_entries.size(); ++i) {
      total.shard_entries[i] += s.shard_entries[i];
    }
  }
  return total;
}

}  // namespace xrbench::core

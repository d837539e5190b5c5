#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "alloc_counter.h"
#include "core/aggregate.h"
#include "core/sweep.h"
#include "fleet/fleet_io.h"
#include "fleet/fleet_simulator.h"
#include "fleet/fleet_workload.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/policy_registry.h"
#include "workload/scenario.h"

namespace perfbench {

using namespace xrbench;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Policies {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::FrequencyGovernor> governor;
  std::unique_ptr<runtime::AdmissionController> admission;
};

const workload::ScenarioProgram kNoProgram{};

/// Policy instances for one trial, resolved through the registry the way
/// the harness does: a program's own names (when set) win over the options'.
Policies make_policies(const core::HarnessOptions& options,
                       const workload::ScenarioProgram& program = kNoProgram) {
  auto pick = [](const std::string& own, const std::string& fallback) {
    return own.empty() ? fallback : own;
  };
  const auto& registry = runtime::PolicyRegistry::instance();
  Policies p;
  p.scheduler =
      registry.make_scheduler(pick(program.scheduler, options.scheduler));
  p.scheduler->reset();
  p.governor = registry.make_governor_map(
      pick(program.governor, options.governor), options.governor_overrides);
  p.governor->reset();
  p.admission =
      registry.make_admission(pick(program.admission, options.admission));
  p.admission->reset();
  return p;
}

double memo_hit_ratio(const costmodel::MemoStats& before,
                      const costmodel::MemoStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
}

double memo_lookups(const costmodel::MemoStats& before,
                    const costmodel::MemoStats& after) {
  return static_cast<double>((after.hits + after.misses) -
                             (before.hits + before.misses));
}

/// Times CostTable construction for every system on one fresh cost model
/// (cold: every model evaluation misses the memo) and then again on the
/// same, now warm, model.
void probe_builds(const std::vector<const hw::AcceleratorSystem*>& systems,
                  const costmodel::EnergyParams& energy, Samples& out) {
  costmodel::AnalyticalCostModel model(energy);
  const double n = static_cast<double>(systems.size());
  auto t0 = Clock::now();
  for (const auto* s : systems) runtime::CostTable table(*s, model);
  out["costmodel.cold_build_ms_per_design"].push_back(ms_since(t0) / n);
  t0 = Clock::now();
  for (const auto* s : systems) runtime::CostTable table(*s, model);
  out["runtime.warm_build_ms_per_design"].push_back(ms_since(t0) / n);
}

// ---- suite_trials / design_space -------------------------------------------

/// A sweep of design points, each scored on the full Table-2 suite through
/// SweepEngine::run_suite_points.
class SuiteSweep : public Workload {
 public:
  enum class Op { kTrial, kDesign };

  SuiteSweep(std::vector<core::SweepPoint> (*make_points)(std::uint64_t),
             Op op)
      : make_points_(make_points), op_(op) {}

  void prepare(std::uint64_t seed) override {
    points_ = make_points_(seed);
    ops_ = 0;
    for (const auto& p : points_) {
      ops_ += op_ == Op::kDesign ? 1 : trials_of_point(p);
    }
  }

  void start_engines() override {
    w1_ = std::make_unique<core::SweepEngine>(1);
    w2_ = std::make_unique<core::SweepEngine>(2);
  }

  void run_pass(int workers) override {
    outcomes_ = (workers == 1 ? *w1_ : *w2_).run_suite_points(points_);
  }

  PassDigest take_digest() override {
    const PassDigest d = digest(outcomes_);
    outcomes_.clear();
    return d;
  }

  std::int64_t ops_per_pass() const override { return ops_; }
  std::size_t designs() const override { return points_.size(); }

  void probe_layers(Samples& out) override {
    std::vector<const hw::AcceleratorSystem*> systems;
    for (const auto& p : points_) systems.push_back(&p.system);
    probe_builds(systems, points_.front().options.energy, out);

    const auto model_before = w1_->model_memo_stats();
    const auto layer_before = w1_->memo_stats();
    w1_->run_suite_points(points_);
    out["costmodel.model_memo_hit_ratio"].push_back(
        memo_hit_ratio(model_before, w1_->model_memo_stats()));
    out["costmodel.layer_memo_lookups"].push_back(
        memo_lookups(layer_before, w1_->memo_stats()));
  }

  PassDigest replay(Tracer& t, Samples& out) override {
    const auto& suite = workload::benchmark_suite();
    auto& trial_us = out["runtime.trial_us"];
    std::vector<core::BenchmarkOutcome> outcomes(points_.size());
    std::int64_t op = 0;
    double trials = 0.0, requests = 0.0, trial_ns = 0.0, allocs = 0.0;
    const std::int32_t root = t.open("sweep.pass");
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const auto& point = points_[p];
      const std::int64_t point_op =
          op_ == Op::kDesign ? static_cast<std::int64_t>(p) : -1;
      const std::int32_t build = t.open("costmodel.build", point_op);
      const runtime::CostTable table(point.system, replay_model_);
      t.close(build);
      const runtime::ScenarioRunner runner(point.system, table);

      std::vector<core::ScenarioScore> scenario_scores;
      for (const auto& scenario : suite) {
        const int n = workload::is_dynamic_scenario(scenario)
                          ? std::max(1, point.options.dynamic_trials)
                          : 1;
        std::vector<core::ScenarioScore> trial_scores;
        trial_scores.reserve(static_cast<std::size_t>(n));
        for (int trial = 0; trial < n; ++trial) {
          const std::int64_t span_op = op_ == Op::kDesign ? point_op : op;
          const auto allocs0 = thread_allocations();
          const std::int32_t run_span = t.open("runtime.trial", span_op);
          runtime::RunConfig cfg = point.options.run;
          cfg.seed += static_cast<std::uint64_t>(trial);
          auto policies = make_policies(point.options);
          auto run = runner.run(scenario, *policies.scheduler, cfg,
                                policies.governor.get(), &scratch_,
                                policies.admission.get());
          t.close(run_span);
          allocs += static_cast<double>(thread_allocations() - allocs0);
          const double ns = t.duration_ns(run_span);
          trial_ns += ns;
          trial_us.push_back(ns / 1e3);
          for (const auto& m : run.per_model) {
            requests += static_cast<double>(m.frames_expected);
          }
          const std::int32_t score_span = t.open("core.score", span_op);
          trial_scores.push_back(score_scenario(run, point.options.score));
          t.close(score_span);
          scratch_.recycle(std::move(run));
          trials += 1.0;
          ++op;
        }
        const std::int32_t avg = t.open("core.aggregate", point_op);
        scenario_scores.push_back(core::average_scores(trial_scores));
        t.close(avg);
      }
      const std::int32_t comb = t.open("core.combine", point_op);
      outcomes[p].score = core::combine_scenarios(std::move(scenario_scores));
      t.close(comb);
      outcomes[p].accelerator_id = point.system.id;
      outcomes[p].total_pes = point.system.total_pes();
    }
    t.close(root);

    const auto by_name = t.self_ns_by_name();
    auto self = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second;
    };
    out["trace.pass_ms"].push_back(t.duration_ns(root) / 1e6);
    out["runtime.requests_per_trial"].push_back(requests / trials);
    out["runtime.host_ns_per_request"].push_back(trial_ns / requests);
    out["runtime.allocs_per_trial"].push_back(allocs / trials);
    out["core.score_us_per_trial"].push_back(
        (self("core.score") + self("core.aggregate") + self("core.combine")) /
        1e3 / trials);
    for (const auto& [layer, ns] : t.self_ns_by_layer()) {
      out["self_ms." + layer].push_back(ns / 1e6);
    }
    return digest(outcomes);
  }

 private:
  PassDigest digest(const std::vector<core::BenchmarkOutcome>& outcomes) const {
    PassDigest d;
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      d.groups.push_back(digest_outcome(outcomes[p]));
      d.group_ops.push_back(op_ == Op::kDesign ? 1
                                               : trials_of_point(points_[p]));
    }
    return d;
  }

  static std::int64_t trials_of_point(const core::SweepPoint& p) {
    std::int64_t n = 0;
    for (const auto& s : workload::benchmark_suite()) {
      n += workload::is_dynamic_scenario(s) ? std::max(1, p.options.dynamic_trials)
                                            : 1;
    }
    return n;
  }

  std::vector<core::SweepPoint> (*make_points_)(std::uint64_t);
  Op op_;
  std::vector<core::SweepPoint> points_;
  std::int64_t ops_ = 0;
  std::unique_ptr<core::SweepEngine> w1_, w2_;
  std::vector<core::BenchmarkOutcome> outcomes_;
  // Replay state: a warm model (the engines' memo is private to them) and
  // one reused arena, as one SweepEngine worker would hold.
  costmodel::AnalyticalCostModel replay_model_;
  runtime::RunScratch scratch_;
};

/// suite_trials: Table-5 A-M at 4K and 8K PEs, fixed clock, default
/// policies, the paper's 200 dynamic trials per stochastic scenario.
std::vector<core::SweepPoint> suite_trial_points(std::uint64_t seed) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 200;
  opt.run.seed = seed;
  std::vector<core::SweepPoint> points;
  for (std::int64_t pes : {4096, 8192}) {
    for (char id : hw::accelerator_ids()) {
      points.push_back({std::string(1, id) + "@" + std::to_string(pes),
                        hw::make_accelerator(id, pes), opt});
    }
  }
  return points;
}

/// design_space: A-M x {1K..16K} PEs x {fixed clock, default DVFS ladder
/// under ondemand}, one trial per scenario.
std::vector<core::SweepPoint> design_space_points(std::uint64_t seed) {
  std::vector<core::SweepPoint> points;
  for (bool dvfs : {false, true}) {
    for (std::int64_t pes : {1024, 2048, 4096, 8192, 16384}) {
      for (char id : hw::accelerator_ids()) {
        core::HarnessOptions opt;
        opt.dynamic_trials = 1;
        opt.run.seed = seed;
        auto system = hw::make_accelerator(id, pes);
        if (dvfs) {
          system = hw::with_default_dvfs(std::move(system));
          opt.governor = "ondemand";
        }
        points.push_back({std::string(1, id) + "@" + std::to_string(pes) +
                              (dvfs ? "+dvfs" : ""),
                          std::move(system), opt});
      }
    }
  }
  return points;
}

// ---- fleet_faulted ----------------------------------------------------------

/// The fleet_faulted config: two inline session programs under a shared
/// fault profile (transients, outages, throttles, retries, checkpoints),
/// two priority classes behind fleet-queue admission. The session cap binds
/// before the arrival window, so every seed offers the same session count.
std::string fleet_config_text(std::uint64_t seed) {
  const std::string faults =
      "[faults]\n"
      "transient_rate = 0.05\n"
      "outage_rate_per_s = 2\n"
      "outage_ms = 20\n"
      "throttle_rate_per_s = 4\n"
      "throttle_ms = 15\n"
      "throttle_max_level = 1\n"
      "max_retries = 2\n"
      "retry_backoff_ms = 2\n"
      "checkpoint = true\n"
      "checkpoint_overhead_ms = 0.05\n";
  return "[fleet]\n"
         "seed = " + std::to_string(seed) + "\n"
         "arrival_rate_per_s = 40\n"
         "zipf_s = 0.8\n"
         "pool_size = 9\n"
         "arrival_window_ms = 100000\n"
         "max_sessions = 2000\n"
         "admission = fleet-queue\n"
         "scheduler = fault-aware\n"
         "governor = deadline-aware\n"
         "programs = Faulted Hand-Off, Faulted Glance\n"
         "\n[class]\nweight = 1\nwait_budget_ms = 100\n"
         "\n[class]\nweight = 3\nwait_budget_ms = 400\n"
         "\n[program]\nname = Faulted Hand-Off\n" + faults +
         "\n[phase]\nscenario = Outdoor Activity A\nduration_ms = 400\n"
         "\n[phase]\nscenario = AR Assistant\nduration_ms = 400\n"
         "seed_offset = 1\n"
         "\n[program]\nname = Faulted Glance\n" + faults +
         "\n[phase]\nscenario = AR Assistant\nduration_ms = 300\n"
         "\n[phase]\nscenario = Social Interaction A\nduration_ms = 200\n"
         "seed_offset = 1\n";
}

class FleetFaulted : public Workload {
 public:
  static constexpr std::size_t kSessionsPerGroup = 100;

  void prepare(std::uint64_t seed) override {
    text_ = fleet_config_text(seed);
    setup_ = fleet::fleet_from_config_text(text_);
    offered_ = static_cast<std::int64_t>(
        fleet::FleetWorkload::generate(setup_.config, setup_.catalog).size());
    system_ = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  }

  void start_engines() override {
    w1_ = std::make_unique<fleet::FleetSimulator>(1);
    w2_ = std::make_unique<fleet::FleetSimulator>(2);
  }

  void run_pass(int workers) override {
    result_ = (workers == 1 ? *w1_ : *w2_)
                  .run(setup_.config, setup_.catalog, system_, base_);
  }

  PassDigest take_digest() override {
    PassDigest d = digest_fleet(result_, kSessionsPerGroup);
    result_ = fleet::FleetResult();
    return d;
  }

  std::int64_t ops_per_pass() const override { return offered_; }
  std::size_t designs() const override { return 1; }

  void probe_layers(Samples& out) override {
    probe_builds({&system_}, base_.energy, out);
    // FleetSimulator keeps its engine private, so the memo counters come
    // from one warm stage-2 replay on the benchmark's own 1-worker engine.
    if (!replay_engine_) replay_engine_ = std::make_unique<core::SweepEngine>(1);
    const auto points = stage2_points(w1_->run(setup_.config, setup_.catalog,
                                               system_, base_));
    replay_engine_->run_program_points(points);
    const auto model_before = replay_engine_->model_memo_stats();
    const auto layer_before = replay_engine_->memo_stats();
    replay_engine_->run_program_points(points);
    out["costmodel.model_memo_hit_ratio"].push_back(
        memo_hit_ratio(model_before, replay_engine_->model_memo_stats()));
    out["costmodel.layer_memo_lookups"].push_back(
        memo_lookups(layer_before, replay_engine_->memo_stats()));
  }

  PassDigest replay(Tracer& t, Samples& out) override {
    const std::int32_t root = t.open("fleet.replay");
    fleet::FleetSetup setup;
    {
      Scope s(t, "workload.parse");
      setup = fleet::fleet_from_config_text(text_);
    }
    {
      Scope s(t, "fleet.generate");
      fleet::FleetWorkload::generate(setup.config, setup.catalog);
    }
    const std::int32_t sim = t.open("fleet.simulate");
    const auto result = w1_->run(setup.config, setup.catalog, system_, base_);
    t.close(sim);

    // Stage 2 again on its own: the same admitted sessions through
    // SweepEngine::run_program_points, so stage 1 = simulate - stage 2.
    std::vector<std::int64_t> session_ids;
    const auto points = stage2_points(result, &session_ids);
    const std::int32_t stage2 = t.open("fleet.stage2");
    replay_engine_->run_program_points(points);
    t.close(stage2);

    // Stage 2 once more, session by session through the runtime's and the
    // scorer's own calls.
    const std::int32_t build = t.open("costmodel.build");
    const runtime::CostTable table(system_, replay_model_);
    t.close(build);
    const runtime::ScenarioRunner runner(system_, table);
    double trial_ns = 0.0, score_ns = 0.0;
    auto& program_trial_us = out["runtime.program_trial_us"];
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      const std::int64_t op = session_ids[i];
      const std::int32_t run_span = t.open("runtime.program_trial", op);
      auto policies = make_policies(p.options, p.program);
      auto run = runner.run_program(p.program, *policies.scheduler,
                                    p.options.run, policies.governor.get(),
                                    &scratch_, policies.admission.get());
      t.close(run_span);
      const std::int32_t score_span = t.open("core.score", op);
      core::score_scenario(run, p.options.score);
      t.close(score_span);
      scratch_.recycle(std::move(run));
      trial_ns += t.duration_ns(run_span);
      score_ns += t.duration_ns(score_span);
      program_trial_us.push_back(t.duration_ns(run_span) / 1e3);
    }
    t.close(root);

    double retries = 0.0, kills = 0.0, resumes = 0.0, admitted = 0.0;
    for (const auto& s : result.sessions) {
      if (!s.admitted) continue;
      admitted += 1.0;
      retries += static_cast<double>(s.resilience.retries);
      kills += static_cast<double>(s.resilience.outage_kills);
      resumes += static_cast<double>(s.resilience.resumes);
    }
    const double simulate_ms = t.duration_ns(sim) / 1e6;
    const double stage2_ms = t.duration_ns(stage2) / 1e6;
    const double build_ms = t.duration_ns(build) / 1e6;
    out["trace.pass_ms"].push_back(simulate_ms);
    out["fleet.stage1_ms"].push_back(simulate_ms - stage2_ms);
    out["fleet.admitted_ratio"].push_back(
        admitted / static_cast<double>(result.sessions.size()));
    out["runtime.retries_per_session"].push_back(retries / admitted);
    out["runtime.outage_kills_per_session"].push_back(kills / admitted);
    out["runtime.resumes_per_session"].push_back(resumes / admitted);
    out["core.score_us_per_trial"].push_back(score_ns / 1e3 / admitted);
    // Self time of the simulate span, split by the replays above: fleet
    // stage 1, then stage 2's table build, trials, scoring, and what the
    // engine adds around them.
    out["self_ms.fleet"].push_back(simulate_ms - stage2_ms);
    out["self_ms.costmodel"].push_back(build_ms);
    out["self_ms.runtime"].push_back(trial_ns / 1e6);
    out["self_ms.core"].push_back(score_ns / 1e6);
    out["self_ms.sweep"].push_back(stage2_ms - build_ms -
                                   (trial_ns + score_ns) / 1e6);
    out["workload.parse_ms"].push_back(t.total_ns("workload.parse") / 1e6);
    out["fleet.generate_ms"].push_back(t.total_ns("fleet.generate") / 1e6);
    return digest_fleet(result, kSessionsPerGroup);
  }

 private:
  /// The admitted sessions of `result` as program sweep points, exactly as
  /// FleetSimulator's stage 2 builds them; their session ids go to `ids`
  /// when it is non-null.
  std::vector<core::ProgramSweepPoint> stage2_points(
      const fleet::FleetResult& result,
      std::vector<std::int64_t>* ids = nullptr) const {
    std::vector<core::ProgramSweepPoint> points;
    for (const auto& s : result.sessions) {
      if (!s.admitted) continue;
      if (ids) ids->push_back(static_cast<std::int64_t>(s.spec.session_id));
      core::ProgramSweepPoint p;
      p.label = "session-" + std::to_string(s.spec.session_id);
      p.system = system_;
      p.options = base_;
      p.options.run.seed = s.spec.seed;
      p.options.dynamic_trials = 1;
      if (!setup_.config.scheduler.empty()) {
        p.options.scheduler = setup_.config.scheduler;
      }
      if (!setup_.config.governor.empty()) {
        p.options.governor = setup_.config.governor;
      }
      p.program = setup_.catalog[s.spec.program_rank];
      points.push_back(std::move(p));
    }
    return points;
  }

  std::string text_;
  fleet::FleetSetup setup_;
  std::int64_t offered_ = 0;
  hw::AcceleratorSystem system_;
  core::HarnessOptions base_;
  std::unique_ptr<fleet::FleetSimulator> w1_, w2_;
  fleet::FleetResult result_;
  std::unique_ptr<core::SweepEngine> replay_engine_;
  costmodel::AnalyticalCostModel replay_model_;
  runtime::RunScratch scratch_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"suite_trials",
                                                 "design_space",
                                                 "fleet_faulted"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "suite_trials") {
    return std::make_unique<SuiteSweep>(suite_trial_points,
                                        SuiteSweep::Op::kTrial);
  }
  if (name == "design_space") {
    return std::make_unique<SuiteSweep>(design_space_points,
                                        SuiteSweep::Op::kDesign);
  }
  if (name == "fleet_faulted") return std::make_unique<FleetFaulted>();
  return nullptr;
}

}  // namespace perfbench

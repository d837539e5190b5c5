#include "runtime/scenario_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/sweep.h"
#include "hw/accelerator.h"
#include "runtime/dispatch_context.h"
#include "runtime/policy_registry.h"
#include "runtime/scheduler.h"
#include "workload/scenario_program.h"

// Global allocation probe (the idiom of test_simd_levels.cpp): counts every
// operator-new call in the process; a test reads the counter around the
// code under test.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xrbench::runtime {
namespace {

/// Exact-equality comparison of two runs: scratch reuse must change where
/// bytes live, never what they hold.
void expect_identical_runs(const ScenarioRunResult& a,
                           const ScenarioRunResult& b) {
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  ASSERT_EQ(a.sub_accel_busy_ms.size(), b.sub_accel_busy_ms.size());
  for (std::size_t sa = 0; sa < a.sub_accel_busy_ms.size(); ++sa) {
    EXPECT_EQ(a.sub_accel_busy_ms[sa], b.sub_accel_busy_ms[sa]);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].start_ms, b.timeline[i].start_ms);
    EXPECT_EQ(a.timeline[i].end_ms, b.timeline[i].end_ms);
    EXPECT_EQ(a.timeline[i].sub_accel, b.timeline[i].sub_accel);
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const auto& ra = a.per_model[m].records;
    const auto& rb = b.per_model[m].records;
    EXPECT_EQ(a.per_model[m].frames_executed, b.per_model[m].frames_executed);
    EXPECT_EQ(a.per_model[m].frames_dropped, b.per_model[m].frames_dropped);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
      EXPECT_EQ(ra.frame()[r], rb.frame()[r]);
      EXPECT_EQ(ra.treq_ms()[r], rb.treq_ms()[r]);
      EXPECT_EQ(ra.dropped()[r], rb.dropped()[r]);
      EXPECT_EQ(ra.dispatch_ms()[r], rb.dispatch_ms()[r]);
      EXPECT_EQ(ra.complete_ms()[r], rb.complete_ms()[r]);
      EXPECT_EQ(ra.energy_mj()[r], rb.energy_mj()[r]);
    }
  }
}

class RunScratchTest : public ::testing::Test {
 protected:
  RunScratchTest()
      : system_(hw::with_default_dvfs(hw::make_accelerator('J', 4096))),
        table_(system_, cost_model_),
        runner_(system_, table_) {}

  ScenarioRunResult run_once(std::uint64_t seed, RunScratch* scratch) {
    auto scheduler =
        PolicyRegistry::instance().make_scheduler("latency-greedy");
    auto governor = PolicyRegistry::instance().make_governor("ondemand");
    scheduler->reset();
    governor->reset();
    RunConfig cfg;
    cfg.seed = seed;
    return runner_.run(workload::scenario_by_name("AR Gaming"), *scheduler,
                       cfg, governor.get(), scratch);
  }

  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
  ScenarioRunner runner_;
};

TEST_F(RunScratchTest, ScratchRunsAreBitIdenticalToFreshRuns) {
  const auto fresh = run_once(42, nullptr);
  RunScratch scratch;
  // First run with the scratch (cold arenas), then a decoy run with a
  // DIFFERENT seed to dirty every buffer, then the seed-42 run again off
  // the dirty arenas.
  auto first = run_once(42, &scratch);
  expect_identical_runs(fresh, first);
  scratch.recycle(std::move(first));
  auto decoy = run_once(1234, &scratch);
  scratch.recycle(std::move(decoy));
  const auto reused = run_once(42, &scratch);
  expect_identical_runs(fresh, reused);
}

/// Latency-greedy for its first `valid_picks` picks, then a request index
/// past the pending queue: the runner throws mid-run, with work in flight.
class TurnsInvalidScheduler final : public Scheduler {
 public:
  explicit TurnsInvalidScheduler(int valid_picks) : left_(valid_picks) {}
  const char* name() const override { return "turns-invalid"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override {
    if (left_-- > 0) return inner_.pick(ctx);
    return Assignment{ctx.pending->size(), 0};
  }

 private:
  LatencyGreedyScheduler inner_;
  int left_;
};

TEST_F(RunScratchTest, RunThatThrowsLeavesTheScratchUsable) {
  // A sweep worker keeps its scratch for the engine's lifetime, so a trial
  // that throws must not poison the trials after it. The faulted run queues
  // its outage windows up front, so events are live when the pick throws.
  const auto fresh = run_once(42, nullptr);
  RunScratch scratch;
  RunConfig faulted;
  faulted.faults.outage_rate_per_s = 2.0;
  faulted.faults.outage_ms = 20.0;
  for (const int valid_picks : {0, 20}) {
    TurnsInvalidScheduler scheduler(valid_picks);
    EXPECT_THROW(runner_.run(workload::scenario_by_name("AR Gaming"),
                             scheduler, faulted, nullptr, &scratch),
                 std::logic_error)
        << valid_picks;
    expect_identical_runs(fresh, run_once(42, &scratch));
  }
}

TEST_F(RunScratchTest, RecycleRetainsRecordCapacity) {
  RunScratch scratch;
  EXPECT_EQ(scratch.pooled_stores(), 0u);
  auto run = run_once(42, &scratch);
  const std::size_t num_models = run.per_model.size();
  scratch.recycle(std::move(run));
  // Every per-model store went back to the pool with its arena intact.
  EXPECT_EQ(scratch.pooled_stores(), num_models);
  const std::size_t capacity = scratch.pooled_record_capacity();
  EXPECT_GT(capacity, 0u);
  // The next run consumes the pooled stores and hands them back with the
  // same capacity: steady state allocates nothing new.
  auto again = run_once(42, &scratch);
  EXPECT_EQ(scratch.pooled_stores(), 0u);
  scratch.recycle(std::move(again));
  EXPECT_EQ(scratch.pooled_stores(), num_models);
  EXPECT_EQ(scratch.pooled_record_capacity(), capacity);
}

TEST_F(RunScratchTest, ProgramRunsReuseTheScratchAcrossPhases) {
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  auto governor = PolicyRegistry::instance().make_governor("ondemand");
  RunConfig cfg;
  cfg.seed = 7;
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  scheduler->reset();
  governor->reset();
  const auto fresh =
      runner_.run_program(program, *scheduler, cfg, governor.get(), nullptr);
  RunScratch scratch;
  scheduler->reset();
  governor->reset();
  const auto reused =
      runner_.run_program(program, *scheduler, cfg, governor.get(), &scratch);
  expect_identical_runs(fresh, reused);
  // The last phase's arenas were recycled into the scratch.
  EXPECT_GT(scratch.pooled_stores(), 0u);
}

TEST_F(RunScratchTest, ProgramTrialLoopPoolPlateausAtHighWaterMark) {
  // A trial loop over a program recycles the merged session result; the
  // merged stores and session timeline must come back OUT of the pool on
  // the next trial, or the pool grows by one result per trial forever.
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  RunScratch scratch;
  std::size_t stores_after_warmup = 0;
  std::size_t capacity_after_warmup = 0;
  // Fixed seed: per-trial record demand is identical, so the only possible
  // growth source is the pooling machinery itself. (Across different seeds
  // capacities may still ratchet to each slot's demand high-water mark —
  // bounded by the largest single-run demand, never by trial count.)
  for (int trial = 0; trial < 8; ++trial) {
    scheduler->reset();
    RunConfig cfg;
    cfg.seed = 42;
    auto run =
        runner_.run_program(program, *scheduler, cfg, nullptr, &scratch);
    scratch.recycle(std::move(run));
    // Stores rotate through slots as phases and the session merge
    // interleave their takes, so per-store capacities ratchet toward the
    // largest slot demand for a few rounds before the pool reaches its
    // fixed point (measured: flat from trial 4 through 29).
    if (trial == 4) {
      stores_after_warmup = scratch.pooled_stores();
      capacity_after_warmup = scratch.pooled_record_capacity();
    }
  }
  EXPECT_EQ(scratch.pooled_stores(), stores_after_warmup);
  EXPECT_EQ(scratch.pooled_record_capacity(), capacity_after_warmup);
}

TEST_F(RunScratchTest, EventQueueHoldsOnlyInFlightWork) {
  // Generator arrivals stream past the event queue, so it only ever holds
  // one completion per busy unit, the outage boundaries (start and end,
  // both queued up front) and pending retries — never a frame per arrival.
  // A killed completion's voided entry stays queued until it surfaces, but
  // the outage start that killed it has left by then.
  const std::size_t units = system_.sub_accels.size();
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  for (const auto& scenario : workload::benchmark_suite()) {
    RunScratch scratch;
    scheduler->reset();
    const auto run =
        runner_.run(scenario, *scheduler, RunConfig{}, nullptr, &scratch);
    EXPECT_GT(run.timeline.size(), units) << scenario.name;
    EXPECT_LE(scratch.event_queue_high_water(), units) << scenario.name;
  }

  RunConfig cfg;
  cfg.faults.transient_rate = 0.05;
  cfg.faults.outage_rate_per_s = 2.0;
  cfg.faults.outage_ms = 20.0;
  cfg.faults.max_retries = 2;
  cfg.faults.retry_backoff_ms = 2.0;
  const FaultPlan plan(cfg.faults, cfg.seed, units, cfg.duration_ms,
                       system_.fault_domains);
  std::size_t outage_events = 0;
  for (std::size_t sa = 0; sa < units; ++sa) {
    for (const auto& w : plan.outages(sa)) {
      if (w.start_ms < cfg.duration_ms) outage_events += 2;
    }
  }
  ASSERT_GT(outage_events, 0u);
  RunScratch scratch;
  scheduler->reset();
  const auto run = runner_.run(workload::scenario_by_name("AR Gaming"),
                               *scheduler, cfg, nullptr, &scratch);
  EXPECT_LE(scratch.event_queue_high_water(),
            units + outage_events +
                static_cast<std::size_t>(run.resilience.retries));
}

TEST(SweepScratch, RepeatedSweepsOnOneEngineAreIdentical) {
  // The engine's per-worker arenas persist across calls; a second sweep on
  // dirty arenas must reproduce the first bit-for-bit, at any worker count.
  std::vector<core::ScenarioSweepPoint> points;
  core::HarnessOptions opt;
  opt.governor = "ondemand";
  opt.dynamic_trials = 4;
  opt.run.duration_ms = 500.0;
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  points.push_back({"burst", system, opt,
                    workload::scenario_by_name("Bursty Notification")});
  for (std::size_t workers : {0u, 4u}) {
    core::SweepEngine engine(workers);
    const auto a = engine.run_scenario_points(points);
    const auto b = engine.run_scenario_points(points);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].score.overall, b[0].score.overall) << workers;
    expect_identical_runs(a[0].last_run, b[0].last_run);
  }
}

/// Fault profile exercising every fault path: transient burns with
/// retries, outage kills with failover, and checkpoint resumes.
FaultSpec every_fault_class() {
  FaultSpec f;
  f.transient_rate = 0.05;
  f.outage_rate_per_s = 4.0;
  f.outage_ms = 20.0;
  f.max_retries = 2;
  f.retry_backoff_ms = 2.0;
  f.checkpoint = true;
  f.checkpoint_overhead_ms = 0.5;
  return f;
}

/// Allocations made by one more run() on a scratch already warmed by one
/// identical run. Policies are built (and reset) outside the probe window.
std::uint64_t warm_run_allocations(const ScenarioRunner& runner,
                                   const workload::UsageScenario& scenario,
                                   const RunConfig& cfg, ResilienceStats* out) {
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  auto governor = PolicyRegistry::instance().make_governor("ondemand");
  RunScratch scratch;
  scheduler->reset();
  governor->reset();
  scratch.recycle(runner.run(scenario, *scheduler, cfg, governor.get(),
                             &scratch));
  scheduler->reset();
  governor->reset();
  const std::uint64_t before = g_alloc_count.load();
  ScenarioRunResult run =
      runner.run(scenario, *scheduler, cfg, governor.get(), &scratch);
  const std::uint64_t allocations = g_alloc_count.load() - before;
  if (out != nullptr) *out = run.resilience;
  scratch.recycle(std::move(run));
  return allocations;
}

TEST_F(RunScratchTest, WarmRunAllocatesNothing) {
  for (const auto& scenario : workload::benchmark_suite()) {
    EXPECT_EQ(warm_run_allocations(runner_, scenario, RunConfig{}, nullptr),
              0u)
        << scenario.name;
  }
  RunConfig cfg;
  cfg.faults = every_fault_class();
  ResilienceStats res;
  EXPECT_EQ(warm_run_allocations(
                runner_, workload::scenario_by_name("AR Gaming"), cfg, &res),
            0u);
  // The faulted run really took every fault path it claims to cover.
  EXPECT_GT(res.retries, 0);
  EXPECT_GT(res.outage_kills, 0);
  EXPECT_GT(res.resumes, 0);
}

TEST_F(RunScratchTest, WarmProgramRunAllocationCount) {
  // Reported, not gated: run_program still merges phases into fresh
  // per-model bookkeeping.
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  RunScratch scratch;
  std::uint64_t allocations = 0;
  for (int trial = 0; trial < 6; ++trial) {
    scheduler->reset();
    const std::uint64_t before = g_alloc_count.load();
    auto run = runner_.run_program(program, *scheduler, RunConfig{}, nullptr,
                                   &scratch);
    allocations = g_alloc_count.load() - before;
    scratch.recycle(std::move(run));
  }
  std::cout << "[ alloc    ] warm run_program(\"" << program.name
            << "\"): " << allocations << " allocations\n";
  RecordProperty("warm_run_program_allocations",
                 static_cast<int>(allocations));
}

// ---- Canonical-order oracles: the sorts the runner no longer runs -------

bool oracle_timeline_less(const BusyInterval& a, const BusyInterval& b) {
  if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
  if (a.sub_accel != b.sub_accel) return a.sub_accel < b.sub_accel;
  if (a.task != b.task) {
    return static_cast<int>(a.task) < static_cast<int>(b.task);
  }
  return a.frame < b.frame;
}

bool oracle_record_less(const InferenceRecord& a, const InferenceRecord& b) {
  if (a.frame != b.frame) return a.frame < b.frame;
  if (a.treq_ms != b.treq_ms) return a.treq_ms < b.treq_ms;
  if (a.dropped != b.dropped) return b.dropped;  // executed before dropped
  return a.dispatch_ms < b.dispatch_ms;
}

void expect_canonical(const ScenarioRunResult& run, const std::string& what) {
  auto timeline = run.timeline;
  std::sort(timeline.begin(), timeline.end(), oracle_timeline_less);
  ASSERT_EQ(timeline.size(), run.timeline.size()) << what;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].start_ms, run.timeline[i].start_ms) << what << i;
    EXPECT_EQ(timeline[i].end_ms, run.timeline[i].end_ms) << what << i;
    EXPECT_EQ(timeline[i].sub_accel, run.timeline[i].sub_accel) << what << i;
    EXPECT_EQ(timeline[i].task, run.timeline[i].task) << what << i;
    EXPECT_EQ(timeline[i].frame, run.timeline[i].frame) << what << i;
  }
  for (const auto& ms : run.per_model) {
    const auto records = ms.records.view();
    auto sorted = records;
    std::sort(sorted.begin(), sorted.end(), oracle_record_less);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(sorted[i].frame, records[i].frame) << what << i;
      EXPECT_EQ(sorted[i].treq_ms, records[i].treq_ms) << what << i;
      EXPECT_EQ(sorted[i].dropped, records[i].dropped) << what << i;
      EXPECT_EQ(sorted[i].dispatch_ms, records[i].dispatch_ms) << what << i;
      EXPECT_EQ(sorted[i].complete_ms, records[i].complete_ms) << what << i;
      EXPECT_EQ(sorted[i].energy_mj, records[i].energy_mj) << what << i;
    }
  }
}

TEST_F(RunScratchTest, OutputsAreCanonicalWithoutSorting) {
  auto scheduler = PolicyRegistry::instance().make_scheduler("latency-greedy");
  RunScratch scratch;
  for (const auto& scenario : workload::benchmark_suite()) {
    scheduler->reset();
    auto run = runner_.run(scenario, *scheduler, RunConfig{}, nullptr,
                           &scratch);
    expect_canonical(run, scenario.name);
    scratch.recycle(std::move(run));
  }
  // At 250 ms the faulted AR Gaming phase still dispatches past its window
  // end, after the next phase's first intervals: the phase join has to
  // reorder, not just append.
  workload::ScenarioProgram program;
  program.name = "faulted two-phase";
  program.faults = every_fault_class();
  program.phases.push_back(
      {workload::scenario_by_name("AR Gaming"), 250.0, 0});
  program.phases.push_back(
      {workload::scenario_by_name("Social Interaction A"), 250.0, 1});
  scheduler->reset();
  const auto run = runner_.run_program(program, *scheduler, RunConfig{},
                                       nullptr, &scratch);
  EXPECT_GT(run.resilience.outage_kills, 0);
  expect_canonical(run, program.name);
}

TEST(TaskIndex, IsTheTableOnePosition) {
  const auto& tasks = models::all_tasks();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(models::task_index(tasks[i]), i);
  }
  static_assert(models::task_index(models::TaskId::kPD) ==
                    models::kNumTasks - 1,
                "task_index is a compile-time cast");
}

}  // namespace
}  // namespace xrbench::runtime

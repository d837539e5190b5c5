#include "runtime/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/harness.h"
#include "core/sweep.h"
#include "hw/accelerator.h"
#include "workload/scenario_program.h"

// Global allocation probe for the allocation-free reset assertion: counts
// every operator-new call in the process; the test reads the counter around
// a single reset() call.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xrbench::runtime {
namespace {

using models::TaskId;

InferenceRequest make_req(TaskId task, double treq, double tdl) {
  InferenceRequest r;
  r.task = task;
  r.treq_ms = treq;
  r.tdl_ms = tdl;
  return r;
}

// ---- Unit behavior --------------------------------------------------------

TEST(Telemetry, BusyIdleAccountingAndEwma) {
  Telemetry tel;
  tel.reset(2);
  const auto req = make_req(TaskId::kHT, 0.0, 50.0);
  // sub 0: busy [10, 30], idle elsewhere in [0, 100].
  tel.on_dispatch(0, req, 3, 10.0, 4);
  tel.on_retire(0, req, 3, 30.0, 2.0, 1.0);
  tel.finish(100.0);

  const auto& s0 = tel.sub_accel(0);
  EXPECT_DOUBLE_EQ(s0.busy_ms, 20.0);
  EXPECT_DOUBLE_EQ(s0.idle_ms, 80.0);
  EXPECT_DOUBLE_EQ(s0.utilization(), 0.2);
  EXPECT_GT(s0.util_ewma, 0.0);
  EXPECT_LT(s0.util_ewma, 1.0);
  EXPECT_EQ(s0.dispatches, 1);
  EXPECT_EQ(s0.retires, 1);
  EXPECT_EQ(s0.last_level, 3);
  ASSERT_EQ(s0.recent_levels.size(), 1u);
  EXPECT_EQ(s0.recent_levels.front(), 3);
  EXPECT_DOUBLE_EQ(s0.dynamic_mj, 2.0);
  EXPECT_DOUBLE_EQ(s0.static_mj, 1.0);
  EXPECT_DOUBLE_EQ(s0.idle_mj, 0.0);

  // sub 1 never ran: pure idle window.
  const auto& s1 = tel.sub_accel(1);
  EXPECT_DOUBLE_EQ(s1.busy_ms, 0.0);
  EXPECT_DOUBLE_EQ(s1.idle_ms, 100.0);
  EXPECT_DOUBLE_EQ(s1.util_ewma, 0.0);

  EXPECT_EQ(tel.queue_depth(), 4u);
  EXPECT_GT(tel.queue_depth_ewma(), 0.0);
  EXPECT_EQ(tel.task_completions(TaskId::kHT), 1);
  EXPECT_DOUBLE_EQ(tel.task_latency_ewma(TaskId::kHT), 30.0);  // treq 0
}

TEST(Telemetry, LevelHistoryIsBounded) {
  TelemetryConfig config;
  config.level_history_depth = 3;
  Telemetry tel(config);
  tel.reset(1);
  const auto req = make_req(TaskId::kHT, 0.0, 1e9);
  for (int i = 0; i < 6; ++i) {
    tel.on_dispatch(0, req, static_cast<std::size_t>(i), i * 10.0, 0);
    tel.on_retire(0, req, static_cast<std::size_t>(i), i * 10.0 + 5.0, 0.0,
                  0.0);
  }
  const auto& levels = tel.sub_accel(0).recent_levels;
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], 3);
  EXPECT_EQ(levels[1], 4);
  EXPECT_EQ(levels[2], 5);
}

TEST(Telemetry, ResetClearsStateButKeepsShape) {
  Telemetry tel;
  tel.reset(2);
  const auto req = make_req(TaskId::kKD, 0.0, 1e9);
  tel.on_dispatch(0, req, 1, 5.0, 2);
  tel.on_retire(0, req, 1, 9.0, 1.0, 0.5);
  tel.reset(2);
  EXPECT_EQ(tel.sub_accel(0).dispatches, 0);
  EXPECT_DOUBLE_EQ(tel.sub_accel(0).busy_ms, 0.0);
  EXPECT_TRUE(tel.sub_accel(0).recent_levels.empty());
  EXPECT_EQ(tel.task_completions(TaskId::kKD), 0);
  EXPECT_EQ(tel.queue_depth(), 0u);
}

TEST(Telemetry, WarmedResetIsAllocationFree) {
  // reset() must hand each level-history buffer back to its sub-accelerator
  // (a move, not a copy): a warmed Telemetry with a non-empty history makes
  // zero heap allocations per reset, and keeps the history's capacity.
  Telemetry tel;
  tel.reset(2);
  const auto req = make_req(TaskId::kHT, 0.0, 1e9);
  for (std::size_t sa = 0; sa < 2; ++sa) {
    for (int i = 0; i < 4; ++i) {
      tel.on_dispatch(sa, req, static_cast<std::size_t>(i), i * 10.0, 0);
      tel.on_retire(sa, req, static_cast<std::size_t>(i), i * 10.0 + 5.0,
                    0.0, 0.0);
    }
  }
  ASSERT_FALSE(tel.sub_accel(0).recent_levels.empty());
  const std::size_t capacity = tel.sub_accel(0).recent_levels.capacity();

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  tel.reset(2);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "warmed Telemetry::reset allocated";
  EXPECT_TRUE(tel.sub_accel(0).recent_levels.empty());
  EXPECT_EQ(tel.sub_accel(0).recent_levels.capacity(), capacity);
}

TEST(Telemetry, InvalidConfigRejected) {
  TelemetryConfig config;
  config.util_tau_ms = 0.0;
  EXPECT_THROW(Telemetry{config}, std::invalid_argument);
  config = {};
  config.ewma_alpha = 1.5;
  EXPECT_THROW(Telemetry{config}, std::invalid_argument);
}

// ---- End-to-end: runner-produced snapshots --------------------------------

TEST(TelemetryRun, SnapshotMatchesRunAccounting) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 1;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 8192)), opt);
  const auto run =
      harness.run_once(workload::scenario_by_name("AR Gaming"), 42);
  const Telemetry& tel = run.telemetry;
  ASSERT_EQ(tel.num_sub_accels(), run.sub_accel_busy_ms.size());

  std::int64_t executed = 0;
  for (const auto& m : run.per_model) executed += m.frames_executed;
  std::int64_t dispatches = 0;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    const auto& sub = tel.sub_accel(sa);
    // The telemetry's busy accounting is the dispatcher's own.
    EXPECT_DOUBLE_EQ(sub.busy_ms, run.sub_accel_busy_ms[sa]) << sa;
    EXPECT_EQ(sub.dispatches, sub.retires) << sa;
    dispatches += sub.dispatches;
    EXPECT_GE(sub.util_ewma, 0.0);
    EXPECT_LE(sub.util_ewma, 1.0);
    // Default fixed-nominal governor: every dispatch at the nominal level.
    if (sub.dispatches > 0) {
      EXPECT_EQ(sub.last_level,
                static_cast<int>(harness.cost_table().nominal_level(sa)));
    }
    // No idle-power term declared: idle energy must be exactly zero.
    EXPECT_EQ(sub.idle_mj, 0.0);
    // Busy + idle spans the same accounting window on every lane.
    EXPECT_GE(sub.busy_ms + sub.idle_ms, run.duration_ms);
  }
  EXPECT_EQ(dispatches, executed);
  EXPECT_GT(tel.total_dynamic_mj(), 0.0);
  EXPECT_GT(tel.total_static_mj(), 0.0);
}

void expect_identical_telemetry(const Telemetry& a, const Telemetry& b) {
  ASSERT_EQ(a.num_sub_accels(), b.num_sub_accels());
  for (std::size_t sa = 0; sa < a.num_sub_accels(); ++sa) {
    const auto& x = a.sub_accel(sa);
    const auto& y = b.sub_accel(sa);
    // Exact double equality everywhere: the telemetry contract is
    // byte-determinism, not approximate agreement.
    EXPECT_EQ(x.busy_ms, y.busy_ms) << sa;
    EXPECT_EQ(x.idle_ms, y.idle_ms) << sa;
    EXPECT_EQ(x.util_ewma, y.util_ewma) << sa;
    EXPECT_EQ(x.last_event_ms, y.last_event_ms) << sa;
    EXPECT_EQ(x.dispatches, y.dispatches) << sa;
    EXPECT_EQ(x.retires, y.retires) << sa;
    EXPECT_EQ(x.last_level, y.last_level) << sa;
    EXPECT_EQ(x.park_level, y.park_level) << sa;
    EXPECT_EQ(x.dynamic_mj, y.dynamic_mj) << sa;
    EXPECT_EQ(x.static_mj, y.static_mj) << sa;
    EXPECT_EQ(x.idle_mj, y.idle_mj) << sa;
    EXPECT_EQ(x.recent_levels, y.recent_levels) << sa;
  }
  for (TaskId task : models::all_tasks()) {
    EXPECT_EQ(a.task_latency_ewma(task), b.task_latency_ewma(task));
    EXPECT_EQ(a.task_completions(task), b.task_completions(task));
  }
  EXPECT_EQ(a.queue_depth(), b.queue_depth());
  EXPECT_EQ(a.queue_depth_ewma(), b.queue_depth_ewma());
}

TEST(TelemetryRun, SnapshotsByteIdenticalSerialVsParallel) {
  // The headline determinism claim: telemetry advances only on
  // simulated-clock events, so a 4-worker sweep produces the very same
  // snapshot bits as the inline serial engine — for a history-aware
  // governor whose decisions FEED BACK into the schedule.
  auto make_points = [] {
    core::HarnessOptions opt;
    opt.governor = "ondemand";
    opt.dynamic_trials = 5;
    std::vector<core::ScenarioSweepPoint> points;
    const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
    for (const char* name : {"Bursty Notification", "AR Gaming"}) {
      points.push_back(
          {name, system, opt, workload::scenario_by_name(name)});
    }
    return points;
  };
  core::SweepEngine serial(0);
  core::SweepEngine parallel(4);
  const auto a = serial.run_scenario_points(make_points());
  const auto b = parallel.run_scenario_points(make_points());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].score.overall, b[p].score.overall);
    expect_identical_telemetry(a[p].last_run.telemetry,
                               b[p].last_run.telemetry);
  }
}

TEST(TelemetryRun, SinglePhaseProgramSnapshotMatchesPlainRun) {
  // The program merge's compatibility anchor extends to telemetry: one
  // phase merged into a fresh session accumulator reproduces the plain
  // run's snapshot exactly.
  core::HarnessOptions opt;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 8192)), opt);
  const auto& scenario = workload::scenario_by_name("AR Gaming");
  const auto plain = harness.run_once(scenario, 42);
  const auto program = harness.run_program_once(
      workload::single_phase_program(scenario, opt.run.duration_ms), 42);
  expect_identical_telemetry(plain.telemetry, program.telemetry);
}

TEST(TelemetryRun, ProgramSnapshotAccumulatesPhases) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 1;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 4096)), opt);
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  const auto run = harness.run_program_once(program, 7);
  const Telemetry& tel = run.telemetry;
  std::int64_t executed = 0;
  for (const auto& m : run.per_model) executed += m.frames_executed;
  std::int64_t dispatches = 0;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    dispatches += tel.sub_accel(sa).dispatches;
    EXPECT_DOUBLE_EQ(tel.sub_accel(sa).busy_ms, run.sub_accel_busy_ms[sa]);
  }
  EXPECT_EQ(dispatches, executed);
}

}  // namespace
}  // namespace xrbench::runtime

#include "runtime/scenario_runner.h"

#include <gtest/gtest.h>

#include <limits>

#include "costmodel/cost_model.h"
#include "workload/input_source.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;
using workload::scenario_by_name;

class RunnerTest : public ::testing::Test {
 protected:
  ScenarioRunResult run(char accel_id, std::int64_t pes,
                        const workload::UsageScenario& scenario,
                        RunConfig cfg = {}) {
    const auto sys = hw::make_accelerator(accel_id, pes);
    const CostTable table(sys, cost_model_);
    const ScenarioRunner runner(sys, table);
    LatencyGreedyScheduler sched;
    return runner.run(scenario, sched, cfg);
  }

  costmodel::AnalyticalCostModel cost_model_;
};

TEST_F(RunnerTest, FrameAccountingIsConsistent) {
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"));
  for (const auto& m : r.per_model) {
    EXPECT_EQ(m.frames_executed + m.frames_dropped,
              static_cast<std::int64_t>(m.records.size()))
        << models::task_code(m.task);
    // Independent/data-dep models: expected = fps * duration.
    EXPECT_EQ(m.frames_expected,
              static_cast<std::int64_t>(m.target_fps));
    EXPECT_LE(m.frames_executed, m.frames_expected);
  }
}

TEST_F(RunnerTest, ExecutedRecordsHaveSaneTimes) {
  const auto r = run('J', 8192, scenario_by_name("Social Interaction A"));
  for (const auto& m : r.per_model) {
    for (const auto& rec : m.records) {
      if (rec.dropped) {
        EXPECT_EQ(rec.sub_accel, -1);
        continue;
      }
      EXPECT_GE(rec.dispatch_ms, rec.treq_ms - 1e-9);
      EXPECT_GT(rec.complete_ms, rec.dispatch_ms);
      EXPECT_GE(rec.sub_accel, 0);
      EXPECT_GT(rec.energy_mj, 0.0);
      EXPECT_GT(rec.latency_ms(), 0.0);
    }
  }
}

TEST_F(RunnerTest, DroppedRequestsNeverStarted) {
  // 4K-PE accelerator J on AR gaming drops a large share of frames (the
  // Figure-6 experiment).
  const auto r = run('J', 4096, scenario_by_name("AR Gaming"));
  std::int64_t drops = 0;
  for (const auto& m : r.per_model) drops += m.frames_dropped;
  EXPECT_GT(drops, 0);
}

TEST_F(RunnerTest, Figure6Shape4kVs8k) {
  // Paper Figure 6: 4K-PE J drops far more frames than 8K-PE J on AR
  // gaming, and its PD deadline violations are massive.
  const auto r4 = run('J', 4096, scenario_by_name("AR Gaming"));
  const auto r8 = run('J', 8192, scenario_by_name("AR Gaming"));
  auto drop_rate = [](const ScenarioRunResult& r) {
    std::int64_t d = 0, e = 0;
    for (const auto& m : r.per_model) {
      d += m.frames_dropped;
      e += m.frames_expected;
    }
    return static_cast<double>(d) / static_cast<double>(e);
  };
  EXPECT_GT(drop_rate(r4), 2.0 * drop_rate(r8));
}

TEST_F(RunnerTest, TimelineTiesHaveDeterministicTotalOrder) {
  // With jitter off, independent models arrive at identical ideal times and
  // a multi-sub-accelerator system dispatches several of them in the same
  // simulation event — equal start_ms entries are common. The report sort
  // must impose a full (start, sub_accel, task, frame) order so equal-time
  // entries cannot permute between runs or stdlib sort implementations.
  RunConfig cfg{1000.0, 11, false, 2.0};
  const auto r = run('M', 8192, scenario_by_name("AR Assistant"), cfg);
  bool any_tie = false;
  for (std::size_t i = 1; i < r.timeline.size(); ++i) {
    const auto& prev = r.timeline[i - 1];
    const auto& cur = r.timeline[i];
    ASSERT_LE(prev.start_ms, cur.start_ms);
    if (prev.start_ms == cur.start_ms) {
      any_tie = true;
      const bool ordered =
          prev.sub_accel < cur.sub_accel ||
          (prev.sub_accel == cur.sub_accel &&
           (models::task_index(prev.task) < models::task_index(cur.task) ||
            (prev.task == cur.task && prev.frame < cur.frame)));
      EXPECT_TRUE(ordered) << "unordered tie at start_ms=" << cur.start_ms;
    }
  }
  EXPECT_TRUE(any_tie) << "scenario produced no equal-start timeline entries;"
                          " the tie-break is untested";
}

TEST_F(RunnerTest, DataDependentFpsMismatchIsRejected) {
  // A data-dependent model is requested once per upstream completion; a
  // target_fps different from the upstream's rate would silently skew its
  // QoE denominator, so the preflight check rejects it.
  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  for (auto& m : bad.models) {
    if (m.task == TaskId::kGE) m.target_fps = 30.0;  // ES runs at 60
  }
  EXPECT_THROW(run('A', 8192, bad), std::invalid_argument);
}

TEST_F(RunnerTest, TimelineMatchesExecutedRecords) {
  const auto r = run('D', 8192, scenario_by_name("AR Gaming"));
  std::size_t executed = 0;
  for (const auto& m : r.per_model) {
    executed += static_cast<std::size_t>(m.frames_executed);
  }
  EXPECT_EQ(r.timeline.size(), executed);
  // Timeline sorted by start time.
  for (std::size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GE(r.timeline[i].start_ms, r.timeline[i - 1].start_ms);
  }
}

TEST_F(RunnerTest, NoHardwareOverlapPerSubAccel) {
  // Hardware occupancy condition (appendix B.2): one sub-accelerator never
  // runs two inferences at once.
  const auto r = run('J', 4096, scenario_by_name("AR Assistant"),
                     RunConfig{1000.0, 7, true, 2.0});
  std::vector<std::vector<BusyInterval>> lanes(r.sub_accel_busy_ms.size());
  for (const auto& bi : r.timeline) {
    lanes[static_cast<std::size_t>(bi.sub_accel)].push_back(bi);
  }
  for (const auto& lane : lanes) {
    for (std::size_t i = 1; i < lane.size(); ++i) {
      EXPECT_GE(lane[i].start_ms, lane[i - 1].end_ms - 1e-9);
    }
  }
}

TEST_F(RunnerTest, DependencyConditionHolds) {
  // GE never starts before the ES inference of the same frame completed.
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"));
  const auto* es = r.find(TaskId::kES);
  const auto* ge = r.find(TaskId::kGE);
  ASSERT_NE(es, nullptr);
  ASSERT_NE(ge, nullptr);
  for (const auto& grec : ge->records) {
    if (grec.dropped) continue;
    bool found = false;
    for (const auto& erec : es->records) {
      if (erec.frame == grec.frame && !erec.dropped) {
        EXPECT_GE(grec.dispatch_ms, erec.complete_ms - 1e-9);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "GE frame " << grec.frame
                       << " ran without an ES completion";
  }
}

TEST_F(RunnerTest, ControlDependencyGatesDownstream) {
  // With trigger probability 0, SR never runs; with 1, it follows KD.
  auto scenario = scenario_by_name("Outdoor Activity B");
  for (auto& m : scenario.models) {
    if (m.task == TaskId::kSR) m.trigger_probability = 0.0;
  }
  const auto none = run('A', 8192, scenario);
  EXPECT_EQ(none.find(TaskId::kSR)->frames_expected, 0);
  EXPECT_TRUE(none.find(TaskId::kSR)->records.empty());

  for (auto& m : scenario.models) {
    if (m.task == TaskId::kSR) m.trigger_probability = 1.0;
  }
  const auto all = run('A', 8192, scenario);
  EXPECT_EQ(all.find(TaskId::kSR)->frames_expected,
            all.find(TaskId::kKD)->frames_executed);
}

TEST_F(RunnerTest, JitterChangesArrivalNotCounts) {
  RunConfig with{1000.0, 3, true, 2.0};
  RunConfig without{1000.0, 3, false, 2.0};
  const auto a = run('A', 8192, scenario_by_name("VR Gaming"), with);
  const auto b = run('A', 8192, scenario_by_name("VR Gaming"), without);
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].frames_expected, b.per_model[i].frames_expected);
  }
  // Some arrival times must differ when jitter is on.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    for (std::size_t f = 0; f < a.per_model[i].records.size() &&
                            f < b.per_model[i].records.size();
         ++f) {
      if (a.per_model[i].records[f].treq_ms !=
          b.per_model[i].records[f].treq_ms) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(RunnerTest, DeterministicForSameSeed) {
  RunConfig cfg{1000.0, 99, true, 2.0};
  const auto a = run('J', 4096, scenario_by_name("AR Assistant"), cfg);
  const auto b = run('J', 4096, scenario_by_name("AR Assistant"), cfg);
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  EXPECT_DOUBLE_EQ(a.total_energy_mj, b.total_energy_mj);
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].frames_executed, b.per_model[i].frames_executed);
    EXPECT_EQ(a.per_model[i].frames_dropped, b.per_model[i].frames_dropped);
  }
}

TEST_F(RunnerTest, LongerDurationScalesFrames) {
  RunConfig cfg;
  cfg.duration_ms = 2000.0;
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"), cfg);
  EXPECT_EQ(r.find(TaskId::kHT)->frames_expected, 90);  // 45 FPS x 2 s
  EXPECT_EQ(r.find(TaskId::kES)->frames_expected, 120);
}

TEST_F(RunnerTest, MultiModalModelWaitsForBothStreams) {
  const auto r = run('A', 8192, scenario_by_name("Social Interaction A"));
  const auto* dr = r.find(TaskId::kDR);
  ASSERT_NE(dr, nullptr);
  const auto& cam = workload::input_source(workload::InputSourceId::kCamera);
  const auto& lidar = workload::input_source(workload::InputSourceId::kLidar);
  for (const auto& rec : dr->records) {
    if (rec.dropped) continue;
    const std::int64_t sf = rec.frame * 2;  // 30 FPS on 60 FPS streams
    const double cam_ideal = workload::ideal_arrival_ms(cam, sf);
    const double lidar_ideal = workload::ideal_arrival_ms(lidar, sf);
    EXPECT_GE(rec.treq_ms,
              std::max(cam_ideal, lidar_ideal) - cam.max_jitter_ms -
                  lidar.max_jitter_ms - 1e-9);
  }
}

TEST_F(RunnerTest, InvalidConfigsThrow) {
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  RunConfig cfg;
  cfg.duration_ms = 0.0;
  EXPECT_THROW(runner.run(scenario_by_name("VR Gaming"), sched, cfg),
               std::invalid_argument);

  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  bad.models[0].target_fps = 120.0;  // exceeds the 60 FPS camera
  EXPECT_THROW(runner.run(bad, sched, RunConfig{}), std::invalid_argument);
}

TEST_F(RunnerTest, NonFiniteAndOversizedDurationsThrow) {
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  // NaN and +inf slip past a plain `<= 0` test; 1e12 ms is finite but its
  // frame budget is far past the per-run cap.
  for (const double d : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 1e12}) {
    RunConfig cfg;
    cfg.duration_ms = d;
    EXPECT_THROW(runner.run(scenario_by_name("VR Gaming"), sched, cfg),
                 std::invalid_argument)
        << d;
  }
  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  bad.models[0].target_fps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(runner.run(bad, sched, RunConfig{}), std::invalid_argument);
}

TEST_F(RunnerTest, FrameBudgetPastTheCapThrows) {
  // Half a minute of a 3 FPS keyword-spotting stream is well inside the cap.
  workload::UsageScenario kd;
  kd.name = "kd-only";
  workload::ScenarioModel m;
  m.task = TaskId::kKD;
  m.target_fps = 3.0;
  kd.models.push_back(m);
  RunConfig cfg;
  cfg.duration_ms = 30000.0;
  EXPECT_EQ(run('A', 4096, kd, cfg).find(TaskId::kKD)->frames_expected, 90);
  // One frame past the cap at the same rate is rejected.
  cfg.duration_ms =
      (static_cast<double>(RunConfig::kMaxFramesPerRun) + 1.0) * 1000.0 / 3.0;
  EXPECT_THROW(run('A', 4096, kd, cfg), std::invalid_argument);
}

TEST_F(RunnerTest, DependencyOnAbsentUpstreamNeverTriggers) {
  // A custom scenario whose model depends on a task that is not part of
  // the scenario: the dependent model can never be triggered, but the run
  // must complete cleanly (regression for the slot-indexed fanout).
  workload::UsageScenario scenario;
  scenario.name = "dangling-dep";
  workload::ScenarioModel ht;
  ht.task = TaskId::kHT;
  ht.target_fps = 30.0;
  scenario.models.push_back(ht);
  workload::ScenarioModel sr;  // depends on KD, which is absent
  sr.task = TaskId::kSR;
  sr.target_fps = 3.0;
  sr.depends_on = TaskId::kKD;
  sr.dependency = workload::DependencyType::kControl;
  sr.trigger_probability = 1.0;
  scenario.models.push_back(sr);

  const auto r = run('A', 8192, scenario);
  const auto* srs = r.find(TaskId::kSR);
  ASSERT_NE(srs, nullptr);
  EXPECT_EQ(srs->frames_expected, 0);
  EXPECT_TRUE(srs->records.empty());
  EXPECT_GT(r.find(TaskId::kHT)->frames_executed, 0);
}

TEST_F(RunnerTest, MismatchedCostTableThrows) {
  const auto sys_a = hw::make_accelerator('A', 4096);
  const auto sys_m = hw::make_accelerator('M', 4096);
  const CostTable table_a(sys_a, cost_model_);
  EXPECT_THROW(ScenarioRunner(sys_m, table_a), std::invalid_argument);
}

TEST_F(RunnerTest, UtilizationBoundedByOne) {
  const auto r = run('J', 4096, scenario_by_name("AR Gaming"));
  for (std::size_t sa = 0; sa < r.sub_accel_busy_ms.size(); ++sa) {
    EXPECT_GE(r.utilization(sa), 0.0);
    EXPECT_LE(r.utilization(sa), 1.0);
  }
  EXPECT_EQ(r.utilization(99), 0.0);  // out of range is defined as 0
}

/// Property: across all scenarios x a few accelerators, the run result
/// satisfies the core invariants.
class RunnerSweep
    : public ::testing::TestWithParam<std::tuple<std::string, char>> {};

TEST_P(RunnerSweep, CoreInvariants) {
  const auto& [scenario_name, accel_id] = GetParam();
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::make_accelerator(accel_id, 8192);
  const CostTable table(sys, cm);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  const auto r = runner.run(scenario_by_name(scenario_name), sched,
                            RunConfig{1000.0, 5, true, 2.0});
  EXPECT_EQ(r.scenario_name, scenario_name);
  EXPECT_GT(r.total_energy_mj, 0.0);
  for (const auto& m : r.per_model) {
    EXPECT_GE(m.qoe(), 0.0);
    EXPECT_LE(m.qoe(), 1.0);
    EXPECT_GE(m.frames_executed, 0);
    EXPECT_GE(m.frames_dropped, 0);
    EXPECT_LE(m.deadline_misses, m.frames_executed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RunnerSweep,
    ::testing::Combine(::testing::Values("Social Interaction A",
                                         "Outdoor Activity A", "AR Assistant",
                                         "AR Gaming", "VR Gaming"),
                       ::testing::Values('A', 'F', 'J', 'M')),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (auto& c : n) {
        if (c == ' ') c = '_';
      }
      return n + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace xrbench::runtime

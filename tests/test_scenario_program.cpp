#include "workload/scenario_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/harness.h"
#include "core/sweep.h"
#include "workload/scenario_io.h"

namespace xrbench::workload {
namespace {

using models::TaskId;

// ---- Exact-equality helpers (the determinism contract is bitwise) ---------

void expect_records_identical(const runtime::RecordStore& a,
                              const runtime::RecordStore& b,
                              const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ra = a[i];
    const auto rb = b[i];
    EXPECT_EQ(ra.task, rb.task) << context << " record " << i;
    EXPECT_EQ(ra.frame, rb.frame) << context << " record " << i;
    EXPECT_EQ(ra.treq_ms, rb.treq_ms) << context << " record " << i;
    EXPECT_EQ(ra.tdl_ms, rb.tdl_ms) << context << " record " << i;
    EXPECT_EQ(ra.dropped, rb.dropped) << context << " record " << i;
    EXPECT_EQ(ra.sub_accel, rb.sub_accel) << context << " record " << i;
    EXPECT_EQ(ra.dvfs_level, rb.dvfs_level) << context << " record " << i;
    EXPECT_EQ(ra.dispatch_ms, rb.dispatch_ms) << context << " record " << i;
    EXPECT_EQ(ra.complete_ms, rb.complete_ms) << context << " record " << i;
    EXPECT_EQ(ra.energy_mj, rb.energy_mj) << context << " record " << i;
  }
}

void expect_runs_identical(const runtime::ScenarioRunResult& a,
                           const runtime::ScenarioRunResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.duration_ms, b.duration_ms) << context;
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << context;
  ASSERT_EQ(a.sub_accel_busy_ms.size(), b.sub_accel_busy_ms.size());
  for (std::size_t i = 0; i < a.sub_accel_busy_ms.size(); ++i) {
    EXPECT_EQ(a.sub_accel_busy_ms[i], b.sub_accel_busy_ms[i]) << context;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size()) << context;
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].sub_accel, b.timeline[i].sub_accel) << context;
    EXPECT_EQ(a.timeline[i].task, b.timeline[i].task) << context;
    EXPECT_EQ(a.timeline[i].frame, b.timeline[i].frame) << context;
    EXPECT_EQ(a.timeline[i].start_ms, b.timeline[i].start_ms) << context;
    EXPECT_EQ(a.timeline[i].end_ms, b.timeline[i].end_ms) << context;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size()) << context;
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const auto& ma = a.per_model[m];
    const auto& mb = b.per_model[m];
    EXPECT_EQ(ma.task, mb.task) << context;
    EXPECT_EQ(ma.frames_expected, mb.frames_expected) << context;
    EXPECT_EQ(ma.frames_executed, mb.frames_executed) << context;
    EXPECT_EQ(ma.frames_dropped, mb.frames_dropped) << context;
    EXPECT_EQ(ma.deadline_misses, mb.deadline_misses) << context;
    expect_records_identical(ma.records, mb.records,
                             context + " model " + std::to_string(m));
  }
}

void expect_scores_identical(const core::ScenarioScore& a,
                             const core::ScenarioScore& b,
                             const std::string& context) {
  EXPECT_EQ(a.overall, b.overall) << context;
  EXPECT_EQ(a.realtime, b.realtime) << context;
  EXPECT_EQ(a.energy, b.energy) << context;
  EXPECT_EQ(a.qoe, b.qoe) << context;
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << context;
  EXPECT_EQ(a.frame_drop_rate, b.frame_drop_rate) << context;
  ASSERT_EQ(a.models.size(), b.models.size()) << context;
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    EXPECT_EQ(a.models[m].task, b.models[m].task) << context;
    EXPECT_EQ(a.models[m].combined, b.models[m].combined) << context;
    EXPECT_EQ(a.models[m].qoe, b.models[m].qoe) << context;
  }
}

// ---- Structure & registry -------------------------------------------------

TEST(ScenarioProgram, ValidationRejectsMalformedPrograms) {
  ScenarioProgram empty;
  empty.name = "empty";
  EXPECT_THROW(validate_program(empty), std::invalid_argument);

  ScenarioProgram bad_duration =
      single_phase_program(scenario_by_name("AR Gaming"), 500.0);
  bad_duration.phases.front().duration_ms = 0.0;
  EXPECT_THROW(validate_program(bad_duration), std::invalid_argument);

  ScenarioProgram ok = single_phase_program(scenario_by_name("AR Gaming"),
                                            500.0);
  EXPECT_NO_THROW(validate_program(ok));
  EXPECT_EQ(ok.total_duration_ms(), 500.0);
}

TEST(ScenarioProgram, ExtensionProgramsAreRegisteredAndValid) {
  const auto& programs = extension_programs();
  ASSERT_GE(programs.size(), 3u);
  for (const auto& p : programs) {
    EXPECT_GE(p.num_phases(), 3u) << p.name;
    EXPECT_NO_THROW(validate_program(p)) << p.name;
    EXPECT_EQ(&program_by_name(p.name), &p);
  }
  // Dynamic detection spans phases: the hand-off program's keyword-gated
  // cascades make it stochastic, so benches average trials.
  EXPECT_TRUE(is_dynamic_program(program_by_name("Scenario Hand-Off")));
  try {
    program_by_name("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Scenario Hand-Off"),
              std::string::npos);
  }
}

// ---- The compatibility anchor: single phase == legacy run -----------------

TEST(ScenarioProgram, SinglePhaseProgramIsBitIdenticalToLegacyRun) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  core::HarnessOptions opt;
  opt.run.duration_ms = 600.0;
  opt.governor = "deadline-aware";
  const core::Harness harness(system, opt);

  for (const char* name :
       {"AR Gaming", "Social Interaction A", "Outdoor Activity A"}) {
    const auto& scenario = scenario_by_name(name);
    const auto program = single_phase_program(scenario, opt.run.duration_ms);
    for (std::uint64_t seed : {42ull, 1234ull}) {
      const auto legacy = harness.run_once(scenario, seed);
      const auto programmed = harness.run_program_once(program, seed);
      EXPECT_EQ(programmed.scenario_name, legacy.scenario_name);
      ASSERT_EQ(programmed.phase_start_ms.size(), 1u);
      EXPECT_EQ(programmed.phase_start_ms.front(), 0.0);
      expect_runs_identical(programmed, legacy, std::string(name));
      expect_scores_identical(
          core::score_scenario(programmed, opt.score),
          core::score_scenario(legacy, opt.score), std::string(name));
    }
  }
}

TEST(ScenarioProgram, HarnessProgramTrialsMatchScenarioTrials) {
  // The trial-averaged program outcome of a single-phase program equals the
  // scenario outcome (same dynamic-trial fan-out, same seeds).
  core::HarnessOptions opt;
  opt.run.duration_ms = 400.0;
  opt.dynamic_trials = 4;
  const core::Harness harness(hw::make_accelerator('J', 4096), opt);
  const auto& scenario = scenario_by_name("Outdoor Activity A");
  const auto sc = harness.run_scenario(scenario);
  const auto pr = harness.run_program(
      single_phase_program(scenario, opt.run.duration_ms));
  EXPECT_EQ(sc.trials, pr.trials);
  expect_scores_identical(sc.score, pr.score, "trial average");
}

// ---- Multi-phase semantics ------------------------------------------------

TEST(ScenarioProgram, PhasesStitchOntoOneContinuousTimeline) {
  core::HarnessOptions opt;
  const core::Harness harness(hw::make_accelerator('J', 8192), opt);
  const auto& program = program_by_name("Multi-User Co-Presence");
  const auto run = harness.run_program_once(program, 42);

  EXPECT_EQ(run.duration_ms, program.total_duration_ms());
  ASSERT_EQ(run.phase_start_ms.size(), program.num_phases());
  double expected_start = 0.0;
  for (std::size_t p = 0; p < program.num_phases(); ++p) {
    EXPECT_EQ(run.phase_start_ms[p], expected_start);
    expected_start += program.phases[p].duration_ms;
  }
  // The timeline is globally sorted and every phase contributed work beyond
  // its start offset.
  for (std::size_t i = 1; i < run.timeline.size(); ++i) {
    EXPECT_GE(run.timeline[i].start_ms, run.timeline[i - 1].start_ms);
  }
  EXPECT_GT(run.timeline.back().start_ms, run.phase_start_ms.back());
  // Cumulative QoE accounting: HT runs in phases 1 (45 FPS) and 2 (30 FPS)
  // of the co-presence program, so its expected frames span both phases.
  const auto* ht = run.find(TaskId::kHT);
  ASSERT_NE(ht, nullptr);
  EXPECT_EQ(ht->frames_expected,
            static_cast<std::int64_t>(45 * 0.4 + 30 * 0.4));
  // Records from the second HT phase sit past the phase boundary.
  bool past_boundary = false;
  for (const auto& rec : ht->records) {
    if (rec.treq_ms >= run.phase_start_ms.back()) past_boundary = true;
  }
  EXPECT_TRUE(past_boundary);
}

TEST(ScenarioProgram, PhaseBoundaryRetirementIsDeterministic) {
  // Two runs of the same hand-off program at the same seed are bitwise
  // equal — in-flight frames retire the same way at every boundary.
  core::HarnessOptions opt;
  const core::Harness harness(hw::make_accelerator('G', 4096), opt);
  const auto& program = program_by_name("Scenario Hand-Off");
  const auto a = harness.run_program_once(program, 7);
  const auto b = harness.run_program_once(program, 7);
  expect_runs_identical(a, b, "repeat run");
}

// ---- Sweep engine: serial vs parallel byte identity -----------------------

TEST(ScenarioProgram, SweepProgramPointsByteIdenticalAcross1248Workers) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 5;
  std::vector<core::ProgramSweepPoint> points;
  for (const auto& program : extension_programs()) {
    points.push_back({program.name, hw::make_accelerator('J', 4096), opt,
                      program});
  }
  core::SweepEngine serial(0);
  const auto baseline = serial.run_program_points(points);
  ASSERT_EQ(baseline.size(), points.size());
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      const std::string context =
          points[p].label + " @ " + std::to_string(workers) + " workers";
      EXPECT_EQ(got[p].trials, baseline[p].trials) << context;
      expect_scores_identical(got[p].score, baseline[p].score, context);
      expect_runs_identical(got[p].last_run, baseline[p].last_run, context);
    }
  }
}

TEST(ScenarioProgram, SweepMatchesHarnessExactly) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 3;
  const auto& program = program_by_name("Bursty Notification Over Base");
  const auto system = hw::make_accelerator('J', 4096);
  core::SweepEngine engine(4);
  const auto outcomes =
      engine.run_program_points({{program.name, system, opt, program}});
  ASSERT_EQ(outcomes.size(), 1u);
  const core::Harness harness(system, opt);
  const auto expected = harness.run_program(program);
  EXPECT_EQ(outcomes.front().trials, expected.trials);
  expect_scores_identical(outcomes.front().score, expected.score, "sweep");
  expect_runs_identical(outcomes.front().last_run, expected.last_run,
                        "sweep");
}

// ---- Program-named policies -----------------------------------------------

TEST(ScenarioProgram, ProgramPolicyNamesOverrideHarnessOptions) {
  core::HarnessOptions opt;
  opt.scheduler = "latency-greedy";
  const core::Harness harness(hw::make_accelerator('J', 4096), opt);
  auto program = single_phase_program(scenario_by_name("AR Gaming"), 500.0);
  const auto greedy = harness.run_program_once(program, 42);
  program.scheduler = "round-robin";
  const auto rr = harness.run_program_once(program, 42);
  // The program's own scheduler took effect (policies differ on an
  // overloaded design).
  const auto sg = core::score_scenario(greedy, opt.score);
  const auto sr = core::score_scenario(rr, opt.score);
  EXPECT_NE(sg.overall, sr.overall);
}

// ---- Text-config round-trip -----------------------------------------------

TEST(ScenarioProgramIo, RoundTripsThroughConfigText) {
  for (const auto& program : extension_programs()) {
    const auto text = to_config_text(program);
    const auto parsed = program_from_config_text(text);
    EXPECT_EQ(parsed.name, program.name);
    EXPECT_EQ(parsed.description, program.description);
    EXPECT_EQ(parsed.scheduler, program.scheduler);
    EXPECT_EQ(parsed.governor, program.governor);
    ASSERT_EQ(parsed.phases.size(), program.phases.size()) << program.name;
    for (std::size_t p = 0; p < parsed.phases.size(); ++p) {
      const auto& pa = parsed.phases[p];
      const auto& pb = program.phases[p];
      EXPECT_EQ(pa.duration_ms, pb.duration_ms) << program.name;
      EXPECT_EQ(pa.seed_offset, pb.seed_offset) << program.name;
      EXPECT_EQ(pa.scenario.name, pb.scenario.name) << program.name;
      ASSERT_EQ(pa.scenario.models.size(), pb.scenario.models.size());
      for (std::size_t m = 0; m < pa.scenario.models.size(); ++m) {
        EXPECT_EQ(pa.scenario.models[m].task, pb.scenario.models[m].task);
        EXPECT_EQ(pa.scenario.models[m].target_fps,
                  pb.scenario.models[m].target_fps);
        EXPECT_EQ(pa.scenario.models[m].trigger_probability,
                  pb.scenario.models[m].trigger_probability);
      }
    }
    // And the parsed program runs bitwise-identically to the original.
    core::HarnessOptions opt;
    const core::Harness harness(hw::make_accelerator('J', 4096), opt);
    expect_runs_identical(harness.run_program_once(parsed, 42),
                          harness.run_program_once(program, 42),
                          program.name + " parsed");
  }
}

TEST(ScenarioProgramIo, ParsesPoliciesAndRegistryReferences) {
  const std::string text =
      "[program]\n"
      "name = Mixed\n"
      "scheduler = edf\n"
      "governor = race-to-idle\n"
      "[phase]\n"
      "scenario = AR Gaming\n"
      "duration_ms = 250\n"
      "[phase]\n"
      "scenario = VR Gaming\n"
      "duration_ms = 250\n"
      "seed_offset = 3\n";
  const auto program = program_from_config_text(text);
  EXPECT_EQ(program.scheduler, "edf");
  EXPECT_EQ(program.governor, "race-to-idle");
  ASSERT_EQ(program.phases.size(), 2u);
  EXPECT_EQ(program.phases[0].scenario.name, "AR Gaming");
  EXPECT_EQ(program.phases[1].seed_offset, 3u);
}

TEST(ScenarioProgramIo, RejectsMalformedPrograms) {
  // No phases.
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"),
               std::invalid_argument);
  // Unknown scenario reference.
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"
                                        "[phase]\nscenario = nope\n"
                                        "duration_ms = 100\n"),
               std::invalid_argument);
  // Non-positive duration names the line.
  try {
    program_from_config_text(
        "[program]\nname = x\n"
        "[phase]\nscenario = AR Gaming\nduration_ms = -5\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
  // A [model] before any [scenario].
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"
                                        "[model]\ntask = HT\nfps = 30\n"
                                        "[phase]\nscenario = AR Gaming\n"
                                        "duration_ms = 100\n"),
               std::invalid_argument);
}

TEST(ScenarioProgramIo, RejectsNanTriggerProbability) {
  // NaN fails every comparison, so a "p < 0 || p > 1" range test let it
  // through and the run scored a program whose cascade never fired.
  const std::string model =
      "[model]\ntask = KD\nfps = 3\n"
      "[model]\ntask = SR\nfps = 3\ndepends_on = KD\n"
      "dependency = control\ntrigger_probability = nan\n";
  EXPECT_THROW(from_config_text("[scenario]\nname = s\n" + model),
               std::invalid_argument);
  EXPECT_THROW(program_from_config_text("[program]\nname = x\n"
                                        "[scenario]\nname = s\n" +
                                        model +
                                        "[phase]\nscenario = s\n"
                                        "duration_ms = 100\n"),
               std::invalid_argument);
  // The programmatic check catches a scenario built in code.
  auto program = single_phase_program(scenario_by_name("AR Gaming"), 100.0);
  program.phases[0].scenario.models.back().trigger_probability =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_program(program), std::invalid_argument);
}

// ---- DVFS transition-latency penalty --------------------------------------

TEST(DvfsTransitionPenalty, ZeroPenaltyIsBitIdenticalToBaseline) {
  auto base = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  auto zero = base;
  for (auto& sa : zero.sub_accels) sa.dvfs.transition_ms = 0.0;
  core::HarnessOptions opt;
  opt.governor = "deadline-aware";
  const core::Harness a(base, opt);
  const core::Harness b(zero, opt);
  const auto& scenario = scenario_by_name("AR Gaming");
  expect_runs_identical(a.run_once(scenario, 42), b.run_once(scenario, 42),
                        "zero penalty");
}

TEST(DvfsTransitionPenalty, LevelSwitchesChargeLatency) {
  auto penalized = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  for (auto& sa : penalized.sub_accels) sa.dvfs.transition_ms = 2.0;
  ASSERT_TRUE(penalized.sub_accels.front().dvfs.valid());
  const auto baseline_sys =
      hw::with_default_dvfs(hw::make_accelerator('J', 4096));

  core::HarnessOptions opt;
  opt.governor = "deadline-aware";
  const core::Harness base(baseline_sys, opt);
  const core::Harness pen(penalized, opt);
  const auto& scenario = scenario_by_name("AR Gaming");
  const auto a = base.run_once(scenario, 42);
  const auto b = pen.run_once(scenario, 42);

  // The deadline-aware governor switches levels on this overloaded design;
  // confirm the baseline actually exercises switches (else the test is
  // vacuous), then require the penalized run to spend strictly more busy
  // time — every switch now stalls the sub-accelerator.
  std::vector<std::vector<std::pair<double, int>>> dispatches(
      baseline_sys.sub_accels.size());
  for (const auto& ms : a.per_model) {
    for (const auto& rec : ms.records) {
      if (rec.dropped) continue;
      dispatches[static_cast<std::size_t>(rec.sub_accel)].push_back(
          {rec.dispatch_ms, rec.dvfs_level});
    }
  }
  int switches = 0;
  for (auto& d : dispatches) {
    std::sort(d.begin(), d.end());
    for (std::size_t i = 1; i < d.size(); ++i) {
      if (d[i].second != d[i - 1].second) ++switches;
    }
  }
  ASSERT_GT(switches, 0);

  double base_busy = 0.0, pen_busy = 0.0;
  for (double ms : a.sub_accel_busy_ms) base_busy += ms;
  for (double ms : b.sub_accel_busy_ms) pen_busy += ms;
  EXPECT_GT(pen_busy, base_busy);
}

}  // namespace
}  // namespace xrbench::workload

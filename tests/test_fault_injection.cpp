#include "runtime/fault_plan.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/harness.h"
#include "core/sweep.h"
#include "hw/config_io.h"
#include "runtime/policy_registry.h"
#include "runtime/scenario_runner.h"
#include "workload/scenario_io.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

FaultSpec sample_spec() {
  FaultSpec f;
  f.transient_rate = 0.05;
  f.outage_rate_per_s = 0.5;
  f.outage_ms = 20.0;
  f.throttle_rate_per_s = 1.0;
  f.throttle_ms = 15.0;
  f.throttle_max_level = 1;
  f.max_retries = 2;
  f.retry_backoff_ms = 2.0;
  return f;
}

// ---- FaultPlan determinism ------------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule) {
  const auto spec = sample_spec();
  const FaultPlan a(spec, 42, 4, 1000.0);
  const FaultPlan b(spec, 42, 4, 1000.0);
  for (std::size_t sa = 0; sa < 4; ++sa) {
    ASSERT_EQ(a.outages(sa).size(), b.outages(sa).size());
    for (std::size_t i = 0; i < a.outages(sa).size(); ++i) {
      EXPECT_EQ(a.outages(sa)[i].start_ms, b.outages(sa)[i].start_ms);
      EXPECT_EQ(a.outages(sa)[i].end_ms, b.outages(sa)[i].end_ms);
    }
    ASSERT_EQ(a.throttles(sa).size(), b.throttles(sa).size());
  }
  for (std::int64_t frame = 0; frame < 200; ++frame) {
    EXPECT_EQ(a.transient_fault(TaskId::kHT, frame, 0),
              b.transient_fault(TaskId::kHT, frame, 0));
  }
}

TEST(FaultPlan, DifferentSeedDifferentSchedule) {
  const auto spec = sample_spec();
  const FaultPlan a(spec, 42, 2, 5000.0);
  const FaultPlan b(spec, 43, 2, 5000.0);
  int differing = 0;
  for (std::int64_t frame = 0; frame < 2000; ++frame) {
    if (a.transient_fault(TaskId::kHT, frame, 0) !=
        b.transient_fault(TaskId::kHT, frame, 0)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, RetryIsAFreshDraw) {
  // attempt keys the Bernoulli redraw: across many frames, attempt 0 and
  // attempt 1 must not produce identical decision streams.
  const auto spec = sample_spec();
  const FaultPlan plan(spec, 7, 1, 1000.0);
  int differing = 0;
  for (std::int64_t frame = 0; frame < 5000; ++frame) {
    if (plan.transient_fault(TaskId::kDE, frame, 0) !=
        plan.transient_fault(TaskId::kDE, frame, 1)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, WindowsAreOrderedAndSized) {
  FaultSpec spec;
  spec.outage_rate_per_s = 5.0;
  spec.outage_ms = 20.0;
  const FaultPlan plan(spec, 11, 3, 10000.0);
  for (std::size_t sa = 0; sa < 3; ++sa) {
    double prev_end = 0.0;
    for (const auto& w : plan.outages(sa)) {
      EXPECT_GE(w.start_ms, prev_end);  // non-overlapping, ascending
      EXPECT_EQ(w.end_ms - w.start_ms, 20.0);
      prev_end = w.end_ms;
    }
  }
}

TEST(FaultPlan, EmptySpecIsDisabled) {
  EXPECT_FALSE(FaultSpec{}.enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
  FaultInjector injector;
  injector.arm(nullptr, 0);
  EXPECT_FALSE(injector.active());
  const FaultPlan empty;
  injector.arm(&empty, 2);
  EXPECT_FALSE(injector.active());
}

// ---- Correlated fault domains ---------------------------------------------

TEST(FaultDomain, MembersShareOneWindowSchedule) {
  const auto spec = sample_spec();
  const FaultPlan plan(spec, 42, 4, 5000.0, {{0, 1}});
  EXPECT_EQ(plan.num_domains(), 1u);
  EXPECT_EQ(plan.domain_of(0), 0);
  EXPECT_EQ(plan.domain_of(1), 0);
  EXPECT_EQ(plan.domain_of(2), -1);
  EXPECT_EQ(plan.domain_of(3), -1);
  ASSERT_EQ(plan.outages(0).size(), plan.outages(1).size());
  for (std::size_t i = 0; i < plan.outages(0).size(); ++i) {
    EXPECT_EQ(plan.outages(0)[i].start_ms, plan.outages(1)[i].start_ms);
    EXPECT_EQ(plan.outages(0)[i].end_ms, plan.outages(1)[i].end_ms);
  }
  ASSERT_EQ(plan.throttles(0).size(), plan.throttles(1).size());
  for (std::size_t i = 0; i < plan.throttles(0).size(); ++i) {
    EXPECT_EQ(plan.throttles(0)[i].start_ms, plan.throttles(1)[i].start_ms);
    EXPECT_EQ(plan.throttles(0)[i].end_ms, plan.throttles(1)[i].end_ms);
  }
}

TEST(FaultDomain, UngroupedUnitsKeepTheirPerUnitStreams) {
  // Grouping units 0 and 1 must not perturb the schedules of the ungrouped
  // units — bit-identity for every config that predates fault domains.
  const auto spec = sample_spec();
  const FaultPlan grouped(spec, 42, 4, 5000.0, {{0, 1}});
  const FaultPlan plain(spec, 42, 4, 5000.0);
  for (std::size_t sa = 2; sa < 4; ++sa) {
    ASSERT_EQ(grouped.outages(sa).size(), plain.outages(sa).size());
    for (std::size_t i = 0; i < plain.outages(sa).size(); ++i) {
      EXPECT_EQ(grouped.outages(sa)[i].start_ms, plain.outages(sa)[i].start_ms);
      EXPECT_EQ(grouped.outages(sa)[i].end_ms, plain.outages(sa)[i].end_ms);
    }
    ASSERT_EQ(grouped.throttles(sa).size(), plain.throttles(sa).size());
    for (std::size_t i = 0; i < plain.throttles(sa).size(); ++i) {
      EXPECT_EQ(grouped.throttles(sa)[i].start_ms,
                plain.throttles(sa)[i].start_ms);
      EXPECT_EQ(grouped.throttles(sa)[i].end_ms, plain.throttles(sa)[i].end_ms);
    }
  }
  // An empty domain list is exactly the no-domain plan.
  EXPECT_EQ(plain.num_domains(), 0u);
}

TEST(FaultDomain, RejectsOutOfRangeAndDuplicateMembers) {
  const auto spec = sample_spec();
  EXPECT_THROW(FaultPlan(spec, 42, 2, 1000.0, {{0, 5}}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan(spec, 42, 4, 1000.0, {{1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan(spec, 42, 4, 1000.0, {{0, 1}, {1, 2}}),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultPlan(spec, 42, 4, 1000.0, {{0, 1}, {2, 3}}));
}

TEST(FaultDomain, InjectorMaintainsDomainOfflineMask) {
  const auto spec = sample_spec();
  const FaultPlan plan(spec, 42, 4, 1000.0, {{0, 1}});
  FaultInjector injector;
  injector.arm(&plan, 4);
  ASSERT_EQ(injector.domain_offline_mask().size(), 1u);
  EXPECT_EQ(injector.domain_offline_mask()[0], 0);
  injector.set_offline(0, true);
  EXPECT_EQ(injector.domain_offline_mask()[0], 0);  // one of two members
  injector.set_offline(1, true);
  EXPECT_EQ(injector.domain_offline_mask()[0], 1);  // whole domain down
  injector.set_offline(0, false);
  EXPECT_EQ(injector.domain_offline_mask()[0], 0);
  // Ungrouped units never touch the domain mask.
  injector.set_offline(3, true);
  EXPECT_EQ(injector.domain_offline_mask()[0], 0);
}

TEST(FaultSpecValidation, RejectsOutOfRangeFields) {
  FaultSpec f;
  f.transient_rate = 1.5;
  EXPECT_THROW(validate_fault_spec(f), std::invalid_argument);
  f = FaultSpec{};
  f.outage_rate_per_s = 1.0;  // outage_ms missing
  EXPECT_THROW(validate_fault_spec(f), std::invalid_argument);
  f = FaultSpec{};
  f.max_retries = -1;
  EXPECT_THROW(validate_fault_spec(f), std::invalid_argument);
  f = FaultSpec{};
  f.retry_backoff_ms = -2.0;
  EXPECT_THROW(validate_fault_spec(f), std::invalid_argument);
  EXPECT_NO_THROW(validate_fault_spec(sample_spec()));
}

TEST(FaultSpecValidation, RejectsNanAndInfinity) {
  // NaN used to pass the [0, 1] transient_rate test (xrbench_cli
  // --fault-rate nan ran to exit 0).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double FaultSpec::*field :
       {&FaultSpec::transient_rate, &FaultSpec::outage_rate_per_s,
        &FaultSpec::outage_ms, &FaultSpec::throttle_rate_per_s,
        &FaultSpec::throttle_ms, &FaultSpec::retry_backoff_ms,
        &FaultSpec::checkpoint_overhead_ms}) {
    for (double bad : {nan, inf}) {
      FaultSpec f = sample_spec();
      f.*field = bad;
      EXPECT_THROW(validate_fault_spec(f), std::invalid_argument) << bad;
    }
  }
  // The [faults] parser names the line for a NaN as well.
  try {
    hw::from_config_text(
        "[chip]\nid = X\nclock_ghz = 1.0\n"
        "[faults]\ntransient_rate = nan\n"
        "[sub_accel]\ndataflow = WS\nnum_pes = 1024\nnoc_gbps = 64\n"
        "offchip_gbps = 8\nsram_kib = 2048\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

// ---- Config round-trips ---------------------------------------------------

TEST(FaultConfig, HwConfigRoundTrip) {
  auto system = hw::make_accelerator('C', 4096);
  system.faults = sample_spec();
  const auto text = hw::to_config_text(system);
  EXPECT_NE(text.find("[faults]"), std::string::npos);
  const auto parsed = hw::from_config_text(text);
  EXPECT_EQ(parsed.faults, system.faults);
}

TEST(FaultConfig, FaultFreeHwConfigWritesNoSection) {
  const auto system = hw::make_accelerator('C', 4096);
  EXPECT_EQ(hw::to_config_text(system).find("[faults]"), std::string::npos);
}

TEST(FaultConfig, ProgramConfigRoundTrip) {
  auto program = workload::program_by_name("Scenario Hand-Off");
  program.admission = "drop-early";
  program.faults = sample_spec();
  const auto text = workload::to_config_text(program);
  const auto parsed = workload::program_from_config_text(text);
  EXPECT_EQ(parsed.admission, "drop-early");
  EXPECT_EQ(parsed.faults, program.faults);
}

TEST(FaultConfig, MalformedSectionRejectedWithLineNumber) {
  const std::string text =
      "[chip]\n"
      "id = X\n"
      "clock_ghz = 1.0\n"
      "[faults]\n"
      "transient_rate = 1.7\n"
      "[sub_accel]\n"
      "dataflow = WS\n"
      "num_pes = 1024\n"
      "noc_gbps = 64\n"
      "offchip_gbps = 8\n"
      "sram_kib = 2048\n";
  try {
    hw::from_config_text(text);
    FAIL() << "malformed [faults] accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("transient_rate"), std::string::npos) << msg;
  }
}

TEST(FaultDomainConfig, HwConfigRoundTrip) {
  auto system = hw::make_accelerator('M', 4096);
  system.fault_domains = {{0, 1}, {2, 3}};
  const auto text = hw::to_config_text(system);
  EXPECT_NE(text.find("[fault_domain]"), std::string::npos);
  const auto parsed = hw::from_config_text(text);
  EXPECT_EQ(parsed.fault_domains, system.fault_domains);
}

TEST(FaultDomainConfig, NoDomainsWritesNoSection) {
  const auto text = hw::to_config_text(hw::make_accelerator('M', 4096));
  EXPECT_EQ(text.find("[fault_domain]"), std::string::npos);
}

constexpr const char* kDomainConfigPrefix =
    "[chip]\n"
    "id = X\n"
    "clock_ghz = 1.0\n"
    "[sub_accel]\n"
    "dataflow = WS\n"
    "num_pes = 1024\n"
    "noc_gbps = 64\n"
    "offchip_gbps = 8\n"
    "sram_kib = 2048\n"
    "[fault_domain]\n";  // members key lands on line 11

TEST(FaultDomainConfig, UnknownIndexRejectedWithLineNumber) {
  const std::string text = std::string(kDomainConfigPrefix) +
                           "members = 0, 7\n";
  try {
    hw::from_config_text(text);
    FAIL() << "out-of-range fault_domain member accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 11"), std::string::npos) << msg;
    EXPECT_NE(msg.find("member 7"), std::string::npos) << msg;
  }
}

TEST(FaultDomainConfig, DuplicateMemberRejectedWithLineNumber) {
  const std::string text = std::string(kDomainConfigPrefix) +
                           "members = 0, 0\n";
  try {
    hw::from_config_text(text);
    FAIL() << "duplicate fault_domain member accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 11"), std::string::npos) << msg;
    EXPECT_NE(msg.find("already belongs"), std::string::npos) << msg;
  }
}

// ---- Admission registry ---------------------------------------------------

TEST(AdmissionRegistry, BuiltInsRegisteredAndUnknownNamed) {
  const auto& registry = PolicyRegistry::instance();
  EXPECT_TRUE(registry.has_admission("admit-all"));
  EXPECT_TRUE(registry.has_admission("drop-early"));
  try {
    registry.make_admission("reject-everything");
    FAIL() << "unknown admission policy accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'admit-all'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'drop-early'"), std::string::npos) << msg;
  }
}

// ---- Telemetry abort accounting -------------------------------------------

TEST(TelemetryAbort, CountsEnergyButNeverFeedsLatencyEwma) {
  Telemetry tel;
  tel.reset(1);
  InferenceRequest req;
  req.task = TaskId::kHT;
  tel.on_dispatch(0, req, 0, 10.0, 0);
  tel.on_abort(0, 15.0, 3.0, 1.0);
  EXPECT_EQ(tel.sub_accel(0).aborts, 1);
  EXPECT_EQ(tel.sub_accel(0).busy_ms, 5.0);
  EXPECT_EQ(tel.sub_accel(0).dynamic_mj, 3.0);
  EXPECT_EQ(tel.sub_accel(0).static_mj, 1.0);
  EXPECT_EQ(tel.task_completions(TaskId::kHT), 0);
  EXPECT_EQ(tel.task_latency_ewma(TaskId::kHT), 0.0);
}

// ---- Runner-level behavior ------------------------------------------------

/// Bit-identical deep comparison of two run results: every record byte,
/// every timeline entry, every counter. EXPECT_EQ on doubles is exact.
void expect_identical(const ScenarioRunResult& a, const ScenarioRunResult& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  EXPECT_EQ(a.duration_ms, b.duration_ms);
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
  EXPECT_EQ(a.sub_accel_busy_ms, b.sub_accel_busy_ms);
  EXPECT_EQ(a.phase_start_ms, b.phase_start_ms);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].sub_accel, b.timeline[i].sub_accel);
    EXPECT_EQ(a.timeline[i].task, b.timeline[i].task);
    EXPECT_EQ(a.timeline[i].frame, b.timeline[i].frame);
    EXPECT_EQ(a.timeline[i].start_ms, b.timeline[i].start_ms);
    EXPECT_EQ(a.timeline[i].end_ms, b.timeline[i].end_ms);
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const auto& ma = a.per_model[m];
    const auto& mb = b.per_model[m];
    EXPECT_EQ(ma.task, mb.task);
    EXPECT_EQ(ma.frames_expected, mb.frames_expected);
    EXPECT_EQ(ma.frames_executed, mb.frames_executed);
    EXPECT_EQ(ma.frames_dropped, mb.frames_dropped);
    EXPECT_EQ(ma.deadline_misses, mb.deadline_misses);
    ASSERT_EQ(ma.records.size(), mb.records.size());
    for (std::size_t i = 0; i < ma.records.size(); ++i) {
      const auto ra = ma.records[i];
      const auto rb = mb.records[i];
      EXPECT_EQ(ra.task, rb.task);
      EXPECT_EQ(ra.frame, rb.frame);
      EXPECT_EQ(ra.treq_ms, rb.treq_ms);
      EXPECT_EQ(ra.tdl_ms, rb.tdl_ms);
      EXPECT_EQ(ra.dropped, rb.dropped);
      EXPECT_EQ(ra.sub_accel, rb.sub_accel);
      EXPECT_EQ(ra.dvfs_level, rb.dvfs_level);
      EXPECT_EQ(ra.dispatch_ms, rb.dispatch_ms);
      EXPECT_EQ(ra.complete_ms, rb.complete_ms);
      EXPECT_EQ(ra.energy_mj, rb.energy_mj);
      EXPECT_EQ(ra.resumed, rb.resumed);
    }
  }
  EXPECT_EQ(a.resilience.enabled, b.resilience.enabled);
  EXPECT_EQ(a.resilience.transient_faults, b.resilience.transient_faults);
  EXPECT_EQ(a.resilience.retries, b.resilience.retries);
  EXPECT_EQ(a.resilience.retry_give_ups, b.resilience.retry_give_ups);
  EXPECT_EQ(a.resilience.outage_kills, b.resilience.outage_kills);
  EXPECT_EQ(a.resilience.failovers, b.resilience.failovers);
  EXPECT_EQ(a.resilience.throttle_clamps, b.resilience.throttle_clamps);
  EXPECT_EQ(a.resilience.drops_early, b.resilience.drops_early);
  EXPECT_EQ(a.resilience.drops_late, b.resilience.drops_late);
  EXPECT_EQ(a.resilience.resumes, b.resilience.resumes);
  EXPECT_EQ(a.resilience.checkpoint_saved_ms, b.resilience.checkpoint_saved_ms);
}

class FaultRunnerTest : public ::testing::Test {
 protected:
  ScenarioRunResult run(const FaultSpec& faults,
                        AdmissionController* admission = nullptr,
                        std::uint64_t seed = 42) {
    const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
    const CostTable table(sys, cost_model_);
    const ScenarioRunner runner(sys, table);
    LatencyGreedyScheduler sched;
    RunConfig cfg;
    cfg.seed = seed;
    cfg.faults = faults;
    return runner.run(workload::scenario_by_name("AR Gaming"), sched, cfg,
                      nullptr, nullptr, admission);
  }

  costmodel::AnalyticalCostModel cost_model_;
};

TEST_F(FaultRunnerTest, EmptyPlanAndAdmitAllAreLiterallyFree) {
  // Fault-free + null admission vs empty spec + an explicit admit-all
  // controller: bit-identical results, and the resilience section stays
  // disabled (so reports print exactly the pre-fault bytes).
  const auto baseline = run(FaultSpec{});
  AdmitAllController admit_all;
  const auto with_controller = run(FaultSpec{}, &admit_all);
  expect_identical(baseline, with_controller);
  EXPECT_FALSE(baseline.resilience.enabled);
  EXPECT_FALSE(with_controller.resilience.enabled);
}

TEST_F(FaultRunnerTest, FaultedRunsAreSeedDeterministic) {
  const auto a = run(sample_spec());
  const auto b = run(sample_spec());
  expect_identical(a, b);
  EXPECT_TRUE(a.resilience.enabled);
}

TEST_F(FaultRunnerTest, TransientFaultsBurnEnergyAndCountRetries) {
  FaultSpec f;
  f.transient_rate = 0.10;
  f.max_retries = 2;
  f.retry_backoff_ms = 1.0;
  const auto faulty = run(f);
  const auto clean = run(FaultSpec{});
  EXPECT_GT(faulty.resilience.transient_faults, 0);
  EXPECT_GT(faulty.resilience.retries, 0);
  // Every transient fault resolves to exactly one of: a retry, or a give-up
  // (retry budget spent / deadline unreachable even at best latency).
  EXPECT_EQ(faulty.resilience.retries + faulty.resilience.retry_give_ups,
            faulty.resilience.transient_faults);
  // The same seed without a fault spec stays clean: the fault stream lives
  // in its own salted hash, not in the run's jitter Rng.
  EXPECT_EQ(clean.resilience.transient_faults, 0);
  EXPECT_FALSE(clean.resilience.enabled);
}

TEST_F(FaultRunnerTest, BusyIntervalsNeverStartInsideAnOutage) {
  FaultSpec f;
  f.outage_rate_per_s = 3.0;
  f.outage_ms = 25.0;
  const auto result = run(f);
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const FaultPlan plan(f, 42, sys.num_sub_accels(), 1000.0);
  EXPECT_GT(result.resilience.outage_kills + result.resilience.failovers, 0);
  for (const auto& bi : result.timeline) {
    for (const auto& w :
         plan.outages(static_cast<std::size_t>(bi.sub_accel))) {
      // Dispatching strictly inside an outage window is a fault-injection
      // bug; starting exactly at end_ms (unit back online) is legal, and
      // killed intervals END at start_ms.
      EXPECT_FALSE(bi.start_ms > w.start_ms && bi.start_ms < w.end_ms)
          << "interval starts at " << bi.start_ms << " inside outage ["
          << w.start_ms << ", " << w.end_ms << ") of unit " << bi.sub_accel;
    }
  }
}

TEST_F(FaultRunnerTest, ThrottleWindowsClampTheLevel) {
  FaultSpec f;
  f.throttle_rate_per_s = 50.0;  // dense windows so clamps certainly happen
  f.throttle_ms = 15.0;
  f.throttle_max_level = 0;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  // fixed-highest always asks for the top level, so every dispatch inside
  // a throttle window must clamp.
  auto governor = PolicyRegistry::instance().make_governor("fixed-highest");
  RunConfig cfg;
  cfg.faults = f;
  const auto result = runner.run(workload::scenario_by_name("AR Gaming"),
                                 sched, cfg, governor.get());
  EXPECT_GT(result.resilience.throttle_clamps, 0);
}

// ---- Sweep-level byte-identity -------------------------------------------

core::ProgramSweepPoint faulted_point() {
  core::ProgramSweepPoint point;
  point.system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  point.program = workload::program_by_name("Bursty Notification Over Base");
  point.options.scheduler = "edf";
  point.options.governor = "deadline-aware";
  point.options.admission = "drop-early";
  point.options.dynamic_trials = 3;
  point.options.run.faults = sample_spec();
  return point;
}

TEST(FaultSweep, ByteIdenticalAcrossWorkerCounts) {
  // The fault schedule is precomputed from the trial seed before simulation
  // starts, so the worker count cannot reorder it: 1/2/4/8-worker sweeps of
  // a faulted program must agree bit-for-bit.
  const std::vector<core::ProgramSweepPoint> points = {faulted_point()};
  core::SweepEngine serial(1);
  const auto baseline = serial.run_program_points(points);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_TRUE(baseline.front().last_run.resilience.enabled);
  for (std::size_t workers : {2u, 4u, 8u}) {
    core::SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got.front().score.overall, baseline.front().score.overall);
    EXPECT_EQ(got.front().score.qoe, baseline.front().score.qoe);
    EXPECT_EQ(got.front().score.realtime, baseline.front().score.realtime);
    EXPECT_EQ(got.front().score.energy, baseline.front().score.energy);
    expect_identical(got.front().last_run, baseline.front().last_run);
  }
}

TEST(FaultSweep, EmptyPlanSuiteSweepMatchesFaultFreeBaseline) {
  // An all-defaults FaultSpec plus the admit-all controller must reproduce
  // the fault-free sweep bit-for-bit — the "literally free" contract at
  // the suite level.
  core::SweepPoint plain;
  plain.label = "plain";
  plain.system = hw::make_accelerator('C', 8192);
  core::SweepPoint with_empty_faults = plain;
  with_empty_faults.options.admission = "admit-all";
  with_empty_faults.options.run.faults = FaultSpec{};

  core::SweepEngine engine(2);
  const auto a = engine.run_suite_points({plain});
  const auto b = engine.run_suite_points({with_empty_faults});
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.front().score.overall, b.front().score.overall);
  ASSERT_EQ(a.front().scenarios.size(), b.front().scenarios.size());
  for (std::size_t s = 0; s < a.front().scenarios.size(); ++s) {
    EXPECT_EQ(a.front().scenarios[s].score.overall,
              b.front().scenarios[s].score.overall);
    expect_identical(a.front().scenarios[s].last_run,
                     b.front().scenarios[s].last_run);
  }
}

TEST(FaultSweep, EmptyPlanHandOffProgramMatchesBaseline) {
  core::ProgramSweepPoint plain;
  plain.system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  plain.program = workload::program_by_name("Scenario Hand-Off");
  plain.options.dynamic_trials = 2;
  core::ProgramSweepPoint with_empty = plain;
  with_empty.options.admission = "admit-all";
  with_empty.options.run.faults = FaultSpec{};

  core::SweepEngine engine(2);
  const auto a = engine.run_program_points({plain});
  const auto b = engine.run_program_points({with_empty});
  EXPECT_EQ(a.front().score.overall, b.front().score.overall);
  expect_identical(a.front().last_run, b.front().last_run);
}

// ---- Graceful degradation beats giving up ---------------------------------

TEST(FaultRecovery, RetryDropEarlyBeatsNoRecoveryOnIdenticalSchedule) {
  // Bursty Notification at a 5% transient rate: the transient-fault
  // decision is a pure hash of (task, frame, attempt), so both stacks face
  // the identical fault schedule — the QoE gap is purely the recovery
  // policies. Acceptance criterion of the fault-injection PR.
  auto base = faulted_point();
  base.options.run.faults = FaultSpec{};
  base.options.run.faults.transient_rate = 0.05;

  auto no_recovery = base;
  no_recovery.options.admission = "admit-all";

  auto recovering = base;
  recovering.options.run.faults.max_retries = 2;
  recovering.options.run.faults.retry_backoff_ms = 2.0;
  recovering.options.admission = "drop-early";

  core::SweepEngine engine(4);
  const auto outcomes =
      engine.run_program_points({no_recovery, recovering});
  ASSERT_EQ(outcomes.size(), 2u);
  // Identical schedule: both runs inject from the same per-frame decision
  // stream, so the no-recovery run's fault count is a lower bound for the
  // recovering run's (retries add fresh draws on top).
  EXPECT_GT(outcomes[0].last_run.resilience.transient_faults, 0);
  EXPECT_GE(outcomes[1].last_run.resilience.transient_faults,
            outcomes[0].last_run.resilience.transient_faults);
  EXPECT_GT(outcomes[1].score.qoe, outcomes[0].score.qoe);
}

}  // namespace
}  // namespace xrbench::runtime

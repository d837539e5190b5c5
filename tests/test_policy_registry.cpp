#include "runtime/policy_registry.h"

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/sweep.h"
#include "hw/accelerator.h"
#include "runtime/cost_table.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

// ---- Name round-trips -----------------------------------------------------

TEST(PolicyRegistry, SchedulerNameRoundTripsThroughInstance) {
  const auto& registry = PolicyRegistry::instance();
  const auto names = registry.scheduler_names();
  ASSERT_GE(names.size(), 4u);
  for (const auto& name : names) {
    const auto policy = registry.make_scheduler(name);
    ASSERT_NE(policy, nullptr) << name;
    // name -> policy -> name: the instantiated policy reports the name it
    // was registered under (the registry's single-source contract).
    EXPECT_EQ(std::string(policy->name()), name);
  }
}

TEST(PolicyRegistry, GovernorNameRoundTripsThroughInstance) {
  const auto& registry = PolicyRegistry::instance();
  const auto names = registry.governor_names();
  ASSERT_GE(names.size(), 5u);
  for (const auto& name : names) {
    const auto policy = registry.make_governor(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(std::string(policy->name()), name);
  }
}

TEST(PolicyRegistry, BuiltInsMatchTheEnumTables) {
  // The registry replaced the duplicated enum-parsing tables; the enum APIs
  // stay for typed callers, and both must agree name-for-name.
  const auto& registry = PolicyRegistry::instance();
  for (auto kind : {SchedulerKind::kLatencyGreedy, SchedulerKind::kRoundRobin,
                    SchedulerKind::kEdf, SchedulerKind::kSlackAware}) {
    EXPECT_TRUE(registry.has_scheduler(scheduler_kind_name(kind)));
  }
  for (auto kind : all_governor_kinds()) {
    EXPECT_TRUE(registry.has_governor(governor_kind_name(kind)));
  }
}

// ---- Error reporting ------------------------------------------------------

TEST(PolicyRegistry, UnknownSchedulerErrorListsAvailablePolicies) {
  try {
    PolicyRegistry::instance().make_scheduler("no-such-policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos);
    EXPECT_NE(message.find("latency-greedy"), std::string::npos);
    EXPECT_NE(message.find("slack-aware"), std::string::npos);
  }
}

TEST(PolicyRegistry, UnknownGovernorErrorListsAvailablePolicies) {
  try {
    PolicyRegistry::instance().make_governor("no-such-governor");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-governor"), std::string::npos);
    EXPECT_NE(message.find("fixed-nominal"), std::string::npos);
    EXPECT_NE(message.find("race-to-idle"), std::string::npos);
  }
}

TEST(PolicyRegistry, HarnessRejectsUnknownPolicyNames) {
  core::HarnessOptions opt;
  opt.scheduler = "not-registered";
  const core::Harness harness(hw::make_accelerator('A', 4096), opt);
  EXPECT_THROW(
      harness.run_scenario(workload::scenario_by_name("AR Gaming")),
      std::invalid_argument);
}

// ---- Custom registration --------------------------------------------------

class NamedTestScheduler final : public Scheduler {
 public:
  const char* name() const override { return "test-only-sched"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override {
    if (ctx.pending == nullptr || ctx.pending->empty() ||
        ctx.idle_sub_accels == nullptr || ctx.idle_sub_accels->empty()) {
      return std::nullopt;
    }
    return Assignment{0, ctx.idle_sub_accels->front()};
  }
};

TEST(PolicyRegistry, CustomSchedulerRegistersAndResolves) {
  auto& registry = PolicyRegistry::instance();
  if (!registry.has_scheduler("test-only-sched")) {
    registry.register_scheduler(
        "test-only-sched", [] { return std::make_unique<NamedTestScheduler>(); });
  }
  const auto policy = registry.make_scheduler("test-only-sched");
  EXPECT_STREQ(policy->name(), "test-only-sched");
  // Duplicate registration is an error, not a silent override.
  EXPECT_THROW(registry.register_scheduler(
                   "test-only-sched",
                   [] { return std::make_unique<NamedTestScheduler>(); }),
               std::invalid_argument);
}

// ---- Per-sub-accelerator governor maps ------------------------------------

TEST(PolicyRegistry, GovernorMapRoutesPerSubAccelerator) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  ASSERT_GE(system.sub_accels.size(), 2u);
  costmodel::AnalyticalCostModel cm;
  const CostTable costs(system, cm);

  // Base fixed-lowest, sub-accel 1 overridden to fixed-highest.
  const auto governor = PolicyRegistry::instance().make_governor_map(
      "fixed-lowest", {{1, "fixed-highest"}});

  InferenceRequest req;
  req.task = TaskId::kHT;
  req.tdl_ms = 1e9;
  DispatchContext ctx;
  ctx.request = &req;
  ctx.costs = &costs;

  ctx.sub_accel = 0;
  EXPECT_EQ(governor->level_for(ctx), 0u);
  ctx.sub_accel = 1;
  EXPECT_EQ(governor->level_for(ctx), costs.num_levels(1) - 1);
}

TEST(PolicyRegistry, OutOfRangeGovernorOverrideIsRejected) {
  // An override naming a sub-accelerator the system does not have would be
  // silently inert; the harness rejects it at construction instead.
  core::HarnessOptions opt;
  opt.governor_overrides = {{7, "race-to-idle"}};
  const auto system = hw::make_accelerator('J', 4096);  // 2 sub-accels
  EXPECT_THROW(core::Harness(system, opt), std::invalid_argument);
  core::SweepEngine engine(0);
  EXPECT_THROW(engine.run_scenario_points(
                   {{"bad", system, opt,
                     workload::scenario_by_name("AR Gaming")}}),
               std::invalid_argument);
}

TEST(PolicyRegistry, GovernorMapWithoutOverridesIsThePlainPolicy) {
  const auto governor =
      PolicyRegistry::instance().make_governor_map("deadline-aware", {});
  EXPECT_STREQ(governor->name(), "deadline-aware");
}

TEST(PolicyRegistry, HarnessGovernorOverridesChangeSubAccelLevels) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  core::HarnessOptions opt;
  opt.governor = "fixed-lowest";
  opt.governor_overrides = {{1, "fixed-highest"}};
  const core::Harness harness(system, opt);
  const auto out =
      harness.run_scenario(workload::scenario_by_name("AR Gaming"));
  // Every executed inference ran at the lowest level on sub-accel 0 and at
  // the highest on sub-accel 1 — the override routed by hardware index.
  const auto top = static_cast<std::int32_t>(
      harness.cost_table().num_levels(1) - 1);
  bool saw0 = false, saw1 = false;
  for (const auto& ms : out.last_run.per_model) {
    for (const auto& rec : ms.records) {
      if (rec.dropped) continue;
      if (rec.sub_accel == 0) {
        EXPECT_EQ(rec.dvfs_level, 0);
        saw0 = true;
      } else if (rec.sub_accel == 1) {
        EXPECT_EQ(rec.dvfs_level, top);
        saw1 = true;
      }
    }
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

}  // namespace
}  // namespace xrbench::runtime

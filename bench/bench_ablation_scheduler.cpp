// Ablation: scheduling policy. The paper ships a latency-greedy scheduler
// for cost-model runs and a round-robin one for real systems, and invites
// users to plug in their own (§3.5, Figure 2's yellow boxes). This bench
// compares every registered scheduling policy on the two overloaded
// scenarios — the policy list comes from the PolicyRegistry, so a scheduler
// registered at startup joins the ablation without touching this bench.

#include <iostream>

#include "core/harness.h"
#include "runtime/policy_registry.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  const auto schedulers =
      runtime::PolicyRegistry::instance().scheduler_names();
  util::CsvWriter csv("bench_output/ablation_scheduler.csv");
  csv.header({"scheduler", "accelerator", "total_pes", "scenario", "realtime",
              "energy", "qoe", "overall", "drop_rate"});

  for (const char* scenario_name : {"AR Gaming", "AR Assistant", "VR Gaming"}) {
    for (std::int64_t pes : {4096ll, 8192ll}) {
      std::cout << "=== Scheduler ablation: " << scenario_name
                << ", accelerator J, " << pes << " PEs ===\n\n";
      util::TablePrinter table(
          {"Scheduler", "Realtime", "Energy", "QoE", "Overall", "Drop rate"});
      for (const auto& scheduler : schedulers) {
        core::HarnessOptions opt;
        opt.scheduler = scheduler;
        opt.dynamic_trials = 20;
        core::Harness harness(hw::make_accelerator('J', pes), opt);
        const auto out =
            harness.run_scenario(workload::scenario_by_name(scenario_name));
        table.add_row({scheduler,
                       util::fmt_double(out.score.realtime),
                       util::fmt_double(out.score.energy),
                       util::fmt_double(out.score.qoe),
                       util::fmt_double(out.score.overall),
                       util::fmt_percent(out.score.frame_drop_rate)});
        csv.row({scheduler, "J",
                 util::CsvWriter::cell(pes), scenario_name,
                 util::CsvWriter::cell(out.score.realtime),
                 util::CsvWriter::cell(out.score.energy),
                 util::CsvWriter::cell(out.score.qoe),
                 util::CsvWriter::cell(out.score.overall),
                 util::CsvWriter::cell(out.score.frame_drop_rate)});
      }
      table.print(std::cout);
      std::cout << "\n";
    }
  }
  std::cout << "CSV written to bench_output/ablation_scheduler.csv\n";
  return 0;
}

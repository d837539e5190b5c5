// Ablation: DVFS governor policies. Appendix B.1 notes that energy is "a
// knob, not an absolute minimization target": a system can slow down to the
// deadline (saving power) or sprint and race to idle. The original version
// of this bench faked DVFS by rebuilding the whole accelerator at each
// clock; now the accelerator system is built ONCE with a per-sub-accelerator
// V/f operating-point table, and the sweep varies only the FrequencyGovernor
// the dispatcher consults. All (scenario x governor) points run through the
// SweepEngine, so serial (XRBENCH_THREADS=0) and parallel runs produce
// byte-identical reports.

#include <iostream>

#include "core/sweep.h"
#include "runtime/policy_registry.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  util::CsvWriter csv("bench_output/ablation_dvfs.csv");
  csv.header({"scenario", "governor", "realtime", "energy", "qoe", "overall",
              "drop_rate"});

  // One accelerator system for the whole sweep: design J at 4K PEs with the
  // default five-point DVFS ladder on both sub-accelerators.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));

  // The two DVFS-stressing extension scenarios (beyond Table 2).
  const std::vector<std::string> scenario_names = {"Low-Power Wearable",
                                                   "Bursty Notification"};

  // Every registered governor, straight from the PolicyRegistry — a policy
  // registered at startup joins the ablation without touching this bench.
  const auto governors = runtime::PolicyRegistry::instance().governor_names();

  std::vector<core::ScenarioSweepPoint> points;
  for (const auto& name : scenario_names) {
    for (const auto& governor : governors) {
      core::HarnessOptions opt;
      opt.governor = governor;
      core::ScenarioSweepPoint point;
      point.label = name + "/" + governor;
      point.system = system;
      point.options = opt;
      point.scenario = workload::scenario_by_name(name);
      points.push_back(std::move(point));
    }
  }

  core::SweepEngine engine;
  const auto outcomes = engine.run_scenario_points(points);

  const std::size_t per_scenario = governors.size();
  for (std::size_t s = 0; s < scenario_names.size(); ++s) {
    std::cout << "=== DVFS governor sweep: " << scenario_names[s]
              << " on accelerator J (4K PEs, 5 V/f levels) ===\n\n";
    util::TablePrinter table(
        {"Governor", "Realtime", "Energy", "QoE", "Overall", "Drop rate"});
    for (std::size_t g = 0; g < per_scenario; ++g) {
      const auto& point = points[s * per_scenario + g];
      const auto& out = outcomes[s * per_scenario + g];
      const std::string& governor = governors[g];
      table.add_row({governor, util::fmt_double(out.score.realtime),
                     util::fmt_double(out.score.energy),
                     util::fmt_double(out.score.qoe),
                     util::fmt_double(out.score.overall),
                     util::fmt_percent(out.score.frame_drop_rate)});
      csv.row({point.scenario.name, governor,
               util::CsvWriter::cell(out.score.realtime),
               util::CsvWriter::cell(out.score.energy),
               util::CsvWriter::cell(out.score.qoe),
               util::CsvWriter::cell(out.score.overall),
               util::CsvWriter::cell(out.score.frame_drop_rate)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  // ---- Idle-power section -------------------------------------------------
  // The same design with a 40 mW idle term per sub-accelerator: idle time
  // now costs energy at the PARKED level's voltage, so race-to-idle (sprint,
  // park lowest) finally separates from fixed-highest (park where it ran)
  // in total energy, and the history-aware governors show their idle
  // discipline. Scores are unchanged by the idle term (it is not a
  // per-inference quantity); the new column is the run's total mJ.
  auto idle_dvfs = hw::default_dvfs_state(1.0);
  idle_dvfs.idle_mw = 40.0;
  const auto idle_system =
      hw::with_dvfs(hw::make_accelerator('J', 4096), idle_dvfs);

  std::vector<core::ScenarioSweepPoint> idle_points;
  for (const auto& name : scenario_names) {
    for (const auto& governor : governors) {
      core::HarnessOptions opt;
      opt.governor = governor;
      idle_points.push_back({name + "/" + governor + "+idle", idle_system,
                             opt, workload::scenario_by_name(name)});
    }
  }
  const auto idle_outcomes = engine.run_scenario_points(idle_points);
  for (std::size_t s = 0; s < scenario_names.size(); ++s) {
    std::cout << "=== With 40 mW idle power: " << scenario_names[s]
              << " (energy totals incl. parked-level idle) ===\n\n";
    util::TablePrinter table(
        {"Governor", "Overall", "QoE", "Total mJ (last trial)"});
    for (std::size_t g = 0; g < per_scenario; ++g) {
      const auto& out = idle_outcomes[s * per_scenario + g];
      table.add_row({governors[g], util::fmt_double(out.score.overall),
                     util::fmt_double(out.score.qoe),
                     util::fmt_double(out.last_run.total_energy_mj, 2)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Slowing to the deadline trades real-time margin for energy "
               "score; race-to-idle buys scheduling slack at the highest V/f "
               "cost (appendix B.1's DVFS remark). With the idle-power term "
               "race-to-idle undercuts fixed-highest by parking low, and "
               "ondemand undercuts both by only sprinting under load.\n"
            << "CSV written to bench_output/ablation_dvfs.csv\n";
  return 0;
}

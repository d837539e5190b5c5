// Regenerates paper Table 2 (usage scenarios x target processing rates,
// with dependency annotations) and Table 3 (input sources).

#include <iostream>

#include "util/csv.h"
#include "util/table.h"
#include "workload/input_source.h"
#include "workload/scenario.h"

using namespace xrbench;

int main() {
  std::cout << "=== Table 2: Target processing rates (FPS) per usage "
               "scenario ===\n\n";
  std::vector<std::string> cols = {"Usage Scenario"};
  for (models::TaskId t : models::all_tasks()) {
    cols.push_back(models::task_code(t));
  }
  cols.push_back("Description");
  util::TablePrinter table(cols);

  util::CsvWriter csv("bench_output/table2_scenarios.csv");
  std::vector<std::string> csv_cols = {"scenario"};
  for (models::TaskId t : models::all_tasks()) {
    csv_cols.push_back(models::task_code(t));
  }
  csv.header(csv_cols);

  for (const auto& scenario : workload::benchmark_suite()) {
    std::vector<std::string> row = {scenario.name};
    std::vector<std::string> csv_row = {scenario.name};
    for (models::TaskId t : models::all_tasks()) {
      const auto* m = scenario.find(t);
      if (m == nullptr) {
        row.push_back("-");
        csv_row.push_back("0");
        continue;
      }
      std::string cell = util::fmt_double(m->target_fps, 0);
      if (m->depends_on) {
        cell += m->dependency == workload::DependencyType::kData ? " (D"
                                                                 : " (C";
        if (m->trigger_probability < 1.0) {
          cell += ",p=" + util::fmt_double(m->trigger_probability, 2);
        }
        cell += ")";
      }
      row.push_back(cell);
      csv_row.push_back(util::fmt_double(m->target_fps, 0));
    }
    row.push_back(scenario.description);
    table.add_row(row);
    csv.row(csv_row);
  }
  table.print(std::cout);
  std::cout << "  (D) = data dependency, (C) = control dependency with "
               "trigger probability p (paper 4.1)\n\n";

  std::cout << "=== Table 3: Input sources ===\n\n";
  util::TablePrinter sources(
      {"Input Source", "Input Type", "Streaming Rate", "Jitter",
       "Init Latency"});
  for (const auto& src : workload::all_input_sources()) {
    sources.add_row({workload::input_source_name(src.id), src.input_type,
                     util::fmt_double(src.fps, 0) + " FPS",
                     "+-" + util::fmt_double(src.max_jitter_ms, 2) + " ms",
                     util::fmt_double(src.init_latency_ms, 1) + " ms"});
  }
  sources.print(std::cout);
  std::cout << "\nCSV written to bench_output/table2_scenarios.csv\n";
  return 0;
}

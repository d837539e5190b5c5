// Regenerates paper Figure 7: the ES->GE dynamic-cascading probability
// sweep (25/50/75/100%) on accelerators B and J with 4K PEs running the
// VR Gaming scenario, averaged over 200 trials (paper §4.3).
//
// The 2 x 4 grid of (accelerator, probability) points — 200 trials each —
// is evaluated by the parallel SweepEngine; scores are bit-identical to a
// serial run.

#include <iostream>

#include "core/sweep.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  constexpr int kTrials = 200;  // paper: "We run 200 experiments"
  core::HarnessOptions opt;
  opt.dynamic_trials = kTrials;
  const double probabilities[] = {0.25, 0.50, 0.75, 1.00};

  util::CsvWriter csv("bench_output/figure7_cascade_sweep.csv");
  csv.header({"accelerator", "cascade_probability", "realtime", "energy",
              "qoe", "overall"});

  std::vector<core::ScenarioSweepPoint> points;
  for (char id : {'B', 'J'}) {
    for (double p : probabilities) {
      points.push_back({std::string(1, id) + "@p" + std::to_string(p),
                        hw::make_accelerator(id, 4096), opt,
                        workload::with_cascade_probability(
                            workload::scenario_by_name("VR Gaming"),
                            models::TaskId::kGE, p)});
    }
  }

  core::SweepEngine engine;
  std::cout << "Evaluating " << points.size() << " sweep points x "
            << kTrials << " trials on " << engine.num_threads()
            << " worker threads...\n\n";
  const auto outcomes = engine.run_scenario_points(points);

  std::size_t idx = 0;
  for (char id : {'B', 'J'}) {
    std::cout << "=== Figure 7: accelerator " << id
              << " (4K PEs), VR Gaming, ES->GE cascade sweep ("
              << kTrials << " trials/point) ===\n\n";
    util::TablePrinter table(
        {"Cascade p", "Realtime", "Energy", "QoE", "Overall"});
    double first_overall = 0.0, last_overall = 0.0;
    double first_rt = 0.0, last_rt = 0.0, first_qoe = 0.0, last_qoe = 0.0;
    for (double p : probabilities) {
      const auto& out = outcomes[idx++];
      table.add_row({util::fmt_percent(p, 0),
                     util::fmt_double(out.score.realtime),
                     util::fmt_double(out.score.energy),
                     util::fmt_double(out.score.qoe),
                     util::fmt_double(out.score.overall)});
      csv.row({std::string(1, id), util::CsvWriter::cell(p),
               util::CsvWriter::cell(out.score.realtime),
               util::CsvWriter::cell(out.score.energy),
               util::CsvWriter::cell(out.score.qoe),
               util::CsvWriter::cell(out.score.overall)});
      if (p == 0.25) {
        first_overall = out.score.overall;
        first_rt = out.score.realtime;
        first_qoe = out.score.qoe;
      }
      last_overall = out.score.overall;
      last_rt = out.score.realtime;
      last_qoe = out.score.qoe;
    }
    table.print(std::cout);
    std::cout << "Overall score change 25% -> 100%: "
              << util::fmt_double(last_overall - first_overall)
              << "  (realtime " << util::fmt_double(last_rt - first_rt)
              << ", QoE " << util::fmt_double(last_qoe - first_qoe) << ")\n\n";
  }
  std::cout << "CSV written to bench_output/figure7_cascade_sweep.csv\n";
  return 0;
}

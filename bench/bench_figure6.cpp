// Regenerates paper Figure 6: execution timelines of the AR Gaming scenario
// on the 4K- and 8K-PE versions of accelerator J (WS+OS HDA), together with
// the §4.2.2 argument that hardware utilization is the wrong metric: the
// 4K system is busier yet scores far worse.

#include <iostream>

#include "core/harness.h"
#include "core/report.h"
#include "util/csv.h"
#include "util/table.h"

using namespace xrbench;

int main() {
  util::CsvWriter csv("bench_output/figure6_timeline.csv");
  csv.header({"total_pes", "sub_accel", "task", "frame", "start_ms",
              "end_ms"});
  util::TablePrinter summary({"PEs", "Utilization (mean)", "Realtime",
                              "Energy", "QoE", "Overall", "Drop rate",
                              "PD realtime"});

  for (std::int64_t pes : {4096ll, 8192ll}) {
    core::Harness harness(hw::make_accelerator('J', pes));
    const auto out =
        harness.run_scenario(workload::scenario_by_name("AR Gaming"));

    std::cout << "=== Figure 6: AR Gaming on accelerator J, " << pes
              << " PEs ===\n\n";
    core::print_scenario_report(std::cout, out);
    core::print_timeline(std::cout, out.last_run, /*until_ms=*/600.0,
                         /*resolution_ms=*/6.0);

    double util_sum = 0.0;
    for (std::size_t sa = 0; sa < out.last_run.sub_accel_busy_ms.size();
         ++sa) {
      util_sum += out.last_run.utilization(sa);
    }
    const double util_mean =
        util_sum / static_cast<double>(out.last_run.sub_accel_busy_ms.size());
    std::cout << "Mean hardware utilization: " << util::fmt_percent(util_mean)
              << "\n\n";

    const auto* pd = out.score.find(models::TaskId::kPD);
    summary.add_row({std::to_string(pes), util::fmt_percent(util_mean),
                     util::fmt_double(out.score.realtime),
                     util::fmt_double(out.score.energy),
                     util::fmt_double(out.score.qoe),
                     util::fmt_double(out.score.overall),
                     util::fmt_percent(out.score.frame_drop_rate),
                     util::fmt_double(pd ? pd->rt : 0.0)});

    for (const auto& bi : out.last_run.timeline) {
      csv.row({util::CsvWriter::cell(pes), util::CsvWriter::cell(bi.sub_accel),
               models::task_code(bi.task), util::CsvWriter::cell(bi.frame),
               util::CsvWriter::cell(bi.start_ms),
               util::CsvWriter::cell(bi.end_ms)});
    }
  }

  std::cout << "=== §4.2.2 summary: utilization vs. XRBench score ===\n\n";
  summary.print(std::cout);
  std::cout
      << "The 4K system is the busier one yet delivers the worse score: "
         "utilization does not capture frame drops or deadline misses.\n"
      << "\nCSV written to bench_output/figure6_timeline.csv\n";
  return 0;
}

// Regenerates paper Figure 8 (appendix B): the real-time score function
// over latency for different sigmoid-steepness values k, with a 1-second
// slack window as in the paper's illustration. Rendered as an ASCII plot
// plus a CSV of the exact curves.

#include <iostream>
#include <string>
#include <vector>

#include "core/score.h"
#include "util/csv.h"

using namespace xrbench;

int main() {
  // The paper's figure uses a 1 s (=1000 ms) request-to-deadline window and
  // k in {0, 1, 15, 50}; our k operates per millisecond, so the figure's
  // per-second constants map to k/1000 per ms.
  constexpr double kSlackMs = 1000.0;
  const std::vector<double> ks_per_s = {0.0, 1.0, 15.0, 50.0};

  util::CsvWriter csv("bench_output/figure8_rtscore.csv");
  csv.header({"latency_s", "k0", "k1", "k15", "k50"});

  constexpr int kCols = 80;
  constexpr int kRows = 20;
  std::vector<std::string> canvas(kRows + 1, std::string(kCols + 1, ' '));
  const char glyphs[] = {'0', '1', '5', 'L'};  // per-k markers

  for (int c = 0; c <= kCols; ++c) {
    const double latency_s = 2.0 * c / kCols;  // 0 .. 2 s
    std::vector<std::string> row = {util::CsvWriter::cell(latency_s)};
    for (std::size_t i = 0; i < ks_per_s.size(); ++i) {
      const double k_per_ms = ks_per_s[i] / 1000.0;
      const double score =
          core::rt_score(latency_s * 1000.0, kSlackMs, k_per_ms);
      row.push_back(util::CsvWriter::cell(score));
      const int r = kRows - static_cast<int>(score * kRows + 0.5);
      canvas[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          glyphs[i];
    }
    csv.row(row);
  }

  std::cout << "=== Figure 8: RtScore vs latency (slack = 1 s) ===\n";
  std::cout << "    markers: '0' k=0, '1' k=1, '5' k=15 (default), 'L' k=50\n\n";
  for (int r = 0; r <= kRows; ++r) {
    const double y = 1.0 - static_cast<double>(r) / kRows;
    std::printf("%4.2f |%s\n", y, canvas[static_cast<std::size_t>(r)].c_str());
  }
  std::cout << "     +" << std::string(kCols, '-') << "\n";
  std::cout << "      0.0                    0.5       (deadline) 1.0        "
               "          1.5                2.0 s\n\n";

  // Sanity numbers quoted in the appendix text.
  std::cout << "k=15/ms at 0.5 ms past a 10 ms deadline: "
            << core::rt_score(10.5, 10.0, 15.0) << " (≈0)\n";
  std::cout << "k=15/ms at the deadline exactly:          "
            << core::rt_score(10.0, 10.0, 15.0) << " (=0.5)\n";
  std::cout << "\nCSV written to bench_output/figure8_rtscore.csv\n";
  return 0;
}

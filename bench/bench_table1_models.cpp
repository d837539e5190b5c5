// Regenerates paper Table 1 (unit tasks, datasets, quality requirements)
// and Table 7 (model instances, operator families) from the model zoo,
// extended with the measured FLOPs/params of each proxy graph.

#include <iostream>
#include <set>

#include "models/zoo.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/unit_model.h"

using namespace xrbench;

namespace {

std::string operator_families(const costmodel::ModelGraph& g) {
  std::set<std::string> ops;
  for (const auto& l : g.layers()) {
    switch (l.type) {
      case costmodel::OpType::kConv2d:
      case costmodel::OpType::kDepthwiseConv2d:
      case costmodel::OpType::kFullyConnected:
      case costmodel::OpType::kMatMul:
      case costmodel::OpType::kLayerNorm:
      case costmodel::OpType::kSoftmax:
      case costmodel::OpType::kRoiAlign:
        ops.insert(costmodel::op_type_name(l.type));
        break;
      default:
        break;  // pool/eltwise/upsample appear in every model
    }
  }
  std::string out;
  for (const auto& o : ops) {
    if (!out.empty()) out += ", ";
    out += o;
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Table 1 / Table 7: XRBench unit tasks and proxy unit "
               "models ===\n\n";
  util::TablePrinter table(
      {"Task", "Category", "Model Instance", "Dataset", "Quality Req.",
       "GMACs", "MParams", "Layers", "Major Operators"});
  util::CsvWriter csv("bench_output/table1_models.csv");
  csv.header({"task", "category", "model", "dataset", "metric", "target",
              "type", "gmacs", "mparams", "layers"});

  for (models::TaskId t : models::all_tasks()) {
    const auto& g = models::model_graph(t);
    const auto& spec = workload::unit_model_spec(t);
    const double gmacs = static_cast<double>(g.total_macs()) / 1e9;
    const double mparams = static_cast<double>(g.total_params()) / 1e6;
    const std::string req =
        spec.quality.metric + (spec.quality.higher_is_better ? ", GT " : ", LT ") +
        util::fmt_double(spec.quality.target, 3);
    table.add_row({models::task_code(t), models::task_category(t),
                   models::model_instance_name(t), spec.dataset, req,
                   util::fmt_double(gmacs, 2), util::fmt_double(mparams, 2),
                   std::to_string(g.num_layers()), operator_families(g)});
    csv.row({models::task_code(t), models::task_category(t),
             models::model_instance_name(t), spec.dataset, spec.quality.metric,
             util::CsvWriter::cell(spec.quality.target),
             spec.quality.higher_is_better ? "HiB" : "LiB",
             util::CsvWriter::cell(gmacs), util::CsvWriter::cell(mparams),
             util::CsvWriter::cell(g.num_layers())});
  }
  table.print(std::cout);
  std::cout << "\nCSV written to bench_output/table1_models.csv\n";
  return 0;
}

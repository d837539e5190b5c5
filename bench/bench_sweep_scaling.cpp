// Sweep-throughput scaling over the Table-5 design family.
//
// Runs the full (design x scenario x trial) suite sweep — the shape behind
// Table 5 and the Pareto cascade — at several SweepEngine worker counts and
// reports trial jobs/sec plus speedup over the 1-thread baseline into
// BENCH_sweep_scaling.json, together with the model-level memo hit rate.
// This is the bench that turns the ROADMAP's ">= Nx on real parallel
// hardware" from an assertion into a measurement.
//
// Output contract (CI relies on it):
//   stdout — the deterministic score report only. Byte-identical for every
//            worker count (the sweep engine's serial/parallel contract), so
//            CI diffs stdout across XRBENCH_THREADS values.
//   stderr — throughput/timing lines (inherently nondeterministic).
//
// Besides the thread-scaling suite sweep, three phases isolate the other
// rungs of the raw-speed ladder in BENCH_sweep_scaling.json:
//   cold build — CostTable construction for the DVFS-laddered design family
//     through the level-batched all-levels kernel vs the per-level
//     model_cost_at walk (rung 1: cold_build_batched_ms vs
//     cold_build_per_level_ms, batched_build_speedup);
//   warm memo — the same builds again on the same cost model, now pure
//     model-level memo hits (rung 2: warm_build_ms, model-memo hit rate);
//   pinned sweep — the thread-scaling sweep re-run with XRBENCH_PIN=1
//     (rung 3: pinned_jobs_per_sec_tN / pinned_speedup_tN, plus a
//     `pinned` flag from SweepEngine::workers_pinned(); scores must stay
//     byte-identical to the unpinned reference).
//
// XRBENCH_THREADS, when set, replaces the default {1, 2, 4, 8} sweep with
// that single worker count (0 = inline serial baseline).

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/sweep.h"
#include "costmodel/cost_model.h"
#include "hw/accelerator.h"
#include "models/zoo.h"
#include "runtime/cost_table.h"
#include "util/affinity.h"
#include "util/bench_json.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/scenario.h"

using namespace xrbench;

namespace {

std::vector<core::SweepPoint> table5_points() {
  core::HarnessOptions opt;
  // Short runs, several dynamic trials: thousands of sub-millisecond jobs,
  // exactly the regime where queue overhead used to dominate.
  opt.run.duration_ms = 500.0;
  opt.dynamic_trials = 8;
  std::vector<core::SweepPoint> points;
  for (char id : hw::accelerator_ids()) {
    points.push_back({std::string(1, id) + "@4096",
                      hw::make_accelerator(id, 4096), opt});
  }
  return points;
}

std::int64_t count_trial_jobs(const std::vector<core::SweepPoint>& points) {
  const auto& suite = workload::benchmark_suite();
  std::int64_t jobs = 0;
  for (const auto& point : points) {
    for (const auto& scenario : suite) {
      jobs += workload::is_dynamic_scenario(scenario)
                  ? std::max(1, point.options.dynamic_trials)
                  : 1;
    }
  }
  return jobs;
}

}  // namespace

int main() {
  util::BenchJson bench("sweep_scaling");

  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (std::getenv("XRBENCH_THREADS") != nullptr) {
    thread_counts = {util::ThreadPool::default_num_threads()};
  }

  const auto points = table5_points();
  const std::int64_t jobs = count_trial_jobs(points);
  // The suite runs once unpinned and once pinned per worker count.
  bench.set_runs(2 * jobs * static_cast<std::int64_t>(thread_counts.size()));

  std::vector<core::BenchmarkOutcome> reference;
  double base_jobs_per_sec = 0.0;
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const std::size_t n = thread_counts[ti];
    core::SweepEngine engine(n);
    const double t0 = bench.elapsed_ms();
    auto outcomes = engine.run_suite_points(points);
    const double sweep_ms = bench.elapsed_ms() - t0;
    const double jobs_per_sec =
        sweep_ms > 0.0 ? static_cast<double>(jobs) / (sweep_ms / 1000.0) : 0.0;
    if (ti == 0) base_jobs_per_sec = jobs_per_sec;

    const auto model_memo = engine.model_memo_stats();
    const std::string suffix = "_t" + std::to_string(n);
    bench.add_metric("sweep_ms" + suffix, sweep_ms);
    bench.add_metric("jobs_per_sec" + suffix, jobs_per_sec);
    bench.add_metric("speedup" + suffix, base_jobs_per_sec > 0.0
                                             ? jobs_per_sec / base_jobs_per_sec
                                             : 0.0);
    bench.add_metric("model_memo_hit_rate" + suffix, model_memo.hit_rate());
    std::cerr << "threads=" << n << "  sweep_ms=" << sweep_ms
              << "  jobs_per_sec=" << jobs_per_sec
              << "  model_memo_hit_rate=" << model_memo.hit_rate() << "\n";

    if (reference.empty()) {
      reference = std::move(outcomes);
      continue;
    }
    // The determinism contract, self-checked across worker counts: every
    // score must be bit-identical to the first configuration's.
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (outcomes[p].score.overall != reference[p].score.overall ||
          outcomes[p].score.realtime != reference[p].score.realtime ||
          outcomes[p].score.energy != reference[p].score.energy ||
          outcomes[p].score.qoe != reference[p].score.qoe) {
        std::cerr << "DETERMINISM VIOLATION: point " << points[p].label
                  << " differs at " << n << " threads\n";
        return 1;
      }
    }
  }

  bench.add_metric("trial_jobs", static_cast<double>(jobs));
  bench.add_metric("design_points", static_cast<double>(points.size()));

#if !defined(_WIN32)
  // --- Rung 3: the same thread-scaling sweep with worker pinning on. ------
  // XRBENCH_PIN=1 round-robins workers onto fixed cores; it must move
  // threads, never bytes — every pinned score is checked against the
  // unpinned reference above.
  {
    const char* pin_saved = std::getenv("XRBENCH_PIN");
    const std::string pin_saved_value = pin_saved != nullptr ? pin_saved : "";
    ::setenv("XRBENCH_PIN", "1", 1);
    bool all_pinned = util::affinity::supported();
    for (std::size_t n : thread_counts) {
      core::SweepEngine engine(n);
      if (n > 0 && !engine.workers_pinned()) all_pinned = false;
      const double t0 = bench.elapsed_ms();
      auto outcomes = engine.run_suite_points(points);
      const double sweep_ms = bench.elapsed_ms() - t0;
      const double jobs_per_sec =
          sweep_ms > 0.0 ? static_cast<double>(jobs) / (sweep_ms / 1000.0)
                         : 0.0;
      const std::string suffix = "_t" + std::to_string(n);
      bench.add_metric("pinned_jobs_per_sec" + suffix, jobs_per_sec);
      bench.add_metric("pinned_speedup" + suffix,
                       base_jobs_per_sec > 0.0
                           ? jobs_per_sec / base_jobs_per_sec
                           : 0.0);
      std::cerr << "pinned threads=" << n << "  sweep_ms=" << sweep_ms
                << "  jobs_per_sec=" << jobs_per_sec
                << "  workers_pinned=" << engine.workers_pinned() << "\n";
      for (std::size_t p = 0; p < points.size(); ++p) {
        if (outcomes[p].score.overall != reference[p].score.overall ||
            outcomes[p].score.realtime != reference[p].score.realtime ||
            outcomes[p].score.energy != reference[p].score.energy ||
            outcomes[p].score.qoe != reference[p].score.qoe) {
          std::cerr << "DETERMINISM VIOLATION: pinned point "
                    << points[p].label << " differs at " << n
                    << " threads\n";
          return 1;
        }
      }
    }
    bench.add_metric("pinned", all_pinned ? 1.0 : 0.0);
    if (pin_saved != nullptr) {
      ::setenv("XRBENCH_PIN", pin_saved_value.c_str(), 1);
    } else {
      ::unsetenv("XRBENCH_PIN");
    }
  }
#endif

  // --- Rung 1/2 phases: cold batched build vs per-level walk, then warm. --
  // DVFS-laddered systems (5 levels each) are where the batched kernel
  // pays off: one layer walk instead of five per (task, sub-accelerator).
  std::vector<hw::AcceleratorSystem> ladder_systems;
  for (char id : hw::accelerator_ids()) {
    ladder_systems.push_back(
        hw::with_default_dvfs(hw::make_accelerator(id, 4096)));
  }

  // Per-level reference: the pre-batching CostTable build loop — one full
  // model_cost_at walk per (task, sub-accel, level) on a fresh cost model.
  std::int64_t level_evals = 0;
  const double t_per_level = bench.elapsed_ms();
  {
    costmodel::AnalyticalCostModel cold_cm;
    for (const auto& sys : ladder_systems) {
      for (models::TaskId task : models::all_tasks()) {
        const auto& graph = models::model_graph(task);
        for (const auto& sa : sys.sub_accels) {
          for (std::size_t lvl = 0; lvl < sa.dvfs.num_levels(); ++lvl) {
            const auto mc = cold_cm.model_cost_at(graph, sa, lvl);
            if (mc.latency_ms < 0.0) return 1;  // keep the walk observable
            ++level_evals;
          }
        }
      }
    }
  }
  const double per_level_ms = bench.elapsed_ms() - t_per_level;

  // Cold batched build: full CostTable construction (batched kernel + all
  // prefix tables) on a fresh cost model.
  costmodel::AnalyticalCostModel build_cm;
  std::vector<std::unique_ptr<runtime::CostTable>> tables;
  const double t_cold = bench.elapsed_ms();
  for (const auto& sys : ladder_systems) {
    tables.push_back(std::make_unique<runtime::CostTable>(sys, build_cm));
  }
  const double cold_ms = bench.elapsed_ms() - t_cold;

  // Warm rebuild: identical designs on the same model — pure memo hits.
  const double t_warm = bench.elapsed_ms();
  for (const auto& sys : ladder_systems) {
    tables.push_back(std::make_unique<runtime::CostTable>(sys, build_cm));
  }
  const double warm_ms = bench.elapsed_ms() - t_warm;
  const auto model_memo = build_cm.model_memo_stats();

  bench.add_metric("cold_build_per_level_ms", per_level_ms);
  bench.add_metric("cold_build_batched_ms", cold_ms);
  bench.add_metric("batched_build_speedup",
                   cold_ms > 0.0 ? per_level_ms / cold_ms : 0.0);
  bench.add_metric("warm_build_ms", warm_ms);
  bench.add_metric("warm_build_speedup",
                   warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  bench.add_metric("model_memo_hit_rate", model_memo.hit_rate());
  bench.add_metric("model_memo_entries",
                   static_cast<double>(model_memo.entries));
  std::cerr << "cold build: per-level=" << per_level_ms
            << "ms  batched=" << cold_ms << "ms  (speedup "
            << (cold_ms > 0.0 ? per_level_ms / cold_ms : 0.0)
            << "x, " << level_evals << " level evals)\n"
            << "warm rebuild: " << warm_ms << "ms  model_memo_hit_rate="
            << model_memo.hit_rate() << "\n";

  // Deterministic report (stdout): one score table for the whole family.
  std::cout << "=== Sweep scaling: Table-5 family, full suite ===\n\n";
  util::TablePrinter table(
      {"Design", "Overall", "Realtime", "Energy", "QoE"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    table.add_row({points[p].label, util::fmt_double(reference[p].score.overall),
                   util::fmt_double(reference[p].score.realtime),
                   util::fmt_double(reference[p].score.energy),
                   util::fmt_double(reference[p].score.qoe)});
  }
  table.print(std::cout);
  return 0;
}

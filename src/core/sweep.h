#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.h"
#include "util/thread_pool.h"

namespace xrbench::core {

/// One design point of a sweep: an accelerator system plus harness options,
/// benchmarked against the full Table-2 suite.
struct SweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
};

/// One (design, scenario) point: a single scenario benchmarked on one
/// accelerator system (the Figure-7 cascade sweep shape).
struct ScenarioSweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
  workload::UsageScenario scenario;
};

/// One (design, program) point: a multi-phase scenario program benchmarked
/// on one accelerator system (hand-off / co-presence session sweeps).
struct ProgramSweepPoint {
  std::string label;
  hw::AcceleratorSystem system;
  HarnessOptions options;
  workload::ScenarioProgram program;
};

/// Parallel evaluation engine for accelerator/scenario sweeps.
///
/// Fans (config x scenario x trial) evaluation jobs out over a worker pool:
/// each design point gets one CostTable build job, then its trials are
/// chunked into batch tasks (~4 chunks per worker, submitted with one
/// submit_batch call) where every trial gets its own ScenarioRunner,
/// scheduler instance and deterministic per-trial seed (options.run.seed +
/// trial). Results land in pre-sized slots indexed by submission order and
/// are reduced in that same order, so the output is bit-identical to a
/// serial run of the Harness — the worker count and chunking only change
/// wall-clock time, never a score.
///
/// Thread count: pass the worker count explicitly, or use the default
/// constructor for "auto" (XRBENCH_THREADS env var when set, else hardware
/// concurrency). A count of 0 runs every job inline on the calling thread
/// (the serial baseline).
///
/// Arena reuse: every task-running thread (each pool worker plus the
/// calling thread in inline mode) owns a runtime::RunScratch keyed by
/// util::ThreadPool::current_worker_slot(); consecutive trials on one
/// worker reuse the same event heap, request/timeline vectors and
/// SoA record arenas instead of reallocating them (results stay
/// bit-identical — reuse is invisible to the determinism contract).
class SweepEngine {
 public:
  SweepEngine() : SweepEngine(util::ThreadPool::default_num_threads()) {}
  explicit SweepEngine(std::size_t num_threads);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  std::size_t num_threads() const { return pool_.num_threads(); }

  /// True when every pool worker is pinned to its round-robin CPU
  /// (XRBENCH_PIN=1 opt-in; see util::ThreadPoolOptions). Pinning never
  /// changes results — scheduling is placement-invariant by the
  /// determinism contract — only where the workers run.
  bool workers_pinned() const { return pool_.workers_pinned(); }

  /// Benchmarks every point against the full Table-2 suite. Equivalent to
  /// (but parallel across points, scenarios and trials):
  ///   for (p : points) Harness(p.system, p.options).run_suite()
  std::vector<BenchmarkOutcome> run_suite_points(
      const std::vector<SweepPoint>& points);

  /// Benchmarks each (system, scenario) pair. Equivalent to:
  ///   for (p : points) Harness(p.system, p.options).run_scenario(p.scenario)
  /// Points sharing an identical system and energy constants share one
  /// CostTable build (policy sweeps over a single design build it once).
  std::vector<ScenarioOutcome> run_scenario_points(
      const std::vector<ScenarioSweepPoint>& points);

  /// Benchmarks each (system, program) pair. Equivalent to:
  ///   for (p : points) Harness(p.system, p.options).run_program(p.program)
  /// with the same CostTable sharing and serial/parallel byte-identity
  /// contract as run_scenario_points.
  std::vector<ScenarioOutcome> run_program_points(
      const std::vector<ProgramSweepPoint>& points);

  /// Builds one CostTable per system in parallel (bench_table5-style
  /// cost-model sweeps). All builds share `cost_model` and therefore its
  /// model-level memo — a (model, sub-accelerator) pair that recurs across
  /// designs is evaluated once.
  std::vector<std::unique_ptr<runtime::CostTable>> build_cost_tables(
      const std::vector<hw::AcceleratorSystem>& systems,
      const costmodel::AnalyticalCostModel& cost_model);

  /// Always an empty MemoStats: the cost model has no layer memo (the
  /// model-level memo is the only one). Kept so layer-memo telemetry keeps
  /// reading zero lookups.
  costmodel::MemoStats memo_stats() const { return {}; }

  /// Model-level memo counters aggregated over every cost model this
  /// engine has instantiated. Call after the sweep returns; mid-flight
  /// values are approximate.
  costmodel::MemoStats model_memo_stats() const;

 private:
  /// Shared cost model for a point's energy constants. Points with equal
  /// EnergyParams share one model instance (and so its model-level memo),
  /// which is what makes repeated designs stop recomputing identical
  /// (model, sub-accelerator) pairs.
  costmodel::AnalyticalCostModel& model_for(
      const costmodel::EnergyParams& energy);

  /// The calling thread's per-worker scratch arena, or null when the call
  /// comes from a thread outside this engine's pool slots (a foreign
  /// pool's worker) — the runner then falls back to a local arena.
  runtime::RunScratch* worker_scratch();

  util::ThreadPool pool_;
  /// One arena per task-running thread: slot 0 = the calling thread
  /// (inline mode), slots 1..N = pool workers.
  std::vector<runtime::RunScratch> scratch_;
  std::vector<std::pair<costmodel::EnergyParams,
                        std::unique_ptr<costmodel::AnalyticalCostModel>>>
      models_;
  mutable std::mutex models_mutex_;
};

}  // namespace xrbench::core

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/fault_plan.h"
#include "runtime/governor.h"
#include "runtime/record_store.h"
#include "runtime/request.h"
#include "runtime/scheduler.h"
#include "runtime/telemetry.h"
#include "workload/scenario.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {

/// Per-run knobs (paper §3.5: default run duration is one second; jitter is
/// always modeled but can be disabled for ablations).
struct RunConfig {
  /// Most generator frames one run may request (summed over its models at
  /// their target rates). A run reserves its arrival, record and timeline
  /// storage up front, so the cap bounds that memory; 2^22 frames is over six
  /// hours of the densest Table-2 scenario (Social Interaction A, 180 FPS
  /// summed). run() rejects a duration whose frame budget exceeds it with
  /// std::invalid_argument.
  static constexpr std::int64_t kMaxFramesPerRun = std::int64_t{1} << 22;

  /// Run window; must be finite and > 0.
  double duration_ms = 1000.0;
  std::uint64_t seed = 42;     ///< Jitter + control-flow trial seed.
  bool enable_jitter = true;
  /// Constant device power (sensors, host SoC, display path) amortized into
  /// each inference's energy over its frame window (1/FPS_model). This puts
  /// per-inference energies in the regime the paper's Enmax = 1500 mJ
  /// implies (a 3 FPS speech inference owns ~333 ms of device time). Set to
  /// 0 to score pure accelerator energy.
  double system_baseline_w = 2.0;
  /// Fault-injection profile for this run. When enabled it overrides the
  /// hardware's own spec (AcceleratorSystem::faults); the default
  /// (disabled) spec defers to the hardware, and when neither enables any
  /// fault class the runner's fault machinery is never armed — fault-free
  /// runs are byte-identical to builds that predate the subsystem.
  FaultSpec faults;
};

/// Per-model outcome of one scenario run.
struct ModelRunStats {
  models::TaskId task = models::TaskId::kHT;
  double target_fps = 0.0;
  /// NumFrm(mu): QoE denominator. For independently-driven and
  /// data-dependent models this is target_fps x duration; for
  /// control-dependent models it is the number of triggered requests.
  std::int64_t frames_expected = 0;
  std::int64_t frames_executed = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t deadline_misses = 0;  ///< Executed but finished late.
  /// SoA record store; scoring streams its columns, everything else reads
  /// it through the AoS-compatible operator[]/iterators.
  RecordStore records;

  double qoe() const {
    return frames_expected == 0
               ? 1.0
               : static_cast<double>(frames_executed) /
                     static_cast<double>(frames_expected);
  }
};

/// Complete outcome of one scenario run on one accelerator system.
struct ScenarioRunResult {
  std::string scenario_name;
  double duration_ms = 0.0;
  std::vector<ModelRunStats> per_model;
  std::vector<BusyInterval> timeline;     ///< Figure-6-style execution log.
  std::vector<double> sub_accel_busy_ms;  ///< Busy time per sub-accelerator.
  double total_energy_mj = 0.0;
  /// Session-timeline start of each phase when the result came from
  /// run_program ({0} for a single-phase program); empty for plain
  /// single-scenario runs.
  std::vector<double> phase_start_ms;
  /// End-of-run runtime telemetry snapshot: per-sub-accelerator busy/idle
  /// time, utilization EWMAs, dynamic/static/idle energy split, DVFS-level
  /// history, per-task latency EWMAs. Bit-deterministic across worker
  /// counts (it advances only on simulated-clock events). For program runs
  /// the additive fields accumulate across phases and the windowed fields
  /// carry the final phase's view (Telemetry::merge_from).
  Telemetry telemetry;
  /// Fault-injection and graceful-degradation counters. `enabled` is false
  /// on fault-free runs with no admission rejections (program runs OR the
  /// phases); the report prints its resilience section only when set.
  ResilienceStats resilience;

  const ModelRunStats* find(models::TaskId task) const;

  /// Hardware utilization of sub-accelerator `sa` over the run window
  /// (the §4.2.2 "utilization is the wrong metric" discussion).
  double utilization(std::size_t sa) const;
};

/// Reusable run-state arena for ScenarioRunner::run/run_program. One run
/// needs an event heap, request/timeline vectors, SoA record arenas and the
/// result's own buffers; a sweep runs thousands of sub-millisecond trials,
/// so those allocations were a measurable tax. A RunScratch keeps all of it
/// alive between runs: the runner clear()s and reuses the buffers (capacity
/// is retained), and recycle() returns a consumed result's storage to the
/// pool. After one warm-up run, a repeat run() allocates nothing (enforced
/// by test).
///
/// A scratch is single-threaded state: never share one across concurrent
/// runs (SweepEngine keys one per worker thread). Results produced with a
/// scratch are bit-identical to scratch-free runs — reuse changes where
/// bytes live, never what they hold (enforced by test).
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(RunScratch&&) noexcept;
  RunScratch& operator=(RunScratch&&) noexcept;
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

  /// Returns `result`'s storage to the pool: its record stores, and its
  /// name, per-model list, timeline, busy-ms vector and telemetry with
  /// their capacity (call once the result has been scored/consumed;
  /// `result` is left empty but valid).
  void recycle(ScenarioRunResult&& result);

  /// Pool diagnostics (capacity-retention tests).
  std::size_t pooled_stores() const;
  std::size_t pooled_record_capacity() const;  ///< Sum over pooled stores.
  /// Most events (live or voided) queued at once during the last run.
  std::size_t event_queue_high_water() const;

 private:
  friend class ScenarioRunner;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The benchmark runtime (Figure 2): load generator, request queues,
/// dependency tracker, active-inference table and dispatcher around a
/// discrete-event simulation of one accelerator system.
///
/// Semantics:
///  * Each independently-driven model consumes its driving sensor stream at
///    the scenario's target rate (every `sensor_fps/target_fps`-th frame,
///    as in Figure 3); request times follow Definition 7 with jitter.
///  * Deadlines follow Definition 8 at the model's consumption rate: the
///    deadline of frame f is the (jitter-free) arrival of the next frame
///    the model consumes.
///  * Dependent models are triggered by upstream completions (data deps
///    always, control deps with the scenario's probability); their request
///    time is the upstream completion, their deadline keeps the sensor
///    timing.
///  * A request that has not STARTED when its deadline passes is dropped
///    (stale input). A request that started late finishes and counts as a
///    deadline miss (real-time score ~ 0 but QoE credit, matching the
///    Figure-6 discussion).
///  * Multi-modal models (DR) wait for all input streams of the frame.
///  * With a fault plan armed (see RunConfig::faults): a transiently
///    faulted dispatch burns its full latency and energy, then retries
///    (bounded, with simulated-time backoff) while the deadline is still
///    reachable, else drops. An outage kills in-flight work (partial busy
///    time and pro-rated energy are charged), re-queues it, and hides the
///    unit from the idle list until the window ends; re-placement onto a
///    different unit counts as a failover. Throttle windows clamp the
///    governor's level at dispatch. The whole schedule is precomputed from
///    the trial seed, so faulted sweeps stay byte-identical at any worker
///    count.
///
/// Policies are consulted through runtime::DispatchContext, which carries
/// the per-run Telemetry alongside the CostTable/hardware views; the
/// telemetry advances only at dispatch/retire events, so governed runs stay
/// inside the parallel-sweep byte-identity guarantee.
class AdmissionController;

class ScenarioRunner {
 public:
  ScenarioRunner(const hw::AcceleratorSystem& system, const CostTable& costs);

  /// Runs `scenario`. When `governor` is non-null the dispatcher consults it
  /// at every dispatch for the DVFS level to execute under (and at every
  /// retire for the level to park at); a null governor runs everything at
  /// each sub-accelerator's nominal level and parks where it ran. A non-null
  /// `scratch` reuses that arena's buffers instead of allocating fresh ones
  /// (bit-identical results; see RunScratch).
  /// A non-null `admission` is consulted once per request at its arrival
  /// instant; a rejection drops the frame immediately (drop-early). Null —
  /// or the built-in "admit-all" — admits everything, leaving results
  /// byte-identical to admission-free runs.
  ScenarioRunResult run(const workload::UsageScenario& scenario,
                        Scheduler& scheduler, const RunConfig& config,
                        FrequencyGovernor* governor = nullptr,
                        RunScratch* scratch = nullptr,
                        AdmissionController* admission = nullptr) const;

  /// Executes a scenario program as one continuous timeline. Each phase
  /// runs for its duration with a seed derived from `config.seed` and the
  /// phase's strided seed_offset (offset 0 = the run seed itself;
  /// config.duration_ms is ignored — phases carry their own windows); at a
  /// phase boundary every in-flight inference retires deterministically
  /// (completions drain, undispatchable requests drop — exactly the
  /// end-of-run rule) before the next phase's model set takes over.
  /// Record/QoE/energy accounting is cumulative across phases: per-model
  /// stats merge by task, record and timeline times are shifted onto the
  /// session timeline, and `phase_start_ms` marks the boundaries. Policy
  /// state (scheduler/governor) carries across boundaries — reset() is the
  /// caller's per-run contract, not a per-phase one — while the telemetry
  /// each phase's policies see starts fresh at the boundary (the result
  /// telemetry still accumulates the whole session). A single-phase program
  /// is bit-identical to run() on its scenario (the compatibility anchor,
  /// enforced by test).
  /// Fault-spec precedence for every phase: program.faults (when enabled)
  /// over config.faults over the hardware's spec. Each phase materializes
  /// its own FaultPlan from its derived phase seed, so phases decorrelate
  /// exactly like their jitter streams do. `admission` behaves as in run(),
  /// with controller state carrying across phase boundaries like the other
  /// policies.
  ScenarioRunResult run_program(const workload::ScenarioProgram& program,
                                Scheduler& scheduler, const RunConfig& config,
                                FrequencyGovernor* governor = nullptr,
                                RunScratch* scratch = nullptr,
                                AdmissionController* admission = nullptr) const;

 private:
  const hw::AcceleratorSystem* system_;
  const CostTable* costs_;
};

}  // namespace xrbench::runtime

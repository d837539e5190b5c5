#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "models/task.h"
#include "runtime/request.h"

namespace xrbench::runtime {

/// Tuning knobs of the runtime telemetry. The defaults are chosen for XR
/// frame cadences (tens of milliseconds between dispatches); every knob is
/// observational — changing one never changes a schedule or a score, only
/// what history-aware policies see.
struct TelemetryConfig {
  /// Time constant (ms) of the exponential utilization window: an event at
  /// age tau contributes e^-1 of a fresh one. ~3 frame windows at 30 FPS.
  double util_tau_ms = 100.0;
  /// Weight of the newest sample in the per-task latency and queue-depth
  /// EWMAs (classic 1/8 smoothing).
  double ewma_alpha = 0.125;
  /// DVFS levels remembered per sub-accelerator (most recent last).
  std::size_t level_history_depth = 8;
};

/// Sliding-window state of one sub-accelerator. All fields advance only at
/// dispatch/retire events of the simulated clock, so two runs with the same
/// seed produce byte-identical telemetry regardless of worker count.
struct SubAccelTelemetry {
  double busy_ms = 0.0;        ///< Accounted execution time.
  double idle_ms = 0.0;        ///< Accounted idle time.
  double util_ewma = 0.0;      ///< Exponentially-decayed busy fraction.
  double last_event_ms = 0.0;  ///< Clock of the last accounted event.
  bool busy = false;
  std::int64_t dispatches = 0;
  std::int64_t retires = 0;
  /// Dispatches that ended without retiring a frame: transient-fault burns
  /// and outage kills (fault injection only; 0 on fault-free runs).
  std::int64_t aborts = 0;
  /// Simulated clock of the most recent abort (-inf before the first one) —
  /// the kill-recency signal behind fault-aware placement: a unit that just
  /// killed work is likelier to sit in (or near) an active fault window
  /// than one whose aborts are stale history.
  double last_abort_ms = -std::numeric_limits<double>::infinity();
  int last_level = -1;  ///< Level of the most recent dispatch (-1: none yet).
  int park_level = -1;  ///< Level the sub-accel idles at (-1: nominal).
  /// Accelerator energy split. dynamic+static sum over executed inferences'
  /// ExecutionCost rows; idle integrates DvfsState::idle_mw over idle time
  /// at the parked level's voltage (0 unless the hardware declares an
  /// idle-power term).
  double dynamic_mj = 0.0;
  double static_mj = 0.0;
  double idle_mj = 0.0;
  /// Recent dispatch levels, most recent last, bounded by
  /// TelemetryConfig::level_history_depth.
  std::vector<int> recent_levels;

  /// Mean busy fraction over the accounted window (not the EWMA).
  double utilization() const {
    const double window = busy_ms + idle_ms;
    return window > 0.0 ? busy_ms / window : 0.0;
  }
};

/// Deterministic per-sub-accelerator runtime telemetry (the history layer
/// behind ondemand-style governors and load-aware schedulers).
///
/// The ScenarioRunner is the sole writer: it calls on_dispatch/on_retire/
/// on_park/on_idle_energy at simulation events and finish() when the run
/// window closes. Policies read it through DispatchContext::telemetry.
/// Updates are O(1) per event and allocation-free after reset(), so the
/// default path pays nothing measurable — and because every input is a
/// simulated-clock quantity, snapshots are bit-deterministic across worker
/// counts (enforced by test).
class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});
  /// Copies keep the destination's buffers: assigning a snapshot into a
  /// recycled Telemetry allocates nothing once its capacity suffices, even
  /// when the sub-accelerator count differs.
  Telemetry(const Telemetry& other);
  Telemetry& operator=(const Telemetry& other);
  Telemetry(Telemetry&&) noexcept = default;
  Telemetry& operator=(Telemetry&&) noexcept = default;
  ~Telemetry() = default;

  /// Re-arms for a run over `num_sub_accels` sub-accelerators (clears all
  /// state, keeps allocated capacity). `window_end_ms` bounds the IDLE-time
  /// accounting: idle beyond it belongs to whatever follows the run (a
  /// program's next phase re-accounts it), so clamping keeps idle_ms on
  /// the same basis as the runner's idle-energy charge. Busy time is never
  /// clamped — a completion draining past the window is real execution.
  /// The default (infinity) accounts everything, for hand-driven use.
  void reset(std::size_t num_sub_accels,
             double window_end_ms = std::numeric_limits<double>::infinity());

  // ---- Event hooks (runner only; `now_ms` is the simulated clock) --------

  /// An inference was assigned to `sa` at `level`. `queue_depth` is the
  /// number of requests still pending after this one left the queue.
  void on_dispatch(std::size_t sa, const InferenceRequest& req,
                   std::size_t level, double now_ms, std::size_t queue_depth);

  /// The inference dispatched on `sa` completed. `dynamic_mj`/`static_mj`
  /// split the accelerator energy of this execution.
  void on_retire(std::size_t sa, const InferenceRequest& req,
                 std::size_t level, double now_ms, double dynamic_mj,
                 double static_mj);

  /// The inference dispatched on `sa` ended WITHOUT completing (transient
  /// fault burned the cycles, or an outage killed it mid-flight). Closes
  /// the busy window and books the (possibly partial) energy, but does not
  /// count a retire and never feeds the task latency EWMA — failed attempts
  /// are not completion samples.
  void on_abort(std::size_t sa, double now_ms, double dynamic_mj,
                double static_mj);

  /// The governor parked `sa` at `level` for the coming idle window.
  void on_park(std::size_t sa, std::size_t level);

  /// Idle energy accrued on `sa` (charged by the runner when the hardware
  /// declares an idle-power term).
  void on_idle_energy(std::size_t sa, double idle_mj);

  /// Closes every busy/idle window at the end of the run window.
  void finish(double end_ms);

  /// Folds one program phase's telemetry into this session accumulator:
  /// additive fields (busy/idle time, energies, counts) sum; windowed state
  /// (EWMAs, level history, park levels) is taken from the phase — the
  /// freshest history wins, matching how policies experience a phase
  /// boundary. Merging a single phase into a reset Telemetry reproduces the
  /// phase snapshot exactly (the single-phase bit-identity anchor).
  void merge_from(const Telemetry& phase, double phase_start_ms);

  // ---- Views --------------------------------------------------------------

  std::size_t num_sub_accels() const { return subs_.size(); }
  const SubAccelTelemetry& sub_accel(std::size_t sa) const;

  /// EWMA busy fraction of `sa` (0 when sa is out of range, so policies can
  /// probe without pre-checking).
  double util_ewma(std::size_t sa) const {
    return sa < subs_.size() ? subs_[sa].util_ewma : 0.0;
  }

  /// Pending-queue depth at the last dispatch event, and its EWMA.
  std::size_t queue_depth() const { return queue_depth_; }
  double queue_depth_ewma() const { return queue_depth_ewma_; }

  /// EWMA of end-to-end completion latency (treq -> complete) per task;
  /// 0 before the first completion of that task.
  double task_latency_ewma(models::TaskId task) const {
    return task_latency_ewma_[models::task_index(task)];
  }
  std::int64_t task_completions(models::TaskId task) const {
    return task_completions_[models::task_index(task)];
  }

  /// Energy split summed over sub-accelerators.
  double total_dynamic_mj() const;
  double total_static_mj() const;
  double total_idle_mj() const;

  const TelemetryConfig& config() const { return config_; }

 private:
  /// Accounts the [last_event, now] interval of `sa` as busy or idle and
  /// decays the utilization EWMA toward the interval's occupancy.
  void advance(SubAccelTelemetry& sub, double now_ms);
  /// Resizes subs_ to `n`, parking dropped structs in spare_ and reviving
  /// them first, so their level-history buffers survive a count change.
  void resize_subs(std::size_t n);

  TelemetryConfig config_;
  double window_end_ms_ = std::numeric_limits<double>::infinity();
  std::vector<SubAccelTelemetry> subs_;
  std::vector<SubAccelTelemetry> spare_;  ///< Not part of the state.
  std::array<double, models::kNumTasks> task_latency_ewma_{};
  std::array<std::int64_t, models::kNumTasks> task_completions_{};
  std::size_t queue_depth_ = 0;
  double queue_depth_ewma_ = 0.0;
};

}  // namespace xrbench::runtime

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace xrbench::runtime {

/// Declarative fault-injection knobs (the [faults] config section). The
/// spec is pure data — materializing it into a concrete, seed-derived
/// schedule is FaultPlan's job — so the hw and workload layers can carry a
/// spec without depending on the runtime machinery.
///
/// All three fault classes run on the simulated clock and derive only from
/// the trial seed, never from wall time or worker interleaving, which is
/// what keeps faulted sweeps byte-identical at any worker count.
struct FaultSpec {
  /// Per-dispatch transient failure probability in [0, 1]. A faulted
  /// dispatch burns the task's full cycles/energy on the unit, then fails
  /// without producing a frame.
  double transient_rate = 0.0;

  /// Mean sub-accelerator outage arrivals per simulated second (per unit;
  /// exponential inter-arrival gaps). During an outage the unit is offline:
  /// in-flight work is killed and re-queued, and the scheduler never sees
  /// the unit as idle.
  double outage_rate_per_s = 0.0;
  /// Duration of each outage window in simulated ms (> 0 when outages on).
  double outage_ms = 0.0;

  /// Mean thermal-throttle window arrivals per simulated second (per unit).
  double throttle_rate_per_s = 0.0;
  /// Duration of each throttle window in simulated ms (> 0 when on).
  double throttle_ms = 0.0;
  /// DVFS level cap inside a throttle window: the governor's chosen level
  /// is clamped to min(level, throttle_max_level) at dispatch.
  std::size_t throttle_max_level = 0;

  /// Retry budget per request after transient failures (0 = no recovery:
  /// the first transient fault drops the frame).
  int max_retries = 0;
  /// Simulated-time backoff before a retry re-enters the pending queue.
  double retry_backoff_ms = 0.0;

  /// Layer-granular checkpoint/resume. When enabled, an inference killed by
  /// an outage records its last fully-completed layer (derived from the
  /// partial busy interval walked against the per-layer cost prefix in the
  /// CostTable); the re-dispatch resumes from that layer, paying only the
  /// remaining layers' latency/energy plus checkpoint_overhead_ms (restore
  /// cost: re-load activations/weights for the resume point). Disabled
  /// (default) keeps the PR-6 whole-model restart path bit-identical.
  bool checkpoint = false;
  /// Fixed per-resume restore cost in simulated ms (charged once at each
  /// resumed dispatch, like a DVFS transition penalty).
  double checkpoint_overhead_ms = 0.0;

  /// True when any fault class can fire. Recovery knobs alone (retries,
  /// backoff) do not enable the plan — with no faults there is nothing to
  /// recover from, and the runner's default path stays untouched.
  bool enabled() const {
    return transient_rate > 0.0 || outage_rate_per_s > 0.0 ||
           throttle_rate_per_s > 0.0;
  }

  friend bool operator==(const FaultSpec& a, const FaultSpec& b) {
    return a.transient_rate == b.transient_rate &&
           a.outage_rate_per_s == b.outage_rate_per_s &&
           a.outage_ms == b.outage_ms &&
           a.throttle_rate_per_s == b.throttle_rate_per_s &&
           a.throttle_ms == b.throttle_ms &&
           a.throttle_max_level == b.throttle_max_level &&
           a.max_retries == b.max_retries &&
           a.retry_backoff_ms == b.retry_backoff_ms &&
           a.checkpoint == b.checkpoint &&
           a.checkpoint_overhead_ms == b.checkpoint_overhead_ms;
  }
  friend bool operator!=(const FaultSpec& a, const FaultSpec& b) {
    return !(a == b);
  }
};

/// Throws std::invalid_argument naming the offending field. Config parsers
/// raise their own line-numbered variants; this is the programmatic check
/// used by the runner and harness.
inline void validate_fault_spec(const FaultSpec& spec) {
  // Every range test is written !(lo <= x && x <= hi) so NaN fails it; the
  // upper bound of the open-ended fields also rejects infinity.
  constexpr double kMax = std::numeric_limits<double>::max();
  if (!(0.0 <= spec.transient_rate && spec.transient_rate <= 1.0)) {
    throw std::invalid_argument(
        "fault spec: transient_rate must be in [0, 1]");
  }
  if (!(0.0 <= spec.outage_rate_per_s && spec.outage_rate_per_s <= kMax)) {
    throw std::invalid_argument(
        "fault spec: outage_rate_per_s must be finite and >= 0");
  }
  if (spec.outage_rate_per_s > 0.0 && spec.outage_ms <= 0.0) {
    throw std::invalid_argument(
        "fault spec: outage_ms must be > 0 when outages are enabled");
  }
  if (!(0.0 <= spec.outage_ms && spec.outage_ms <= kMax)) {
    throw std::invalid_argument("fault spec: outage_ms must be finite and >= 0");
  }
  if (!(0.0 <= spec.throttle_rate_per_s &&
        spec.throttle_rate_per_s <= kMax)) {
    throw std::invalid_argument(
        "fault spec: throttle_rate_per_s must be finite and >= 0");
  }
  if (spec.throttle_rate_per_s > 0.0 && spec.throttle_ms <= 0.0) {
    throw std::invalid_argument(
        "fault spec: throttle_ms must be > 0 when throttling is enabled");
  }
  if (!(0.0 <= spec.throttle_ms && spec.throttle_ms <= kMax)) {
    throw std::invalid_argument("fault spec: throttle_ms must be finite and >= 0");
  }
  if (spec.max_retries < 0) {
    throw std::invalid_argument("fault spec: max_retries must be >= 0");
  }
  if (!(0.0 <= spec.retry_backoff_ms && spec.retry_backoff_ms <= kMax)) {
    throw std::invalid_argument(
        "fault spec: retry_backoff_ms must be finite and >= 0");
  }
  if (!(0.0 <= spec.checkpoint_overhead_ms &&
        spec.checkpoint_overhead_ms <= kMax)) {
    throw std::invalid_argument(
        "fault spec: checkpoint_overhead_ms must be finite and >= 0");
  }
}

}  // namespace xrbench::runtime

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "models/task.h"
#include "runtime/fault_spec.h"
#include "util/ini.h"

namespace xrbench::runtime {

/// One fault window on the simulated clock, [start_ms, end_ms).
struct FaultWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// A materialized fault schedule: the per-sub-accelerator outage and
/// throttle windows plus the transient-failure decision function, all
/// derived purely from (spec, run seed). The whole plan is precomputed
/// before the simulation starts, so sweep worker count cannot reorder or
/// perturb it — the schedule for a given (seed, spec) pair is one fixed
/// object regardless of which policies consume it.
///
/// Transient decisions are a pure hash of (seed, task, frame, attempt):
/// placement- and policy-independent, so two runs that differ only in
/// scheduler/governor/recovery stack face the *identical* fault process.
/// The fault stream is salted away from the arrival-jitter stream and
/// never touches the runner's Rng.
class FaultPlan {
 public:
  /// Empty, disabled plan.
  FaultPlan() = default;

  /// Materializes windows over [0, duration_ms) for each sub-accelerator.
  /// `fault_domains` groups sub-accelerator indices into correlated fault
  /// domains: every member of a domain shares ONE outage and ONE throttle
  /// window schedule drawn from a domain-salted stream (a thermal/power
  /// event hits the whole group simultaneously), while ungrouped units keep
  /// their own per-unit streams — so configs without domains produce the
  /// bit-identical plan they always did. Throws std::invalid_argument on an
  /// invalid spec or a domain referencing an out-of-range / duplicate unit.
  FaultPlan(const FaultSpec& spec, std::uint64_t seed,
            std::size_t num_sub_accels, double duration_ms,
            const std::vector<std::vector<std::size_t>>& fault_domains = {});

  /// Re-materializes this plan in place, exactly as the constructor would
  /// (minus the spec validation), reusing the window vectors' capacity: a
  /// reused run arena allocates nothing in steady state.
  void rebuild(const FaultSpec& spec, std::uint64_t seed,
               std::size_t num_sub_accels, double duration_ms,
               const std::vector<std::vector<std::size_t>>& fault_domains);

  bool enabled() const { return spec_.enabled(); }
  const FaultSpec& spec() const { return spec_; }
  std::size_t num_sub_accels() const { return outages_.size(); }

  /// Number of correlated fault domains (0 when every unit is independent).
  std::size_t num_domains() const { return num_domains_; }
  /// Domain index of `sub_accel`, or -1 for an ungrouped (independent) unit.
  int domain_of(std::size_t sub_accel) const { return domain_of_[sub_accel]; }

  const std::vector<FaultWindow>& outages(std::size_t sub_accel) const {
    return outages_[sub_accel];
  }
  const std::vector<FaultWindow>& throttles(std::size_t sub_accel) const {
    return throttles_[sub_accel];
  }

  /// Whether the dispatch of (task, frame) on its attempt'th try suffers a
  /// transient fault. Stateless and placement-independent.
  bool transient_fault(models::TaskId task, std::int64_t frame,
                       int attempt) const;

 private:
  FaultSpec spec_;
  std::uint64_t fault_seed_ = 0;
  std::size_t num_domains_ = 0;
  std::vector<int> domain_of_;  ///< Per unit; -1 = ungrouped.
  std::vector<std::vector<FaultWindow>> outages_;
  std::vector<std::vector<FaultWindow>> throttles_;
};

/// Per-run fault state: which units are currently offline, monotone
/// cursors into the throttle windows, nothing more. The ScenarioRunner owns
/// the in-flight kill bookkeeping (it voids queued completions); the
/// injector is the queryable view that dispatch decisions consult.
class FaultInjector {
 public:
  /// Rebinds to a plan (null or disabled = inert) and clears all state.
  void arm(const FaultPlan* plan, std::size_t num_sub_accels);

  bool active() const { return active_; }
  const FaultPlan& plan() const { return *plan_; }

  bool offline(std::size_t sub_accel) const {
    return offline_[sub_accel] != 0;
  }
  /// Flips a unit's offline bit and maintains the per-domain mask (a
  /// domain counts as down once all its members are).
  void set_offline(std::size_t sub_accel, bool off);
  /// Per-unit offline mask (1 = offline), indexable by sub-accelerator.
  const std::vector<char>& offline_mask() const { return offline_; }

  /// Per-domain offline mask (1 = every member of the domain is down).
  /// Sized plan().num_domains(); empty when no fault domains exist.
  /// Maintained by set_offline via the plan's domain map — a domain is
  /// marked down once all members are offline (domain windows are shared,
  /// so members flip together at the same simulated instant).
  const std::vector<char>& domain_offline_mask() const {
    return domain_offline_;
  }

  /// The DVFS level cap active on `sub_accel` at `now_ms`, or nullopt when
  /// no throttle window covers that instant. Uses a monotone cursor:
  /// queries per unit must not go backwards in time (the simulated clock
  /// never does).
  std::optional<std::size_t> throttle_cap(std::size_t sub_accel,
                                          double now_ms);

 private:
  const FaultPlan* plan_ = nullptr;
  bool active_ = false;
  std::vector<char> offline_;
  std::vector<char> domain_offline_;
  std::vector<std::int32_t> domain_down_count_;  ///< Offline members per domain.
  std::vector<std::int32_t> domain_size_;        ///< Members per domain.
  std::vector<std::size_t> throttle_cursor_;
};

/// Resilience counters for one run (or one program: phases sum). Only
/// meaningful when `enabled`; the report prints its resilience section iff
/// enabled, which keeps fault-free output byte-identical to builds that
/// predate the subsystem.
struct ResilienceStats {
  bool enabled = false;
  std::int64_t transient_faults = 0;  ///< Dispatches that burned and failed.
  std::int64_t retries = 0;           ///< Re-queues after transient faults.
  std::int64_t retry_give_ups = 0;    ///< Abandoned: budget out or deadline
                                      ///< unreachable even at best latency.
  std::int64_t outage_kills = 0;      ///< In-flight work killed by an outage.
  std::int64_t failovers = 0;         ///< Killed work re-dispatched onto a
                                      ///< different (healthy) unit.
  std::int64_t throttle_clamps = 0;   ///< Dispatches whose level was lowered.
  std::int64_t drops_early = 0;       ///< Admission rejections at arrival.
  std::int64_t drops_late = 0;        ///< Stale-input drops + retry give-ups.
  std::int64_t resumes = 0;           ///< Killed inferences re-dispatched from
                                      ///< a layer checkpoint (layer > 0).
  /// Execution time NOT re-run thanks to checkpoints: for each resumed
  /// dispatch, the latency prefix of its resume layer at the dispatching
  /// (unit, level) — exactly the completed-layer cost of the first attempt
  /// when both run at the same operating point.
  double checkpoint_saved_ms = 0.0;

  void merge(const ResilienceStats& other) {
    enabled = enabled || other.enabled;
    transient_faults += other.transient_faults;
    retries += other.retries;
    retry_give_ups += other.retry_give_ups;
    outage_kills += other.outage_kills;
    failovers += other.failovers;
    throttle_clamps += other.throttle_clamps;
    drops_early += other.drops_early;
    drops_late += other.drops_late;
    resumes += other.resumes;
    checkpoint_saved_ms += other.checkpoint_saved_ms;
  }
};

/// Parses a [faults] section into a FaultSpec. Throws std::invalid_argument
/// with "`context` line N: ..." on out-of-range values, using the entry's
/// source line — the same diagnostic shape as the DVFS config parser.
FaultSpec parse_fault_section(const util::IniDocument::Section& sec,
                              const std::string& context);

/// Appends a [faults] section to `doc` when the spec differs from the
/// default (writers omit the section entirely for a default spec, keeping
/// pre-existing config files byte-stable). Only non-default keys are
/// written; parse_fault_section fills the rest, so round-trips are exact.
void write_fault_section(util::IniDocument& doc, const FaultSpec& spec);

}  // namespace xrbench::runtime

#pragma once

#include <cstddef>
#include <vector>

#include "hw/accelerator.h"
#include "runtime/cost_table.h"
#include "runtime/request.h"
#include "runtime/telemetry.h"

namespace xrbench::runtime {

/// The single decision-point context handed to every policy (schedulers and
/// frequency governors alike). It bundles the four views a runtime policy
/// can legitimately consult:
///
///  * the pending work and idle hardware of the current decision point
///    (scheduler consultations only),
///  * the request being dispatched (governor consultations only),
///  * the static views shared by every consultation — per-level CostTable,
///    hardware description, and the session clock,
///  * the runtime Telemetry: per-sub-accelerator sliding-window state
///    (EWMA utilization, busy/idle time, queue depth, DVFS-level history,
///    per-task latency EWMAs) updated only from simulated-clock events at
///    dispatch/retire — the substrate for history-aware policies.
///
/// Which fields are populated depends on the consultation:
///
///  | consultation            | pending/idle | request/sub_accel | level |
///  |-------------------------|--------------|-------------------|-------|
///  | Scheduler::pick         | set          | null / 0          | 0     |
///  | FrequencyGovernor::
///  |   level_for             | null         | set               | 0     |
///  |   park_level            | null         | set               | set   |
///  | AdmissionController::
///  |   admit                 | null         | request set       | 0     |
///
/// costs/telemetry/system are always set by the runner. Hand-built contexts
/// (unit tests) may leave telemetry/system null; policies must degrade
/// gracefully (the shipped history-aware policies fall back to their
/// telemetry-free behavior).
///
/// Determinism contract: the simulation consults policies in a fixed,
/// reproducible event order, and every sweep trial gets its own policy
/// instances, so policies MAY keep internal state across consultations of
/// one run (reset() is the per-run boundary). Two rules keep governed runs
/// inside the parallel-sweep byte-identity guarantee:
///  * decisions must be invariant under any permutation of `pending` — the
///    dispatcher compacts it with swap-remove, so element order carries no
///    meaning; break ties on request attributes (see precedes() in
///    scheduler.cpp), never on vector position;
///  * decisions must derive only from this context and the policy's own
///    consultation history — no wall clock, no global mutable state.
struct DispatchContext {
  /// Session clock (simulated milliseconds).
  double now_ms = 0.0;

  // ---- Scheduler view (null during governor consultations) ---------------
  /// Requests currently waiting (input ready, not yet started, deadline not
  /// passed). Indices into this vector identify the choice. Swap-remove
  /// compacted: element ORDER carries no meaning.
  const std::vector<InferenceRequest>* pending = nullptr;
  /// Indices of currently idle sub-accelerators, ascending.
  const std::vector<std::size_t>* idle_sub_accels = nullptr;

  // ---- Governor view (null/0 during scheduler consultations) -------------
  /// The request about to execute (level_for) or just retired (park_level).
  const InferenceRequest* request = nullptr;
  /// The sub-accelerator it was assigned to.
  std::size_t sub_accel = 0;
  /// The DVFS level the retired inference executed at (park_level only).
  std::size_t level = 0;

  // ---- Shared views -------------------------------------------------------
  /// Per-sub-accelerator offline mask (1 = offline) while a fault plan is
  /// active; null when no fault injection is configured (all units online).
  /// Offline units never appear in idle_sub_accels — existing policies that
  /// only pick from the idle list are fault-correct unchanged — but the mask
  /// lets a policy distinguish "busy, will return" from "down" (e.g. to
  /// re-place work proactively). Indexed by sub-accelerator.
  const std::vector<char>* offline = nullptr;
  /// Per-fault-domain offline mask (1 = the whole correlated domain is
  /// down), indexed by fault-domain id; null when the system defines no
  /// [fault_domain] groups (or no fault plan is active). Lets whole-system
  /// policies react to correlated outages — e.g. steer work off a power
  /// rail the moment its sibling units vanish together — without scanning
  /// the per-unit mask against hw fault_domains themselves.
  const std::vector<char>* domain_offline = nullptr;
  const CostTable* costs = nullptr;
  /// Runtime telemetry snapshot (see runtime/telemetry.h). Read-only;
  /// null in hand-built test contexts.
  const Telemetry* telemetry = nullptr;
  /// Hardware view (DVFS ladders, PE counts); null in hand-built contexts.
  const hw::AcceleratorSystem* system = nullptr;
};

}  // namespace xrbench::runtime

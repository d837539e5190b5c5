#include "runtime/scenario_runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>

#include "runtime/admission.h"
#include "runtime/dispatch_context.h"
#include "runtime/event_queue.h"
#include "util/rng.h"
#include "workload/input_source.h"
#include "workload/unit_model.h"

namespace xrbench::runtime {

using workload::DependencyType;
using workload::InputSource;
using workload::ScenarioModel;
using workload::UsageScenario;

const ModelRunStats* ScenarioRunResult::find(models::TaskId task) const {
  for (const auto& m : per_model) {
    if (m.task == task) return &m;
  }
  return nullptr;
}

double ScenarioRunResult::utilization(std::size_t sa) const {
  if (sa >= sub_accel_busy_ms.size() || duration_ms <= 0.0) return 0.0;
  return std::min(1.0, sub_accel_busy_ms[sa] / duration_ms);
}

ScenarioRunner::ScenarioRunner(const hw::AcceleratorSystem& system,
                               const CostTable& costs)
    : system_(&system), costs_(&costs) {
  if (system.sub_accels.size() != costs.num_sub_accels()) {
    throw std::invalid_argument(
        "ScenarioRunner: cost table does not match accelerator system");
  }
}

namespace {

/// Sensor frame consumed for model-rate frame index f (Figure-3 skipping:
/// a 30 FPS model on a 60 FPS camera uses every other frame).
std::int64_t sensor_frame_for(double sensor_fps, double model_fps,
                              std::int64_t f) {
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(f) * sensor_fps / model_fps));
}

/// Deadline of model-rate frame f: jitter-free arrival of the next consumed
/// sensor frame (Definition 8 at the model's consumption rate).
double deadline_ms(const InputSource& src, double model_fps, std::int64_t f) {
  const std::int64_t next = sensor_frame_for(src.fps, model_fps, f + 1);
  return workload::ideal_arrival_ms(src, next);
}

/// Canonical timeline order with a full tie-break: two dispatches can share
/// a start time (distinct idle sub-accelerators at one event), so keying on
/// start_ms alone would leave equal-time entries in no fixed order. Shared
/// by the single-run bucket merge and the program phase join.
bool timeline_less(const BusyInterval& a, const BusyInterval& b) {
  if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
  if (a.sub_accel != b.sub_accel) return a.sub_accel < b.sub_accel;
  if (a.task != b.task) {
    return models::task_index(a.task) < models::task_index(b.task);
  }
  return a.frame < b.frame;
}

/// Restores timeline_less order over `tl` when every entry before `from` is
/// already in order: each later entry steps back past the entries that sort
/// after it. O(size + displacement), so cheap when the tail is nearly in
/// place (a bucket append, or a program phase joined after the previous
/// phase's short drain).
void settle_timeline(std::vector<BusyInterval>& tl, std::size_t from) {
  for (std::size_t i = std::max<std::size_t>(from, 1); i < tl.size(); ++i) {
    for (std::size_t j = i; j > 0 && timeline_less(tl[j], tl[j - 1]); --j) {
      std::swap(tl[j], tl[j - 1]);
    }
  }
}

}  // namespace

/// Mutable state + dispatch machinery of one scenario run, owned by a
/// RunScratch so the runner itself stays const / reusable AND the buffers
/// survive across runs: begin_run() rewinds the event queue and clear()s
/// every vector in place, take_store()/take_result() hand out recycled
/// arenas, so a sweep worker's thousands of trials allocate only on their
/// first run. All per-model state lives in flat vectors indexed by the
/// model's slot in the scenario (looked up through a dense task->slot
/// table), and the pending queue uses swap-remove, so the simulation hot
/// path performs no hashing and no mid-vector erases.
struct RunScratch::Impl {
  // Per-run wiring (set by begin_run; non-owning).
  const CostTable* costs = nullptr;
  const hw::AcceleratorSystem* system = nullptr;
  Scheduler* scheduler = nullptr;
  FrequencyGovernor* governor = nullptr;  ///< May be null: nominal level.

  /// Completions, retries and outage windows. Sensor frames never enter
  /// it: the run loop merges them in from the load-generator cursors.
  EventQueue events;
  /// Load generator of one independently driven model: its next frame and
  /// that frame's request time. A model's request times rise frame over
  /// frame, so the run's arrival stream is a merge of these cursors, in
  /// (request time, scenario slot) order — the order a sort of every
  /// generated frame by (time, generation index) would give.
  struct Cursor {
    models::TaskId task = models::TaskId::kHT;
    /// Input streams (the first paces the deadlines); a multi-modal model
    /// waits for all of them.
    std::array<const InputSource*, workload::kNumInputSources> inputs{};
    std::size_t num_inputs = 0;
    double fps = 0.0;
    std::int64_t frame = 0;
    std::int64_t num_frames = 0;
    double treq_ms = 0.0;  ///< Request time of `frame`.
  };
  std::vector<Cursor> cursors;  ///< Scenario order.
  /// Jittered arrival of each sensor frame per input source (NaN until
  /// first read), so models sharing a source hash each frame once per run.
  std::array<std::vector<double>, workload::kNumInputSources>
      sensor_arrival_ms;
  std::uint64_t jitter_seed = 0;
  bool enable_jitter = true;
  util::Rng rng;
  Telemetry telemetry;
  std::vector<InferenceRequest> pending;
  std::vector<char> accel_busy;
  std::vector<double> accel_busy_ms;
  /// DVFS transition-latency penalty per sub-accelerator (0 = free level
  /// switches, the bit-identical default) and the level of the previous
  /// dispatch there (-1 before the first one).
  std::vector<double> transition_ms;
  std::vector<int> last_level;
  /// Idle-power accounting: the level each sub-accelerator is parked at,
  /// its idle power (W) there, and when it went idle. All three only
  /// matter when the hardware declares an idle-power term (has_idle_power);
  /// otherwise the accounting is skipped so default runs stay literally
  /// free and bit-identical.
  std::vector<std::size_t> park_level;
  std::vector<double> park_idle_w;
  std::vector<double> idle_since_ms;
  bool has_idle_power = false;
  /// Idle energy accrues only inside [0, duration]: the drain past the
  /// window belongs to the next phase's (or nobody's) accounting.
  double idle_account_end_ms = 0.0;
  /// Busy intervals per sub-accelerator. A unit runs one dispatch at a
  /// time, so each bucket fills in start order; the result timeline is the
  /// merge of the buckets, with no sort.
  std::vector<std::vector<BusyInterval>> unit_timeline;
  std::vector<std::size_t> merge_pos;  ///< Bucket cursors of that merge.
  // Per-model state, indexed by scenario slot.
  std::vector<ModelRunStats> stats;
  std::vector<std::vector<const ScenarioModel*>> fanout;
  std::vector<double> baseline_mj;  ///< Per-inference baseline share (mJ).
  std::array<int, models::kNumTasks> slot_of{};  // task index -> slot or -1
  std::vector<std::size_t> idle_scratch;
  std::vector<std::size_t> sort_order;  ///< RecordStore::sort_canonical.
  double total_energy_mj = 0.0;
  // ---- Fault injection (inert on fault-free runs) -------------------------
  /// The materialized schedule for this run (empty plan when no fault class
  /// is enabled) and the per-run offline/throttle state over it.
  FaultPlan fault_plan;
  FaultInjector injector;
  AdmissionController* admission = nullptr;  ///< May be null: admit all.
  ResilienceStats resilience;
  /// In-flight dispatch per sub-accelerator, written on every dispatch: the
  /// completion event carries only the unit index and reads the rest here.
  std::vector<InferenceRequest> inflight_req;
  std::vector<std::size_t> inflight_level;
  std::vector<double> inflight_start;
  /// Non-execution share of the in-flight latency (DVFS transition penalty
  /// + checkpoint restore overhead), charged before layer 0 runs. The
  /// outage-kill path subtracts it from the busy interval before walking
  /// the layer prefixes, so overhead time never counts as completed layers.
  std::vector<double> inflight_extra_ms;
  /// Requests waiting out a retry backoff; a kRetry event names its slot.
  std::vector<InferenceRequest> retry_slots;
  std::vector<std::uint32_t> free_retry_slots;
  /// Best-case latency per model slot over every (unit, level): the retry
  /// feasibility bound (give up when even this cannot meet the deadline).
  std::vector<double> best_latency;
  // Recycled arenas (fed by RunScratch::recycle).
  std::vector<RecordStore> store_pool;
  /// Consumed results, emptied but holding their capacity: the name, the
  /// per-model list, the timeline, the busy-ms vector and the telemetry.
  std::vector<ScenarioRunResult> result_pool;

  Impl() { slot_of.fill(-1); }

  /// Rewinds every per-run field, keeping all allocated capacity.
  void begin_run(const hw::AcceleratorSystem& sys, const CostTable& c,
                 Scheduler& s, FrequencyGovernor* g, AdmissionController* adm,
                 const RunConfig& config) {
    costs = &c;
    system = &sys;
    scheduler = &s;
    governor = g;
    const std::size_t n = sys.sub_accels.size();
    events.reset(n);
    rng.reseed(config.seed);
    jitter_seed = config.seed;
    enable_jitter = config.enable_jitter;
    pending.clear();
    cursors.clear();
    accel_busy.assign(n, 0);
    accel_busy_ms.assign(n, 0.0);
    last_level.assign(n, -1);
    transition_ms.resize(n);
    park_level.resize(n);
    park_idle_w.resize(n);
    idle_since_ms.assign(n, 0.0);
    has_idle_power = false;
    idle_account_end_ms = config.duration_ms;
    for (std::size_t sa = 0; sa < n; ++sa) {
      transition_ms[sa] = sys.sub_accels[sa].dvfs.transition_ms;
      // Hardware boots parked at the nominal operating point.
      park_level[sa] = c.nominal_level(sa);
      park_idle_w[sa] = c.idle_power_w(sa, park_level[sa]);
      if (sys.sub_accels[sa].dvfs.idle_mw != 0.0) has_idle_power = true;
    }
    telemetry.reset(n, config.duration_ms);
    // Fault wiring. Precedence: the run config's spec (when it enables a
    // fault class) over the hardware's own. A disabled spec builds no plan
    // and arms nothing — the dispatch hot path then only tests one bool.
    admission = adm;
    resilience = ResilienceStats{};
    const FaultSpec& fspec =
        config.faults.enabled() ? config.faults : sys.faults;
    validate_fault_spec(fspec);
    if (fspec.enabled()) {
      fault_plan.rebuild(fspec, config.seed, n, config.duration_ms,
                         sys.fault_domains);
    } else {
      fault_plan = FaultPlan{};
    }
    injector.arm(&fault_plan, n);
    inflight_req.assign(n, InferenceRequest{});
    inflight_level.assign(n, 0);
    inflight_start.assign(n, 0.0);
    inflight_extra_ms.assign(n, 0.0);
    retry_slots.clear();
    free_retry_slots.clear();
    best_latency.clear();
    // Inner vectors are cleared, never destroyed, so their capacity stays.
    if (unit_timeline.size() < n) unit_timeline.resize(n);
    for (auto& bucket : unit_timeline) bucket.clear();
    stats.clear();
    for (auto& down : fanout) down.clear();
    baseline_mj.clear();
    slot_of.fill(-1);
    idle_scratch.clear();
    idle_scratch.reserve(n);
    total_energy_mj = 0.0;
  }

  /// A cleared record store with whatever capacity the pool retained.
  RecordStore take_store() {
    if (store_pool.empty()) return RecordStore{};
    RecordStore store = std::move(store_pool.back());
    store_pool.pop_back();
    store.clear();
    return store;
  }

  /// An empty result whose buffers keep whatever capacity the pool
  /// retained.
  ScenarioRunResult take_result() {
    if (result_pool.empty()) return ScenarioRunResult();
    ScenarioRunResult result = std::move(result_pool.back());
    result_pool.pop_back();
    return result;
  }

  /// Jittered arrival time of sensor frame `sf` of `src` (Definition 7),
  /// hashed at most once per run.
  double sensor_arrival(const InputSource& src, std::int64_t sf) {
    double& t = sensor_arrival_ms[static_cast<std::size_t>(src.id)]
                                 [static_cast<std::size_t>(sf)];
    if (std::isnan(t)) {
      t = workload::frame_arrival_ms(src, sf, jitter_seed, enable_jitter);
    }
    return t;
  }

  /// Request time of the cursor's current frame: multi-modal models wait
  /// for the latest of their input streams.
  double request_ms(const Cursor& c) {
    double treq = 0.0;
    for (std::size_t i = 0; i < c.num_inputs; ++i) {
      const InputSource& src = *c.inputs[i];
      treq = std::max(treq,
                      sensor_arrival(src, sensor_frame_for(src.fps, c.fps,
                                                           c.frame)));
    }
    return treq;
  }

  /// Pops the next generator frame of the merged arrival stream into
  /// `req`. Returns false once every cursor is exhausted.
  bool next_arrival(InferenceRequest& req) {
    Cursor* next = nullptr;
    for (auto& c : cursors) {
      if (c.frame < c.num_frames &&
          (next == nullptr || c.treq_ms < next->treq_ms)) {
        next = &c;
      }
    }
    if (next == nullptr) return false;
    req = InferenceRequest{};
    req.task = next->task;
    req.frame = next->frame;
    req.treq_ms = next->treq_ms;
    req.tdl_ms = deadline_ms(*next->inputs[0], next->fps, next->frame);
    if (++next->frame < next->num_frames) {
      const double treq = request_ms(*next);
      // Table-3 jitter (<= 0.1 ms) is far below any frame period, so a
      // model's request times cannot fall; the merge relies on it.
      if (treq < next->treq_ms) {
        throw std::logic_error(
            std::string("ScenarioRunner: request times of ") +
            models::task_code(next->task) + " fall between frames");
      }
      next->treq_ms = treq;
    }
    return true;
  }

  /// Appends a busy interval of `sa` to its bucket. Dispatches on one unit
  /// are serial, so starts arrive in order; only an equal-start tie (after
  /// a zero-length interval) can need a step back.
  void record_busy(std::size_t sa, const InferenceRequest& req,
                   double start_ms, double end_ms) {
    auto& bucket = unit_timeline[sa];
    bucket.push_back(BusyInterval{static_cast<int>(sa), req.task, req.frame,
                                  start_ms, end_ms});
    settle_timeline(bucket, bucket.size() - 1);
  }

  /// Merges the per-unit buckets into `out` in timeline_less order.
  void merge_timeline(std::vector<BusyInterval>& out) {
    const std::size_t k = system->sub_accels.size();
    std::size_t total = 0;
    for (std::size_t sa = 0; sa < k; ++sa) total += unit_timeline[sa].size();
    out.clear();
    out.reserve(total);
    merge_pos.assign(k, 0);
    for (std::size_t i = 0; i < total; ++i) {
      const BusyInterval* best = nullptr;
      std::size_t best_sa = 0;
      for (std::size_t sa = 0; sa < k; ++sa) {
        if (merge_pos[sa] == unit_timeline[sa].size()) continue;
        const BusyInterval& head = unit_timeline[sa][merge_pos[sa]];
        if (best == nullptr || timeline_less(head, *best)) {
          best = &head;
          best_sa = sa;
        }
      }
      out.push_back(*best);
      ++merge_pos[best_sa];
    }
  }

  std::size_t slot(models::TaskId task) const {
    return static_cast<std::size_t>(slot_of[models::task_index(task)]);
  }

  /// Charges the idle window [idle_since, now] of `sa` at its parked
  /// level's idle power. No-op on hardware without an idle term, and on an
  /// empty-or-negative window (the end-of-run close passes the configured
  /// duration, which a draining completion may already have passed).
  void charge_idle(std::size_t sa, double now) {
    const double iw = park_idle_w[sa];
    if (iw == 0.0) return;
    const double dt = std::min(now, idle_account_end_ms) - idle_since_ms[sa];
    if (dt <= 0.0) return;
    const double mj = dt * iw;  // W * ms = mJ
    total_energy_mj += mj;
    telemetry.on_idle_energy(sa, mj);
  }

  /// Drops every pending request whose deadline has passed without a start.
  /// Swap-remove: pending order is not preserved (see the Scheduler
  /// contract in dispatch_context.h).
  void drop_stale(double now) {
    std::size_t i = 0;
    while (i < pending.size()) {
      if (pending[i].tdl_ms <= now) {
        auto& ms = stats[slot(pending[i].task)];
        ms.records.append_dropped(pending[i].task, pending[i].frame,
                                  pending[i].treq_ms, pending[i].tdl_ms);
        ++ms.frames_dropped;
        ++resilience.drops_late;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }

  /// Routes a newly-created request through admission control (when
  /// configured) into the pending queue. Deliberately does NOT dispatch:
  /// call sites keep their existing dispatch cadence — the fan-out loop
  /// pushes all children before one try_dispatch so the scheduler sees
  /// them together — which is what keeps admission-free runs byte-identical
  /// to pre-admission builds.
  void arrive(const InferenceRequest& req) {
    if (admission != nullptr) {
      DispatchContext actx;
      actx.now_ms = events.now();
      actx.request = &req;
      actx.offline = injector.active() ? &injector.offline_mask() : nullptr;
      actx.domain_offline =
          injector.active() && !injector.domain_offline_mask().empty()
              ? &injector.domain_offline_mask()
              : nullptr;
      actx.costs = costs;
      actx.telemetry = &telemetry;
      actx.system = system;
      if (!admission->admit(actx)) {
        // Drop-early: same record bytes as a stale-input drop, so scoring
        // and byte-identity checks treat both drop paths uniformly.
        auto& ms = stats[slot(req.task)];
        ms.records.append_dropped(req.task, req.frame, req.treq_ms,
                                  req.tdl_ms);
        ++ms.frames_dropped;
        ++resilience.drops_early;
        return;
      }
    }
    pending.push_back(req);
  }

  /// Parks `sa` for the coming idle window (governor consult; the default
  /// holds the level it just ran at) and re-arms idle-power accounting.
  void park_after(const InferenceRequest& req, std::size_t sa,
                  std::size_t level, double now) {
    std::size_t park = level;
    if (governor != nullptr) {
      DispatchContext pctx;
      pctx.now_ms = now;
      pctx.request = &req;
      pctx.sub_accel = sa;
      pctx.level = level;
      pctx.costs = costs;
      pctx.telemetry = &telemetry;
      pctx.system = system;
      park = governor->park_level(pctx);
      if (park >= costs->num_levels(sa)) {
        throw std::logic_error("Governor returned an invalid park level");
      }
    }
    park_level[sa] = park;
    park_idle_w[sa] = has_idle_power ? costs->idle_power_w(sa, park) : 0.0;
    idle_since_ms[sa] = now;
    telemetry.on_park(sa, park);
  }

  /// True when `req` is executing from a layer checkpoint: an earlier
  /// attempt was killed mid-model and checkpointing is on, so this dispatch
  /// pays (and this attempt burns) only the remaining layers' cost.
  bool is_resumed(const InferenceRequest& req) const {
    return req.resume_layer > 0 && injector.active() &&
           fault_plan.spec().checkpoint;
  }

  /// Completion of the inference in flight on `sa`. The request is copied
  /// out first: the closing try_dispatch may start new work on `sa` and
  /// overwrite its in-flight slot.
  void on_complete(std::size_t sa) {
    const InferenceRequest req = inflight_req[sa];
    const std::size_t level = inflight_level[sa];
    const double start_ms = inflight_start[sa];
    const double now = events.now();
    accel_busy[sa] = 0;
    accel_busy_ms[sa] += now - start_ms;

    const std::size_t sl = slot(req.task);
    auto& ms = stats[sl];
    const ExecutionCost& cost = costs->cost(req.task, sa, level);
    double accel_mj = cost.energy_mj;
    double static_mj = cost.static_energy_mj;
    const bool resumed = is_resumed(req);
    if (resumed) {
      // Only the layers actually re-run are charged; the completed prefix
      // was paid (pro-rated) when the earlier attempt was killed.
      const auto from = static_cast<std::size_t>(req.resume_layer);
      accel_mj -= costs->layer_energy_prefix_mj(req.task, sa, level, from);
      static_mj -= costs->layer_static_prefix_mj(req.task, sa, level, from);
    }
    const double energy_mj = accel_mj + baseline_mj[sl];
    total_energy_mj += energy_mj;
    ++ms.frames_executed;
    if (now > req.tdl_ms) ++ms.deadline_misses;
    ms.records.append_executed(req.task, req.frame, req.treq_ms, req.tdl_ms,
                               static_cast<int>(sa), static_cast<int>(level),
                               start_ms, now, energy_mj, resumed);
    record_busy(sa, req, start_ms, now);
    // Accelerator energy split (the device baseline is system-level, not a
    // sub-accelerator term, so it stays out of the breakdown).
    telemetry.on_retire(sa, req, level, now, accel_mj - static_mj, static_mj);
    // Park the sub-accelerator for the coming idle window. The default
    // holds the executed level (the PMU keeps its operating point);
    // race-to-idle drops to the cheapest one.
    park_after(req, sa, level, now);

    // Trigger dependent models (dependency tracker).
    for (const ScenarioModel* down : fanout[sl]) {
      const bool fire = rng.bernoulli(down->trigger_probability);
      auto& dms = stats[slot(down->task)];
      if (down->dependency == DependencyType::kControl) {
        // QoE denominator counts only triggered requests for
        // control-dependent models.
        if (fire) ++dms.frames_expected;
      }
      if (!fire) continue;
      const auto& src =
          workload::input_source(workload::driving_source(down->task));
      InferenceRequest dreq;
      dreq.task = down->task;
      dreq.frame = req.frame;
      dreq.treq_ms = now;  // input = upstream output, ready now
      dreq.tdl_ms = deadline_ms(src, down->target_fps, req.frame);
      dreq.from_upstream = true;
      arrive(dreq);
    }
    try_dispatch();
  }

  /// Completion path of a transiently-faulted dispatch: the unit burned the
  /// full latency and energy but produced no frame. Retries with backoff
  /// while the budget lasts AND the deadline is still reachable at the
  /// task's best-case latency; otherwise the frame drops here. Reads the
  /// in-flight slot of `sa` like on_complete.
  void on_fault(std::size_t sa) {
    const InferenceRequest req = inflight_req[sa];
    const std::size_t level = inflight_level[sa];
    const double start_ms = inflight_start[sa];
    const double now = events.now();
    accel_busy[sa] = 0;
    accel_busy_ms[sa] += now - start_ms;
    const ExecutionCost& cost = costs->cost(req.task, sa, level);
    // Full accelerator burn of this attempt (a resumed attempt only ran the
    // remaining layers); no system-baseline share — the device baseline is
    // amortized per PRODUCED frame (on_complete), not per attempt.
    double burn_mj = cost.energy_mj;
    double burn_static_mj = cost.static_energy_mj;
    if (is_resumed(req)) {
      const auto from = static_cast<std::size_t>(req.resume_layer);
      burn_mj -= costs->layer_energy_prefix_mj(req.task, sa, level, from);
      burn_static_mj -= costs->layer_static_prefix_mj(req.task, sa, level, from);
    }
    total_energy_mj += burn_mj;
    record_busy(sa, req, start_ms, now);
    telemetry.on_abort(sa, now, burn_mj - burn_static_mj, burn_static_mj);
    ++resilience.transient_faults;
    park_after(req, sa, level, now);

    const FaultSpec& spec = fault_plan.spec();
    const double t_retry = now + spec.retry_backoff_ms;
    const std::size_t sl = slot(req.task);
    if (req.attempt < spec.max_retries &&
        t_retry + best_latency[sl] <= req.tdl_ms) {
      ++resilience.retries;
      InferenceRequest retry = req;
      ++retry.attempt;  // fresh Bernoulli draw for the next try
      std::uint32_t rs;
      if (free_retry_slots.empty()) {
        rs = static_cast<std::uint32_t>(retry_slots.size());
        retry_slots.push_back(retry);
      } else {
        rs = free_retry_slots.back();
        free_retry_slots.pop_back();
        retry_slots[rs] = retry;
      }
      events.push_at(t_retry, EventKind::kRetry, rs);
    } else {
      auto& ms = stats[sl];
      ms.records.append_dropped(req.task, req.frame, req.treq_ms, req.tdl_ms);
      ++ms.frames_dropped;
      ++resilience.retry_give_ups;
      ++resilience.drops_late;
    }
    try_dispatch();
  }

  /// Outage window opens on `sa`: the unit goes offline (try_dispatch skips
  /// it) and any in-flight inference is killed — partial busy time and
  /// pro-rated energy are charged, the request re-queues for failover onto
  /// whatever healthy unit the scheduler picks.
  void on_outage_start(std::size_t sa) {
    injector.set_offline(sa, true);
    if (accel_busy[sa] != 0 &&
        events.void_completion(static_cast<std::uint32_t>(sa))) {
      const double now = events.now();
      const InferenceRequest req = inflight_req[sa];
      const std::size_t level = inflight_level[sa];
      const double start = inflight_start[sa];
      accel_busy[sa] = 0;
      accel_busy_ms[sa] += now - start;
      const ExecutionCost& cost = costs->cost(req.task, sa, level);
      InferenceRequest requeued = req;
      if (fault_plan.spec().checkpoint) {
        // Layer-granular kill accounting: subtract the non-execution share
        // (transition penalty + restore overhead) from the busy interval,
        // walk the per-layer latency prefix to find the last layer that
        // fully finished, and record it as the re-dispatch's resume point.
        // Energy pro-rates over THIS attempt's remaining-layer cost.
        const auto from = static_cast<std::size_t>(req.resume_layer);
        const double exec_elapsed =
            std::max(0.0, (now - start) - inflight_extra_ms[sa]);
        const std::size_t done =
            costs->completed_layers(req.task, sa, level, from, exec_elapsed);
        const double attempt_lat =
            cost.latency_ms -
            costs->layer_latency_prefix_ms(req.task, sa, level, from);
        const double attempt_mj =
            cost.energy_mj -
            costs->layer_energy_prefix_mj(req.task, sa, level, from);
        const double attempt_static_mj =
            cost.static_energy_mj -
            costs->layer_static_prefix_mj(req.task, sa, level, from);
        double frac = attempt_lat > 0.0 ? exec_elapsed / attempt_lat : 1.0;
        frac = std::min(1.0, std::max(0.0, frac));
        total_energy_mj += frac * attempt_mj;
        telemetry.on_abort(sa, now, frac * (attempt_mj - attempt_static_mj),
                           frac * attempt_static_mj);
        requeued.resume_layer = static_cast<std::int32_t>(done);
      } else {
        // Pro-rate by elapsed fraction of the execution latency (the
        // scheduled completion may additionally carry a DVFS transition
        // penalty, so clamp to [0, 1]).
        double frac =
            cost.latency_ms > 0.0 ? (now - start) / cost.latency_ms : 1.0;
        frac = std::min(1.0, std::max(0.0, frac));
        total_energy_mj += frac * cost.energy_mj;
        telemetry.on_abort(sa, now,
                           frac * (cost.energy_mj - cost.static_energy_mj),
                           frac * cost.static_energy_mj);
      }
      if (now > start) record_busy(sa, req, start, now);
      ++resilience.outage_kills;
      // The dead unit sits at its parked level; idle accounting restarts
      // at the kill instant (the busy window above consumed [start, now)).
      idle_since_ms[sa] = now;
      requeued.killed_on = static_cast<std::int32_t>(sa);
      pending.push_back(requeued);
      try_dispatch();  // a healthy idle unit may take the work right now
    }
  }

  void on_outage_end(std::size_t sa) {
    injector.set_offline(sa, false);
    try_dispatch();  // fresh capacity for whatever is pending
  }

  void try_dispatch() {
    drop_stale(events.now());
    const bool faulted = injector.active();
    while (!pending.empty()) {
      auto& idle = idle_scratch;
      idle.clear();
      for (std::size_t sa = 0; sa < accel_busy.size(); ++sa) {
        // Offline units never enter the idle list, so schedulers that only
        // pick from it are fault-correct without any change.
        if (accel_busy[sa] == 0 && (!faulted || !injector.offline(sa))) {
          idle.push_back(sa);
        }
      }
      if (idle.empty()) return;
      DispatchContext ctx;
      ctx.now_ms = events.now();
      ctx.pending = &pending;
      ctx.idle_sub_accels = &idle;
      ctx.offline = faulted ? &injector.offline_mask() : nullptr;
      ctx.domain_offline = faulted && !injector.domain_offline_mask().empty()
                               ? &injector.domain_offline_mask()
                               : nullptr;
      ctx.costs = costs;
      ctx.telemetry = &telemetry;
      ctx.system = system;
      const auto choice = scheduler->pick(ctx);
      if (!choice) return;
      if (choice->request_index >= pending.size() ||
          choice->sub_accel >= accel_busy.size() ||
          accel_busy[choice->sub_accel] != 0 ||
          (faulted && injector.offline(choice->sub_accel))) {
        throw std::logic_error("Scheduler returned an invalid assignment");
      }
      InferenceRequest req = pending[choice->request_index];
      pending[choice->request_index] = pending.back();
      pending.pop_back();
      const std::size_t sa = choice->sub_accel;
      accel_busy[sa] = 1;
      const double start = events.now();
      std::size_t level = costs->nominal_level(sa);
      if (governor != nullptr) {
        DispatchContext gctx;
        gctx.now_ms = start;
        gctx.request = &req;
        gctx.sub_accel = sa;
        gctx.offline = ctx.offline;
        gctx.domain_offline = ctx.domain_offline;
        gctx.costs = costs;
        gctx.telemetry = &telemetry;
        gctx.system = system;
        level = governor->level_for(gctx);
        if (level >= costs->num_levels(sa)) {
          throw std::logic_error("Governor returned an invalid DVFS level");
        }
      }
      // Thermal throttle: inside a window the governor's choice is clamped
      // to the cap (after validation — the clamp result is always a valid
      // level because it only ever lowers the index).
      if (faulted) {
        if (const auto cap = injector.throttle_cap(sa, start)) {
          const std::size_t capped =
              std::min(*cap, costs->num_levels(sa) - 1);
          if (level > capped) {
            level = capped;
            ++resilience.throttle_clamps;
          }
        }
      }
      // Close the idle window that ends with this dispatch, then record
      // the dispatch — telemetry advances AFTER the policy consultations,
      // so decisions always see the pre-dispatch state.
      charge_idle(sa, start);
      telemetry.on_dispatch(sa, req, level, start, pending.size());
      double latency = costs->latency_ms(req.task, sa, level);
      double extra = 0.0;  ///< Non-execution share (overheads before layer 0).
      if (is_resumed(req)) {
        // Resume from the checkpoint: pay only the remaining layers plus
        // the restore overhead. The latency prefix at THIS (unit, level) is
        // the execution time the checkpoint saved here.
        const auto from = static_cast<std::size_t>(req.resume_layer);
        const double saved =
            costs->layer_latency_prefix_ms(req.task, sa, level, from);
        latency -= saved;
        latency += fault_plan.spec().checkpoint_overhead_ms;
        extra += fault_plan.spec().checkpoint_overhead_ms;
        ++resilience.resumes;
        resilience.checkpoint_saved_ms += saved;
      }
      // Consecutive dispatches at different levels pay the PMU's switch
      // cost before executing (PLL relock / voltage settle). The default
      // penalty of 0 adds nothing, keeping penalty-free runs bit-identical.
      if (transition_ms[sa] > 0.0 && last_level[sa] >= 0 &&
          last_level[sa] != static_cast<int>(level)) {
        latency += transition_ms[sa];
        extra += transition_ms[sa];
      }
      last_level[sa] = static_cast<int>(level);
      // Failover accounting: a request an outage killed earlier is now
      // re-placed; landing on a different (healthy) unit is a failover.
      // Only an armed injector ever sets killed_on.
      if (req.killed_on >= 0) {
        if (req.killed_on != static_cast<std::int32_t>(sa)) {
          ++resilience.failovers;
        }
        req.killed_on = -1;
      }
      inflight_req[sa] = req;
      inflight_level[sa] = level;
      inflight_start[sa] = start;
      inflight_extra_ms[sa] = extra;
      // The fault decision is drawn here (it is a pure hash — placement
      // cannot change it); an outage voids the unit's completion to kill
      // this execution mid-flight.
      const bool fails =
          faulted &&
          fault_plan.transient_fault(req.task, req.frame, req.attempt);
      events.push_after(latency,
                        fails ? EventKind::kFault : EventKind::kComplete,
                        static_cast<std::uint32_t>(sa));
    }
  }

  /// Runs the handler of one popped event.
  void fire(const Event& e) {
    switch (e.kind) {
      case EventKind::kComplete: on_complete(e.unit); break;
      case EventKind::kFault: on_fault(e.unit); break;
      case EventKind::kRetry:
        // Retries re-enter pending directly: the request was already
        // admitted at arrival, and admission is an arrival-time decision.
        pending.push_back(retry_slots[e.unit]);
        free_retry_slots.push_back(e.unit);
        try_dispatch();
        break;
      case EventKind::kOutageStart: on_outage_start(e.unit); break;
      case EventKind::kOutageEnd: on_outage_end(e.unit); break;
    }
  }
};

RunScratch::RunScratch() : impl_(std::make_unique<Impl>()) {}
RunScratch::~RunScratch() = default;
RunScratch::RunScratch(RunScratch&&) noexcept = default;
RunScratch& RunScratch::operator=(RunScratch&&) noexcept = default;

void RunScratch::recycle(ScenarioRunResult&& result) {
  // Reverse order: take_store() pops from the back, so the next run's slot
  // 0 receives the store that served slot 0 last time. A stable
  // store-to-slot assignment keeps per-store capacities at their slot's
  // high-water mark instead of cycling (and regrowing) across slots.
  for (auto it = result.per_model.rbegin(); it != result.per_model.rend();
       ++it) {
    it->records.clear();
    impl_->store_pool.push_back(std::move(it->records));
  }
  // The rest of the result keeps its capacity for the next take_result():
  // cleared here, overwritten in place by the next run's assembly.
  result.scenario_name.clear();
  result.per_model.clear();
  result.timeline.clear();
  result.sub_accel_busy_ms.clear();
  result.phase_start_ms.clear();
  result.duration_ms = 0.0;
  result.total_energy_mj = 0.0;
  result.resilience = ResilienceStats{};
  impl_->result_pool.push_back(std::move(result));
}

std::size_t RunScratch::pooled_stores() const {
  return impl_->store_pool.size();
}

std::size_t RunScratch::event_queue_high_water() const {
  return impl_->events.high_water();
}

std::size_t RunScratch::pooled_record_capacity() const {
  std::size_t total = 0;
  for (const auto& store : impl_->store_pool) total += store.capacity();
  return total;
}

ScenarioRunResult ScenarioRunner::run(const UsageScenario& scenario,
                                      Scheduler& scheduler,
                                      const RunConfig& config,
                                      FrequencyGovernor* governor,
                                      RunScratch* scratch,
                                      AdmissionController* admission) const {
  if (!std::isfinite(config.duration_ms) || config.duration_ms <= 0.0) {
    throw std::invalid_argument(
        "ScenarioRunner::run: duration must be finite and > 0");
  }
  double run_frames = 0.0;
  for (const auto& sm : scenario.models) {
    const auto& src =
        workload::input_source(workload::driving_source(sm.task));
    if (!(sm.target_fps > 0.0)) {  // negated so NaN fails too
      throw std::invalid_argument(
          "ScenarioRunner::run: target FPS must be > 0 for " +
          std::string(models::task_code(sm.task)));
    }
    if (sm.target_fps > src.fps + 1e-9) {
      throw std::invalid_argument(
          std::string("ScenarioRunner::run: target FPS exceeds sensor rate "
                      "for ") +
          models::task_code(sm.task));
    }
    run_frames += sm.target_fps * config.duration_ms / 1000.0;
  }
  // Summed in double, so a product past the integer range reads as a huge
  // (or infinite) budget here instead of overflowing a frame count below.
  if (!(run_frames <= static_cast<double>(RunConfig::kMaxFramesPerRun))) {
    throw std::invalid_argument(
        "ScenarioRunner::run: frame budget exceeds the per-run cap of " +
        std::to_string(RunConfig::kMaxFramesPerRun) +
        " frames (shorten duration_ms)");
  }
  // Shared with scenario_io::from_config_text: the parser rejects rate
  // mismatches at load time, this preflight catches programmatically-built
  // scenarios.
  workload::validate_dependency_rates(scenario);

  // The fallback arena is constructed only when the caller brought none —
  // sweep trials and program phases always do, and an eager local would
  // pay one Impl heap allocation per run for nothing.
  std::optional<RunScratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  RunScratch::Impl& eng = *scratch->impl_;
  eng.begin_run(*system_, *costs_, scheduler, governor, admission, config);
  // A run that throws mid-way (say, a scheduler returning an invalid
  // assignment) leaves live events queued; the scratch outlives the run, so
  // drop them on the way out or every later run on it fails its reset.
  struct DiscardOnThrow {
    EventQueue& events;
    int uncaught = std::uncaught_exceptions();
    ~DiscardOnThrow() {
      if (std::uncaught_exceptions() > uncaught) events.discard();
    }
  } discard_on_throw{eng.events};

  const std::size_t num_models = scenario.models.size();
  eng.stats.resize(num_models);
  if (eng.fanout.size() < num_models) eng.fanout.resize(num_models);
  eng.baseline_mj.resize(num_models);
  for (std::size_t sl = 0; sl < num_models; ++sl) {
    const auto& sm = scenario.models[sl];
    eng.slot_of[models::task_index(sm.task)] = static_cast<int>(sl);
    eng.stats[sl].task = sm.task;
    eng.stats[sl].target_fps = sm.target_fps;
    eng.stats[sl].records = eng.take_store();
    // mW-free form: W * ms = mJ; the frame window is 1000/FPS ms.
    eng.baseline_mj[sl] = config.system_baseline_w * 1000.0 / sm.target_fps;
  }
  for (const auto& sm : scenario.models) {
    if (!sm.depends_on) continue;
    // An upstream task absent from the scenario can never complete, so the
    // dependent model is simply never triggered (matching the behavior of
    // the former map-keyed fanout; its QoE denominator still counts for
    // data dependencies).
    const int up = eng.slot_of[models::task_index(*sm.depends_on)];
    if (up >= 0) eng.fanout[static_cast<std::size_t>(up)].push_back(&sm);
  }
  // Reserve record and pending storage up front: each model sees at most
  // its frame budget (plus upstream-triggered requests bounded by the same
  // rate), so the hot loop never reallocates.
  std::int64_t total_expected = 0;
  for (std::size_t sl = 0; sl < num_models; ++sl) {
    const auto& sm = scenario.models[sl];
    const auto budget = static_cast<std::int64_t>(
        std::llround(sm.target_fps * config.duration_ms / 1000.0));
    eng.stats[sl].records.reserve(static_cast<std::size_t>(budget) + 8);
    total_expected += budget;
  }
  eng.pending.reserve(static_cast<std::size_t>(total_expected) + 8);

  // ---- Load generation (Figure 2's load generator) ---------------------

  // Per source: how many sensor frames the run reads.
  std::array<std::size_t, workload::kNumInputSources> sensor_frames{};
  for (const auto& sm : scenario.models) {
    auto& ms = eng.stats[eng.slot(sm.task)];
    const auto num_frames = static_cast<std::int64_t>(
        std::llround(sm.target_fps * config.duration_ms / 1000.0));
    if (sm.depends_on) {
      if (sm.dependency == DependencyType::kData) {
        // Data-dependent: one request expected per upstream target frame.
        ms.frames_expected = num_frames;
      }
      continue;  // requests created by upstream completions
    }
    ms.frames_expected = num_frames;
    if (num_frames <= 0) continue;
    RunScratch::Impl::Cursor c;
    c.task = sm.task;
    c.fps = sm.target_fps;
    c.num_frames = num_frames;
    for (const auto in : workload::unit_model_spec(sm.task).inputs) {
      const auto& src = workload::input_source(in);
      c.inputs.at(c.num_inputs++) = &src;
      const auto last = static_cast<std::size_t>(
          sensor_frame_for(src.fps, sm.target_fps, num_frames - 1));
      auto& n = sensor_frames[static_cast<std::size_t>(in)];
      n = std::max(n, last + 1);
    }
    eng.cursors.push_back(c);
  }
  for (std::size_t in = 0; in < sensor_frames.size(); ++in) {
    eng.sensor_arrival_ms[in].assign(sensor_frames[in],
                                     std::numeric_limits<double>::quiet_NaN());
  }
  for (auto& c : eng.cursors) c.treq_ms = eng.request_ms(c);

  // ---- Fault schedule (precomputed; worker count cannot reorder it) -----
  if (eng.injector.active()) {
    // Best-case latency per slot bounds the retry feasibility check: a
    // retry whose backoff-deferred start plus this bound already misses the
    // deadline is given up immediately instead of burning another attempt.
    eng.best_latency.assign(num_models,
                            std::numeric_limits<double>::infinity());
    for (std::size_t sl = 0; sl < num_models; ++sl) {
      const auto task = scenario.models[sl].task;
      for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
        for (std::size_t lv = 0; lv < costs_->num_levels(sa); ++lv) {
          eng.best_latency[sl] =
              std::min(eng.best_latency[sl], costs_->latency_ms(task, sa, lv));
        }
      }
    }
    // Outage windows become queued events. At an exactly shared timestamp
    // the arrival is processed first (the run loop merges each arrival
    // ahead of queued events at its time) — a fixed, documented order that
    // no worker count can perturb. Throttle windows need no events: the
    // dispatcher samples them via FaultInjector::throttle_cap.
    for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
      const auto unit = static_cast<std::uint32_t>(sa);
      for (const auto& w : eng.fault_plan.outages(sa)) {
        if (w.start_ms >= config.duration_ms) break;
        eng.events.push_at(w.start_ms, EventKind::kOutageStart, unit);
        eng.events.push_at(w.end_ms, EventKind::kOutageEnd, unit);
      }
    }
  }

  // Merge the arrival stream ahead of the event queue: every queued event
  // strictly before an arrival fires first, then the arrival; queued events
  // at the arrival's own time wait for it.
  InferenceRequest arrival;
  Event event;
  while (eng.next_arrival(arrival)) {
    while (eng.events.pop_before(arrival.treq_ms, event)) eng.fire(event);
    eng.events.advance_to(arrival.treq_ms);
    eng.arrive(arrival);
    eng.try_dispatch();
  }
  while (eng.events.pop(event)) eng.fire(event);
  // Anything still pending after the event queue drained can never start.
  eng.drop_stale(std::numeric_limits<double>::infinity());
  // Close the trailing idle windows at the CONFIGURED duration, not the
  // drained clock: a completion may drain past the window (its busy time
  // legitimately spills over, as it always has), but idle time past the
  // window belongs to whatever comes next — a program's following phase
  // accounts it itself, so charging it here would double-count session
  // wall-clock. Sub-accelerators whose last event already passed the
  // duration get no trailing idle (charge_idle and Telemetry::advance both
  // ignore non-positive windows).
  if (eng.has_idle_power) {
    for (std::size_t sa = 0; sa < system_->sub_accels.size(); ++sa) {
      eng.charge_idle(sa, config.duration_ms);
    }
  }
  eng.telemetry.finish(config.duration_ms);

  // ---- Result assembly --------------------------------------------------
  // Into a recycled result: every assignment below reuses its capacity.
  ScenarioRunResult result = eng.take_result();
  result.scenario_name = scenario.name;
  result.duration_ms = config.duration_ms;
  result.total_energy_mj = eng.total_energy_mj;
  result.sub_accel_busy_ms = eng.accel_busy_ms;
  eng.merge_timeline(result.timeline);
  result.telemetry = eng.telemetry;
  result.resilience = eng.resilience;
  // An inactive injector with zero drop-early rejections leaves the section
  // disabled, so admit-all (or null) admission never changes output bytes.
  result.resilience.enabled =
      eng.injector.active() || eng.resilience.drops_early > 0;
  result.per_model.reserve(num_models);
  for (auto& ms : eng.stats) {
    // A frame index can repeat within one model's records, so the canonical
    // order breaks ties on the remaining attributes (see sort_canonical).
    ms.records.sort_canonical(eng.sort_order);
    result.per_model.push_back(std::move(ms));
  }
  return result;
}

ScenarioRunResult ScenarioRunner::run_program(
    const workload::ScenarioProgram& program, Scheduler& scheduler,
    const RunConfig& config, FrequencyGovernor* governor, RunScratch* scratch,
    AdmissionController* admission) const {
  workload::validate_program(program);

  // Program-level fault profile (when enabled) overrides the run config's
  // for every phase; the hardware spec stays the final fallback inside
  // begin_run. Resolved once so all phases see the same precedence.
  RunConfig base = config;
  if (program.faults.enabled()) base.faults = program.faults;

  // Reuse one arena across phases even when the caller brought none (built
  // lazily: sweep trials always pass one).
  std::optional<RunScratch> local;
  RunScratch* arena = scratch != nullptr ? scratch : &local.emplace();

  // Session-level storage comes from the arena too: a trial loop recycles
  // the merged result, and reusing its arenas here is what keeps the pool
  // at its high-water mark instead of growing by one result per trial.
  ScenarioRunResult out = arena->impl_->take_result();
  out.scenario_name = program.name;
  out.sub_accel_busy_ms.assign(system_->sub_accels.size(), 0.0);
  out.telemetry.reset(system_->sub_accels.size());
  out.phase_start_ms.reserve(program.phases.size());
  // Task -> slot in out.per_model; models merge by task across phases in
  // first-seen (phase, slot) order, so a single-phase program's per_model
  // layout is exactly the phase run's.
  std::array<int, models::kNumTasks> merged_slot{};
  merged_slot.fill(-1);

  // Seed offsets are strided far apart (golden-ratio odd constant) so the
  // consecutive trial seeds of a multi-trial average (base, base+1, ...)
  // can never land on another trial's phase seed — small additive offsets
  // would make trial t's phase at offset o replay trial t+o's phase at
  // offset 0, silently correlating "independent" trials. Offset 0 keeps
  // the seed untouched (the single-phase bit-identity anchor).
  constexpr std::uint64_t kPhaseSeedStride = 0x9E3779B97F4A7C15ull;

  double phase_start = 0.0;
  for (const auto& phase : program.phases) {
    RunConfig phase_config = base;
    phase_config.duration_ms = phase.duration_ms;
    phase_config.seed = config.seed + phase.seed_offset * kPhaseSeedStride;
    // Each phase boundary retires in-flight work deterministically: run()
    // drains every scheduled completion and drops whatever can no longer
    // start — the same rule the end of a plain run applies — before the
    // next phase's model set takes over on freshly idle hardware.
    ScenarioRunResult phase_run = run(phase.scenario, scheduler, phase_config,
                                      governor, arena, admission);

    out.phase_start_ms.push_back(phase_start);
    out.total_energy_mj += phase_run.total_energy_mj;
    for (std::size_t sa = 0; sa < phase_run.sub_accel_busy_ms.size(); ++sa) {
      out.sub_accel_busy_ms[sa] += phase_run.sub_accel_busy_ms[sa];
    }
    // A completion can drain past its phase window, so the joined phase
    // settles behind the previous phase's short tail: canonical order
    // without a sort (a no-op for a single-phase program, the bit-identity
    // anchor).
    const std::size_t joined = out.timeline.size();
    for (BusyInterval iv : phase_run.timeline) {
      iv.start_ms += phase_start;
      iv.end_ms += phase_start;
      out.timeline.push_back(iv);
    }
    settle_timeline(out.timeline, joined);
    for (auto& ms : phase_run.per_model) {
      int& slot = merged_slot[models::task_index(ms.task)];
      if (slot < 0) {
        slot = static_cast<int>(out.per_model.size());
        ModelRunStats fresh;
        fresh.task = ms.task;
        fresh.records = arena->impl_->take_store();
        out.per_model.push_back(std::move(fresh));
      }
      auto& agg = out.per_model[static_cast<std::size_t>(slot)];
      // A task's rate can change across phases; the last active phase's
      // rate is kept (report-time metadata only — scoring reads records).
      agg.target_fps = ms.target_fps;
      agg.frames_expected += ms.frames_expected;
      agg.frames_executed += ms.frames_executed;
      agg.frames_dropped += ms.frames_dropped;
      agg.deadline_misses += ms.deadline_misses;
      agg.records.append_shifted(ms.records, phase_start);
    }
    // Additive telemetry accumulates, windowed telemetry carries the
    // freshest phase (see Telemetry::merge_from).
    out.telemetry.merge_from(phase_run.telemetry, phase_start);
    out.resilience.merge(phase_run.resilience);
    phase_start += phase.duration_ms;
    // The phase's record/timeline arenas go back to the pool for the next
    // phase (their contents were copied onto the session timeline above).
    arena->recycle(std::move(phase_run));
  }
  out.duration_ms = phase_start;

  // Per-model frame indices restart at every phase boundary, so the merged
  // records need the canonical sort; a single-phase program's records are
  // already canonical and return from it untouched.
  for (auto& ms : out.per_model) {
    ms.records.sort_canonical(arena->impl_->sort_order);
  }
  return out;
}

}  // namespace xrbench::runtime

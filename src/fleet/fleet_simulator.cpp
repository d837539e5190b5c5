#include "fleet/fleet_simulator.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "runtime/policy_registry.h"
#include "util/stats.h"

namespace xrbench::fleet {
namespace {

/// Backlog ordering key: class outranks arrival outranks id. A smaller key
/// is released first — a class-0 session preempts the queue position of
/// every class-1 session, however long the latter has waited.
struct BacklogKey {
  std::size_t priority_class;
  double arrival_ms;
  std::uint64_t session_id;

  bool operator<(const BacklogKey& other) const {
    if (priority_class != other.priority_class) {
      return priority_class < other.priority_class;
    }
    if (arrival_ms != other.arrival_ms) return arrival_ms < other.arrival_ms;
    return session_id < other.session_id;
  }
};

BacklogKey key_of(const SessionSpec& spec) {
  return {spec.priority_class, spec.arrival_ms, spec.session_id};
}

/// Min-heap entry: (free_at, instance index), earliest-free first, index
/// tie-break so equal free times release deterministically.
struct InstanceSlot {
  double free_at_ms;
  std::size_t instance;

  bool operator>(const InstanceSlot& other) const {
    if (free_at_ms != other.free_at_ms) {
      return free_at_ms > other.free_at_ms;
    }
    return instance > other.instance;
  }
};

using InstanceHeap =
    std::priority_queue<InstanceSlot, std::vector<InstanceSlot>,
                        std::greater<InstanceSlot>>;

/// Predicted start time for `spec` arriving at `spec.arrival_ms`: assign
/// every backlog session queued AHEAD of it (all of them outrank a fresh
/// arrival of the same class) to the earliest-freeing instances, then take
/// the next free slot. Uses only the CURRENT pool/backlog state — future
/// higher-priority arrivals can still push an admitted session later than
/// predicted; admission is a forecast, not a reservation.
double predict_start(const SessionSpec& spec, const InstanceHeap& instances,
                     const std::vector<SessionSpec>& backlog) {
  InstanceHeap sim = instances;  // copy; pool sizes are small
  const BacklogKey mine = key_of(spec);
  for (const auto& ahead : backlog) {
    if (!(key_of(ahead) < mine)) break;  // backlog is sorted
    InstanceSlot slot = sim.top();
    sim.pop();
    const double start = std::max(slot.free_at_ms, ahead.arrival_ms);
    slot.free_at_ms = start + ahead.duration_ms;
    sim.push(slot);
  }
  return std::max(spec.arrival_ms, sim.top().free_at_ms);
}

/// The admission consultation: a synthetic request encodes the decision —
/// treq = arrival, deadline = arrival + class wait budget — and now_ms
/// carries the predicted start (see FleetQueueController).
bool consult_admission(runtime::AdmissionController& admission,
                       const SessionSpec& spec, double predicted_start_ms,
                       double wait_budget_ms) {
  runtime::InferenceRequest request;
  request.frame = static_cast<std::int64_t>(spec.session_id);
  request.treq_ms = spec.arrival_ms;
  request.tdl_ms = spec.arrival_ms + wait_budget_ms;
  runtime::DispatchContext ctx;
  ctx.now_ms = predicted_start_ms;
  ctx.request = &request;
  return admission.admit(ctx);
}

double mean_executed_latency_ms(const runtime::ScenarioRunResult& run) {
  double total = 0.0;
  std::int64_t n = 0;
  for (const auto& stats : run.per_model) {
    for (std::size_t i = 0; i < stats.records.size(); ++i) {
      const auto rec = stats.records[i];
      if (rec.dropped) continue;
      total += rec.latency_ms();
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Builds the cross-session summary over `sessions`, restricted to one
/// priority class when `cls` is set. See ServiceStats for the percentile
/// conventions (QoE p99 is the low tail; rejected sessions are QoE 0 and
/// excluded from wait/latency).
ServiceStats summarize(const std::vector<SessionOutcome>& sessions,
                       const std::size_t* cls) {
  ServiceStats stats;
  util::Percentiles qoe;
  util::Percentiles latency;
  util::Percentiles wait;
  double energy = 0.0;
  double qoe_sum = 0.0;
  for (const auto& s : sessions) {
    if (cls != nullptr && s.spec.priority_class != *cls) continue;
    ++stats.offered;
    qoe.add(s.session_qoe);
    qoe_sum += s.session_qoe;
    if (!s.admitted) {
      ++stats.rejected;
      continue;
    }
    ++stats.admitted;
    latency.add(s.latency_ms);
    wait.add(s.wait_ms);
    energy += s.energy_mj;
    stats.resilience.merge(s.resilience);
  }
  if (stats.offered > 0) {
    stats.drop_rate = static_cast<double>(stats.rejected) /
                      static_cast<double>(stats.offered);
    stats.mean_qoe = qoe_sum / static_cast<double>(stats.offered);
  }
  qoe.seal();
  latency.seal();
  wait.seal();
  stats.qoe_p50 = qoe.percentile(50.0);
  stats.qoe_p99 = qoe.percentile(1.0);  // low tail: 99% meet or exceed it
  stats.latency_p50_ms = latency.percentile(50.0);
  stats.latency_p99_ms = latency.percentile(99.0);
  stats.wait_p50_ms = wait.percentile(50.0);
  stats.wait_p99_ms = wait.percentile(99.0);
  if (stats.admitted > 0) {
    stats.energy_per_session_mj =
        energy / static_cast<double>(stats.admitted);
  }
  return stats;
}

}  // namespace

FleetResult FleetSimulator::run(const FleetConfig& config,
                                const hw::AcceleratorSystem& system,
                                const core::HarnessOptions& base) {
  return run(config, resolve_catalog(config), system, base);
}

FleetResult FleetSimulator::run(
    const FleetConfig& config,
    const std::vector<workload::ScenarioProgram>& catalog,
    const hw::AcceleratorSystem& system, const core::HarnessOptions& base) {
  validate_fleet_config(config);
  const auto& registry = runtime::PolicyRegistry::instance();
  // Fail fast on unknown policy names (the registry lists the registered
  // names in the error) before any simulation work.
  auto admission = registry.make_admission(config.admission);
  admission->reset();
  if (!config.scheduler.empty()) registry.make_scheduler(config.scheduler);
  if (!config.governor.empty()) registry.make_governor(config.governor);

  const auto specs = FleetWorkload::generate(config, catalog);

  FleetResult result;
  result.config = config;
  result.sessions.resize(specs.size());

  double total_duration = 0.0;
  for (const auto& spec : specs) total_duration += spec.duration_ms;
  if (!specs.empty()) {
    const double mean_duration_s =
        total_duration / static_cast<double>(specs.size()) / 1000.0;
    result.offered_load = config.arrival_rate_per_s * mean_duration_s /
                          static_cast<double>(config.pool_size);
  }

  // ---- Stage 1: deterministic admission-queue schedule ------------------
  // Serial by construction; service times are known at arrival (a session
  // occupies its instance for exactly its program duration), so no trial
  // has to run yet.
  const std::size_t num_classes = std::max<std::size_t>(
      config.classes.size(), 1);
  auto wait_budget = [&](std::size_t cls) {
    return config.classes.empty() ? PriorityClassSpec{}.wait_budget_ms
                                  : config.classes[cls].wait_budget_ms;
  };

  // At most max_sessions sessions ever start, and idle instances (free at
  // 0, while every used one frees strictly later) pop in index order, so
  // instances past max_sessions are never touched: seeding only the first
  // min(pool_size, max_sessions) gives the same schedule at any pool size.
  InstanceHeap instances;
  const std::size_t live_instances =
      std::min(config.pool_size, config.max_sessions);
  for (std::size_t i = 0; i < live_instances; ++i) {
    instances.push({0.0, i});
  }
  std::vector<SessionSpec> backlog;  // sorted by BacklogKey

  auto start_session = [&](const SessionSpec& spec, double start_ms,
                           std::size_t instance) {
    auto& out = result.sessions[spec.session_id];
    out.admitted = true;
    out.start_ms = start_ms;
    out.wait_ms = start_ms - spec.arrival_ms;
    out.instance = instance;
  };

  // Releases backlog sessions onto every instance freeing at or before
  // `until_ms`, in chronological free order (staged release).
  auto drain_until = [&](double until_ms) {
    while (!backlog.empty() && instances.top().free_at_ms <= until_ms) {
      InstanceSlot slot = instances.top();
      instances.pop();
      const SessionSpec next = backlog.front();
      backlog.erase(backlog.begin());
      const double start = std::max(slot.free_at_ms, next.arrival_ms);
      start_session(next, start, slot.instance);
      slot.free_at_ms = start + next.duration_ms;
      instances.push(slot);
    }
  };

  for (const auto& spec : specs) {
    result.sessions[spec.session_id].spec = spec;
    drain_until(spec.arrival_ms);

    const double predicted_start = predict_start(spec, instances, backlog);
    if (!consult_admission(*admission, spec, predicted_start,
                           wait_budget(spec.priority_class))) {
      continue;  // rejected: the outcome keeps its zeroed defaults
    }
    if (backlog.empty() && instances.top().free_at_ms <= spec.arrival_ms) {
      InstanceSlot slot = instances.top();
      instances.pop();
      start_session(spec, spec.arrival_ms, slot.instance);
      slot.free_at_ms = spec.arrival_ms + spec.duration_ms;
      instances.push(slot);
    } else {
      auto it = std::upper_bound(
          backlog.begin(), backlog.end(), spec,
          [](const SessionSpec& a, const SessionSpec& b) {
            return key_of(a) < key_of(b);
          });
      backlog.insert(it, spec);
    }
  }
  drain_until(std::numeric_limits<double>::infinity());

  // ---- Stage 2: sessions-as-trials fan-out ------------------------------
  // Every admitted session is one program trial at its own seed. All pool
  // instances are copies of one design, so run_program_points groups the
  // whole fleet behind a single CostTable build; results land in
  // session-id (= submission) order — byte-identical at any worker count.
  std::vector<core::ProgramSweepPoint> points;
  std::vector<std::size_t> point_session;
  points.reserve(specs.size());
  for (const auto& spec : specs) {
    if (!result.sessions[spec.session_id].admitted) continue;
    core::ProgramSweepPoint point;
    point.label = "session-" + std::to_string(spec.session_id);
    point.system = system;
    point.options = base;
    point.options.run.seed = spec.seed;
    point.options.dynamic_trials = 1;  // a session IS one trial
    if (!config.scheduler.empty()) point.options.scheduler = config.scheduler;
    if (!config.governor.empty()) point.options.governor = config.governor;
    point.program = catalog[spec.program_rank];
    points.push_back(std::move(point));
    point_session.push_back(spec.session_id);
  }

  auto outcomes = engine_.run_program_points(points);

  for (std::size_t p = 0; p < outcomes.size(); ++p) {
    auto& session = result.sessions[point_session[p]];
    auto& outcome = outcomes[p];
    session.score = outcome.score;
    session.energy_mj = outcome.score.total_energy_mj;
    session.session_qoe =
        outcome.score.qoe *
        (session.spec.duration_ms /
         (session.spec.duration_ms + session.wait_ms));
    session.latency_ms =
        session.wait_ms + mean_executed_latency_ms(outcome.last_run);
    session.resilience = outcome.last_run.resilience;
    if (p + 1 == outcomes.size()) {
      result.last_run = std::move(outcome.last_run);
    }
  }

  // ---- Cross-session service quality ------------------------------------
  result.fleet = summarize(result.sessions, nullptr);
  result.per_class.reserve(num_classes);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    result.per_class.push_back(summarize(result.sessions, &cls));
  }
  return result;
}

}  // namespace xrbench::fleet

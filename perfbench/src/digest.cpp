#include "digest.h"

#include <algorithm>
#include <cstdio>

#include "models/task.h"
#include "util/table.h"

namespace perfbench {

using namespace xrbench;

void Digester::bytes(const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= static_cast<unsigned char>(data[i]);
    hash_ *= 0x100000001b3ull;
  }
}

void Digester::add(double v) { add(util::fmt_double_exact(v)); }

void Digester::add(std::int64_t v) { add(std::to_string(v)); }

void Digester::add(const std::string& s) {
  bytes(s.data(), s.size());
  bytes(";", 1);  // field separator: "1;23" never aliases "12;3"
}

std::int64_t PassDigest::ops() const {
  std::int64_t n = 0;
  for (auto o : group_ops) n += o;
  return n;
}

std::int64_t PassDigest::mismatched_ops(const PassDigest& reference) const {
  if (groups.size() != reference.groups.size()) return ops();
  std::int64_t n = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g] != reference.groups[g]) n += group_ops[g];
  }
  return n;
}

std::uint64_t PassDigest::combined() const {
  Digester d;
  for (auto g : groups) d.add(hex(g));
  return d.value();
}

void add_scenario_score(Digester& d, const core::ScenarioScore& s) {
  d.add(s.scenario_name);
  d.add(s.realtime);
  d.add(s.energy);
  d.add(s.accuracy);
  d.add(s.qoe);
  d.add(s.overall);
  d.add(s.total_energy_mj);
  d.add(s.frame_drop_rate);
  for (const auto& m : s.models) {
    d.add(static_cast<std::int64_t>(models::task_index(m.task)));
    d.add(static_cast<std::int64_t>(m.active));
    d.add(m.rt);
    d.add(m.energy);
    d.add(m.accuracy);
    d.add(m.per_model);
    d.add(m.qoe);
    d.add(m.combined);
    d.add(m.frames_expected);
    d.add(m.frames_executed);
    d.add(m.frames_dropped);
    d.add(m.deadline_misses);
  }
}

std::uint64_t digest_outcome(const core::BenchmarkOutcome& outcome) {
  Digester d;
  d.add(outcome.accelerator_id);
  d.add(outcome.total_pes);
  d.add(outcome.score.overall);
  d.add(outcome.score.realtime);
  d.add(outcome.score.energy);
  d.add(outcome.score.qoe);
  for (const auto& s : outcome.score.scenarios) add_scenario_score(d, s);
  return d.value();
}

namespace {

void add_resilience(Digester& d, const runtime::ResilienceStats& r) {
  d.add(static_cast<std::int64_t>(r.enabled));
  d.add(r.transient_faults);
  d.add(r.retries);
  d.add(r.retry_give_ups);
  d.add(r.outage_kills);
  d.add(r.failovers);
  d.add(r.throttle_clamps);
  d.add(r.drops_early);
  d.add(r.drops_late);
  d.add(r.resumes);
  d.add(r.checkpoint_saved_ms);
}

void add_service(Digester& d, const fleet::ServiceStats& s) {
  d.add(s.offered);
  d.add(s.admitted);
  d.add(s.rejected);
  d.add(s.drop_rate);
  d.add(s.qoe_p50);
  d.add(s.qoe_p99);
  d.add(s.mean_qoe);
  d.add(s.latency_p50_ms);
  d.add(s.latency_p99_ms);
  d.add(s.wait_p50_ms);
  d.add(s.wait_p99_ms);
  d.add(s.energy_per_session_mj);
  add_resilience(d, s.resilience);
}

}  // namespace

PassDigest digest_fleet(const fleet::FleetResult& result,
                        std::size_t sessions_per_group) {
  PassDigest out;
  const auto& sessions = result.sessions;
  for (std::size_t begin = 0; begin < sessions.size();
       begin += sessions_per_group) {
    const std::size_t end =
        std::min(sessions.size(), begin + sessions_per_group);
    Digester d;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& s = sessions[i];
      d.add(static_cast<std::int64_t>(s.spec.session_id));
      d.add(s.spec.arrival_ms);
      d.add(static_cast<std::int64_t>(s.spec.program_rank));
      d.add(static_cast<std::int64_t>(s.spec.priority_class));
      d.add(static_cast<std::int64_t>(s.admitted));
      d.add(s.start_ms);
      d.add(s.wait_ms);
      d.add(static_cast<std::int64_t>(s.instance));
      add_scenario_score(d, s.score);
      d.add(s.session_qoe);
      d.add(s.energy_mj);
      d.add(s.latency_ms);
      add_resilience(d, s.resilience);
    }
    // The fleet-wide summary rides in the last group, so a summary that
    // differs on its own still charges ops.
    if (end == sessions.size()) {
      d.add(result.offered_load);
      add_service(d, result.fleet);
      for (const auto& c : result.per_class) add_service(d, c);
    }
    out.groups.push_back(d.value());
    out.group_ops.push_back(static_cast<std::int64_t>(end - begin));
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench

#include "runtime/fault_plan.h"

#include <cmath>
#include <limits>
#include <utility>

#include "util/rng.h"
#include "util/table.h"

namespace xrbench::runtime {

namespace {

/// Salts the fault stream away from the arrival-jitter stream (which hashes
/// raw (source, frame) keys off the same run seed).
constexpr std::uint64_t kFaultStreamSalt = 0xFA17FA17FA17FA17ULL;
/// Window-stream discriminators so a unit's outage and throttle schedules
/// draw from independent streams.
constexpr std::uint64_t kOutageStream = 0x0A17ULL;
constexpr std::uint64_t kThrottleStream = 0x7417ULL;
/// Domain streams are salted away from the per-unit streams so grouping
/// units changes only THEIR schedules — every ungrouped unit keeps the
/// exact windows it had before domains existed.
constexpr std::uint64_t kDomainOutageStream = 0xD0A17ULL;
constexpr std::uint64_t kDomainThrottleStream = 0xD7417ULL;

/// Poisson-process windows over [0, horizon_ms) into `windows` (cleared
/// first): exponential inter-arrival gaps, fixed duration, never
/// overlapping (the next gap starts after the previous window closes).
/// Entirely driven by a private Rng.
void generate_windows(std::vector<FaultWindow>& windows, double rate_per_s,
                      double dur_ms, std::uint64_t key, double horizon_ms) {
  windows.clear();
  if (rate_per_s <= 0.0 || dur_ms <= 0.0) return;
  util::Rng rng(key);
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double t = 0.0;
  for (;;) {
    const double u = rng.uniform();
    t += -std::log(1.0 - u) * mean_gap_ms;
    if (t >= horizon_ms) break;
    windows.push_back({t, t + dur_ms});
    t += dur_ms;
  }
}

/// Range test of the open-ended [faults] fields, false for NaN and inf.
bool finite_non_negative(double x) {
  return 0.0 <= x && x <= std::numeric_limits<double>::max();
}

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint64_t seed,
                     std::size_t num_sub_accels, double duration_ms,
                     const std::vector<std::vector<std::size_t>>& fault_domains) {
  validate_fault_spec(spec);
  rebuild(spec, seed, num_sub_accels, duration_ms, fault_domains);
}

void FaultPlan::rebuild(
    const FaultSpec& spec, std::uint64_t seed, std::size_t num_sub_accels,
    double duration_ms,
    const std::vector<std::vector<std::size_t>>& fault_domains) {
  spec_ = spec;
  fault_seed_ = util::combine_keys(seed, kFaultStreamSalt);
  num_domains_ = fault_domains.size();
  domain_of_.assign(num_sub_accels, -1);
  for (std::size_t d = 0; d < fault_domains.size(); ++d) {
    for (std::size_t sa : fault_domains[d]) {
      if (sa >= num_sub_accels) {
        throw std::invalid_argument(
            "FaultPlan: fault domain references sub-accelerator " +
            std::to_string(sa) + " but the system has only " +
            std::to_string(num_sub_accels));
      }
      if (domain_of_[sa] != -1) {
        throw std::invalid_argument(
            "FaultPlan: sub-accelerator " + std::to_string(sa) +
            " appears in more than one fault domain");
      }
      domain_of_[sa] = static_cast<int>(d);
    }
  }
  outages_.resize(num_sub_accels);
  throttles_.resize(num_sub_accels);
  // Domain schedules are drawn once per domain, into its first member;
  // every other member copies them, which is what makes the failure
  // correlated — one thermal event offlines/clamps the whole group at the
  // same simulated instant.
  for (std::size_t d = 0; d < num_domains_; ++d) {
    const auto& members = fault_domains[d];
    if (members.empty()) continue;
    const std::size_t first = members.front();
    generate_windows(outages_[first], spec.outage_rate_per_s, spec.outage_ms,
                     util::combine_keys(
                         fault_seed_, util::combine_keys(kDomainOutageStream, d)),
                     duration_ms);
    generate_windows(throttles_[first], spec.throttle_rate_per_s,
                     spec.throttle_ms,
                     util::combine_keys(fault_seed_, util::combine_keys(
                                                         kDomainThrottleStream, d)),
                     duration_ms);
    for (std::size_t sa : members) {
      outages_[sa] = outages_[first];
      throttles_[sa] = throttles_[first];
    }
  }
  for (std::size_t sa = 0; sa < num_sub_accels; ++sa) {
    if (domain_of_[sa] >= 0) continue;
    generate_windows(
        outages_[sa], spec.outage_rate_per_s, spec.outage_ms,
        util::combine_keys(fault_seed_, util::combine_keys(kOutageStream, sa)),
        duration_ms);
    generate_windows(throttles_[sa], spec.throttle_rate_per_s,
                     spec.throttle_ms,
                     util::combine_keys(fault_seed_,
                                        util::combine_keys(kThrottleStream, sa)),
                     duration_ms);
  }
}

bool FaultPlan::transient_fault(models::TaskId task, std::int64_t frame,
                                int attempt) const {
  if (spec_.transient_rate <= 0.0) return false;
  std::uint64_t k = util::combine_keys(
      fault_seed_, static_cast<std::uint64_t>(models::task_index(task)));
  k = util::combine_keys(k, static_cast<std::uint64_t>(frame));
  k = util::combine_keys(k, static_cast<std::uint64_t>(attempt));
  return util::hash_unit_interval(k) < spec_.transient_rate;
}

void FaultInjector::arm(const FaultPlan* plan, std::size_t num_sub_accels) {
  plan_ = plan;
  active_ = plan != nullptr && plan->enabled();
  offline_.assign(num_sub_accels, 0);
  const std::size_t domains = plan != nullptr ? plan->num_domains() : 0;
  domain_offline_.assign(domains, 0);
  domain_down_count_.assign(domains, 0);
  domain_size_.assign(domains, 0);
  if (domains > 0) {
    for (std::size_t sa = 0; sa < num_sub_accels; ++sa) {
      const int d = plan_->domain_of(sa);
      if (d >= 0) ++domain_size_[d];
    }
  }
  throttle_cursor_.assign(num_sub_accels, 0);
}

void FaultInjector::set_offline(std::size_t sub_accel, bool off) {
  const char bit = off ? 1 : 0;
  if (offline_[sub_accel] == bit) return;
  offline_[sub_accel] = bit;
  if (plan_ == nullptr || domain_offline_.empty()) return;
  const int d = plan_->domain_of(sub_accel);
  if (d < 0) return;
  // All members share one window schedule, so the count reaches the domain
  // size exactly when the shared outage window opens; any member back up
  // clears the domain bit.
  domain_down_count_[d] += off ? 1 : -1;
  domain_offline_[d] = domain_down_count_[d] == domain_size_[d] ? 1 : 0;
}

std::optional<std::size_t> FaultInjector::throttle_cap(std::size_t sub_accel,
                                                       double now_ms) {
  if (!active_) return std::nullopt;
  const auto& windows = plan_->throttles(sub_accel);
  std::size_t& cur = throttle_cursor_[sub_accel];
  while (cur < windows.size() && windows[cur].end_ms <= now_ms) ++cur;
  if (cur < windows.size() && windows[cur].start_ms <= now_ms) {
    return plan_->spec().throttle_max_level;
  }
  return std::nullopt;
}

FaultSpec parse_fault_section(const util::IniDocument::Section& sec,
                              const std::string& context) {
  auto fail = [&](const std::string& key, const std::string& msg) {
    throw std::invalid_argument(context + " line " +
                                std::to_string(sec.line_of(key)) + ": " + msg);
  };
  FaultSpec spec;
  if (sec.has("transient_rate")) {
    spec.transient_rate = sec.get_double("transient_rate");
    if (!(0.0 <= spec.transient_rate && spec.transient_rate <= 1.0)) {
      fail("transient_rate", "transient_rate must be in [0, 1]");
    }
  }
  if (sec.has("outage_rate_per_s")) {
    spec.outage_rate_per_s = sec.get_double("outage_rate_per_s");
    if (!finite_non_negative(spec.outage_rate_per_s)) {
      fail("outage_rate_per_s", "outage_rate_per_s must be finite and >= 0");
    }
  }
  if (sec.has("outage_ms")) {
    spec.outage_ms = sec.get_double("outage_ms");
    if (!finite_non_negative(spec.outage_ms)) {
      fail("outage_ms", "outage_ms must be finite and >= 0");
    }
  }
  if (spec.outage_rate_per_s > 0.0 && spec.outage_ms <= 0.0) {
    fail(sec.has("outage_ms") ? "outage_ms" : "outage_rate_per_s",
         "outage_ms must be > 0 when outage_rate_per_s > 0");
  }
  if (sec.has("throttle_rate_per_s")) {
    spec.throttle_rate_per_s = sec.get_double("throttle_rate_per_s");
    if (!finite_non_negative(spec.throttle_rate_per_s)) {
      fail("throttle_rate_per_s",
           "throttle_rate_per_s must be finite and >= 0");
    }
  }
  if (sec.has("throttle_ms")) {
    spec.throttle_ms = sec.get_double("throttle_ms");
    if (!finite_non_negative(spec.throttle_ms)) {
      fail("throttle_ms", "throttle_ms must be finite and >= 0");
    }
  }
  if (spec.throttle_rate_per_s > 0.0 && spec.throttle_ms <= 0.0) {
    fail(sec.has("throttle_ms") ? "throttle_ms" : "throttle_rate_per_s",
         "throttle_ms must be > 0 when throttle_rate_per_s > 0");
  }
  if (sec.has("throttle_max_level")) {
    const std::int64_t level = sec.get_int("throttle_max_level");
    if (level < 0) fail("throttle_max_level", "throttle_max_level must be >= 0");
    spec.throttle_max_level = static_cast<std::size_t>(level);
  }
  if (sec.has("max_retries")) {
    const std::int64_t retries = sec.get_int("max_retries");
    if (retries < 0) fail("max_retries", "max_retries must be >= 0");
    spec.max_retries = static_cast<int>(retries);
  }
  if (sec.has("retry_backoff_ms")) {
    spec.retry_backoff_ms = sec.get_double("retry_backoff_ms");
    if (!finite_non_negative(spec.retry_backoff_ms)) {
      fail("retry_backoff_ms", "retry_backoff_ms must be finite and >= 0");
    }
  }
  if (sec.has("checkpoint")) {
    spec.checkpoint = sec.get_bool("checkpoint");
  }
  if (sec.has("checkpoint_overhead_ms")) {
    spec.checkpoint_overhead_ms = sec.get_double("checkpoint_overhead_ms");
    if (!finite_non_negative(spec.checkpoint_overhead_ms)) {
      fail("checkpoint_overhead_ms",
           "checkpoint_overhead_ms must be finite and >= 0");
    }
  }
  return spec;
}

void write_fault_section(util::IniDocument& doc, const FaultSpec& spec) {
  if (spec == FaultSpec{}) return;
  auto& sec = doc.add_section("faults");
  const FaultSpec d;
  if (spec.transient_rate != d.transient_rate) {
    sec.set("transient_rate", util::fmt_double_exact(spec.transient_rate));
  }
  if (spec.outage_rate_per_s != d.outage_rate_per_s) {
    sec.set("outage_rate_per_s", util::fmt_double_exact(spec.outage_rate_per_s));
  }
  if (spec.outage_ms != d.outage_ms) sec.set("outage_ms", util::fmt_double_exact(spec.outage_ms));
  if (spec.throttle_rate_per_s != d.throttle_rate_per_s) {
    sec.set("throttle_rate_per_s", util::fmt_double_exact(spec.throttle_rate_per_s));
  }
  if (spec.throttle_ms != d.throttle_ms) {
    sec.set("throttle_ms", util::fmt_double_exact(spec.throttle_ms));
  }
  if (spec.throttle_max_level != d.throttle_max_level) {
    sec.set_int("throttle_max_level",
                static_cast<std::int64_t>(spec.throttle_max_level));
  }
  if (spec.max_retries != d.max_retries) {
    sec.set_int("max_retries", spec.max_retries);
  }
  if (spec.retry_backoff_ms != d.retry_backoff_ms) {
    sec.set("retry_backoff_ms", util::fmt_double_exact(spec.retry_backoff_ms));
  }
  if (spec.checkpoint != d.checkpoint) {
    sec.set("checkpoint", spec.checkpoint ? "true" : "false");
  }
  if (spec.checkpoint_overhead_ms != d.checkpoint_overhead_ms) {
    sec.set("checkpoint_overhead_ms",
            util::fmt_double_exact(spec.checkpoint_overhead_ms));
  }
}

}  // namespace xrbench::runtime

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/harness.h"
#include "fleet/fleet_result.h"

namespace perfbench {

/// FNV-1a 64 over the exact-decimal text (util::fmt_double_exact) of every
/// value fed to it: two outputs digest equal iff every value is
/// bit-identical, and a digest printed in hex is stable across platforms
/// that share IEEE doubles.
class Digester {
 public:
  void add(double v);
  void add(std::int64_t v);
  void add(const std::string& s);
  std::uint64_t value() const { return hash_; }

 private:
  void bytes(const char* data, std::size_t n);
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Output digest of one pass, split into groups so that a mismatch is
/// charged only to the ops the differing group covers.
struct PassDigest {
  std::vector<std::uint64_t> groups;   ///< One digest per group.
  std::vector<std::int64_t> group_ops; ///< Ops covered by each group.

  std::int64_t ops() const;
  /// Ops whose group differs from `reference` (every op when the shapes
  /// differ).
  std::int64_t mismatched_ops(const PassDigest& reference) const;
  /// One digest over all groups, for the manifest.
  std::uint64_t combined() const;
};

/// Digest of one design point's suite outcome: the benchmark-level score
/// plus every scenario's and model's score fields and frame counts.
std::uint64_t digest_outcome(const xrbench::core::BenchmarkOutcome& outcome);

/// Digest of a fleet result: one group per `sessions_per_group` offered
/// sessions (admission fate, queueing, score, resilience counters); the
/// last group also covers the fleet-wide and per-class service statistics.
PassDigest digest_fleet(const xrbench::fleet::FleetResult& result,
                        std::size_t sessions_per_group);

/// Digest of one scenario score (used by the traced replays, which score
/// trials themselves).
void add_scenario_score(Digester& d, const xrbench::core::ScenarioScore& s);

std::string hex(std::uint64_t v);

}  // namespace perfbench

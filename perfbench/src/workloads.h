#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "digest.h"
#include "trace.h"

namespace perfbench {

/// Named sample lists of one run; run.py reduces each list to a metric.
using Samples = std::map<std::string, std::vector<double>>;

/// One benchmark workload: fixed composition, inputs derived from a seed,
/// driven through the program's public API. Every workload owns a
/// 1-worker and a 2-worker engine; a pass runs the whole input set on one
/// of them and returns the digest of its outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Parses configs and generates the inputs for `seed`.
  virtual void prepare(std::uint64_t seed) = 0;
  /// Starts the 1- and 2-worker engines (their thread pools).
  virtual void start_engines() = 0;
  /// One full pass on the engine with `workers` pool workers (1 or 2). Its
  /// outputs are kept for take_digest(), so checking them stays outside the
  /// caller's timed region.
  virtual void run_pass(int workers) = 0;
  /// Digest of the last pass's outputs; releases them.
  virtual PassDigest take_digest() = 0;
  /// Ops one pass performs (see the workload's definition of an op).
  virtual std::int64_t ops_per_pass() const = 0;
  /// Distinct accelerator designs a pass builds cost tables for.
  virtual std::size_t designs() const = 0;

  /// Layer probes outside the timed passes: CostTable builds on a fresh and
  /// on a warm cost model, and the 1-worker engine's memo counters.
  virtual void probe_layers(Samples& out) = 0;
  /// Replays one pass through each layer's public calls on the calling
  /// thread, recording spans into `tracer` and per-layer samples into
  /// `out`. Returns the digest of the replay's own outputs.
  virtual PassDigest replay(Tracer& tracer, Samples& out) = 0;
};

/// The workloads by name: suite_trials, design_space, fleet_faulted.
const std::vector<std::string>& workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench

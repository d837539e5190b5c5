// xrbench_perf: one benchmark run of one workload.
//
//   xrbench_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--spans <file>]
//
// Set-up is repeated kSetups times, each from scratch (inputs, engines, a
// cold pass on the 1-worker engine); the first repetition is timed from
// process start. Then the 2-worker engine gets one warm-up pass, and timed
// passes alternate between the 1- and 2-worker engines until <s> seconds
// have passed. With --trace 1 each round also replays the pass through the
// layers' public calls with spans on (never used for the end-to-end
// numbers). Every pass's output digest is checked against the run's first
// cold pass; a differing or throwing pass counts its ops as failed.
//
// Prints one JSON object of raw samples on stdout; perfbench/run.py turns
// it into metrics. Refuses to run when any XRBENCH_* variable is set: those
// select program variants (pinning, the SIMD kernel, worker counts) and
// would silently measure a different program.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "placement.h"
#include "util/affinity.h"
#include "workloads.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::PassDigest;
using perfbench::Samples;

constexpr int kSetups = 7;
constexpr int kMinRounds = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double cpu_s = 0.0;
  double minor_faults = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  return u;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

bool parse_uint(const char* s, std::uint64_t& out) {
  if (*s == '\0' || std::strspn(s, "0123456789") != std::strlen(s) ||
      std::strlen(s) > 19) {
    return false;
  }
  out = std::strtoull(s, nullptr, 10);
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed" && parse_uint(val, n)) {
      a.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && parse_uint(val, n) && n >= 1 &&
               n <= 3600) {
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && (std::strcmp(val, "0") == 0 ||
                                    std::strcmp(val, "1") == 0)) {
      a.trace = val[0] == '1';
      have_trace = true;
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void emit(const Args& args, const perfbench::Workload& w,
          const PassDigest& reference, std::int64_t attempted,
          std::int64_t failed, const Samples& samples) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::ostream& o = std::cout;
  o << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"ops_per_pass\": " << w.ops_per_pass()
    << ", \"designs\": " << w.designs() << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed
    << ", \"peak_rss_mb\": " << json_number(static_cast<double>(ru.ru_maxrss) / 1024.0)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << __VERSION__ << "\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"digest\": \"" << perfbench::hex(reference.combined()) << "\""
    << ", \"digest_groups\": [";
  for (std::size_t g = 0; g < reference.groups.size(); ++g) {
    o << (g ? ", " : "") << "[\"" << perfbench::hex(reference.groups[g])
      << "\", " << reference.group_ops[g] << "]";
  }
  o << "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples) {
    o << (first ? "" : ", ") << "\"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      o << (i ? ", " : "") << json_number(values[i]);
    }
    o << "]";
    first = false;
  }
  o << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: xrbench_perf --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n";
    return 2;
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XRBENCH_", 8) == 0) {
      std::cerr << "xrbench_perf: refusing to run with " << *e
                << " set (it selects a program variant)\n";
      return 2;
    }
  }
  auto workload = perfbench::make_workload(args.workload);
  if (!workload) {
    std::cerr << "xrbench_perf: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  Samples samples;
  PassDigest reference;
  std::int64_t attempted = 0, failed = 0;
  auto check = [&](const PassDigest& d) {
    attempted += workload->ops_per_pass();
    failed += d.mismatched_ops(reference);
  };
  // Runs one pass and returns its wall time and resource use; the digest
  // check follows, outside the measured region.
  struct PassUse {
    double wall_s = 0.0;
    Usage use;
  };
  auto checked_pass = [&](int workers) {
    PassUse p;
    const Usage u0 = usage_now();
    const auto t0 = Clock::now();
    try {
      workload->run_pass(workers);
      p.wall_s = seconds_since(t0);
      const Usage u1 = usage_now();
      p.use.cpu_s = u1.cpu_s - u0.cpu_s;
      p.use.minor_faults = u1.minor_faults - u0.minor_faults;
      check(workload->take_digest());
    } catch (const std::exception& e) {
      std::cerr << "xrbench_perf: pass failed: " << e.what() << "\n";
      p.wall_s = seconds_since(t0);
      attempted += workload->ops_per_pass();
      failed += workload->ops_per_pass();
    }
    return p;
  };

  // The engines' workers in start order: the 1-worker engine's first.
  std::vector<pid_t> pool_threads;
  // Round r pins the calling thread to CPU slot r, the 1-worker engine's
  // worker to slot r + 1 and the 2-worker engine's workers to the two slots
  // after it, mod the allowed CPUs (see placement.h for why).
  const std::vector<int> cpus = xrbench::util::affinity::allowed_cpus();
  auto place = [&](std::size_t r) {
    if (cpus.empty()) return 0;
    auto cpu = [&](std::size_t slot) { return cpus[slot % cpus.size()]; };
    int placed = perfbench::place_thread(0, cpu(r)) ? 1 : 0;
    for (std::size_t i = 0; i < pool_threads.size(); ++i) {
      placed += perfbench::place_thread(pool_threads[i], cpu(r + 1 + i)) ? 1 : 0;
    }
    return placed;
  };

  try {
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) {
        workload.reset();  // the old engines and memos go before timing
        workload = perfbench::make_workload(args.workload);
      }
      const auto t0 = k == 0 ? process_start : Clock::now();
      workload->prepare(args.seed);
      const auto before = perfbench::thread_ids();
      const auto pool_t0 = Clock::now();
      workload->start_engines();
      samples["util.pool_start_ms"].push_back(seconds_since(pool_t0) * 1e3);
      pool_threads.clear();
      for (pid_t id : perfbench::thread_ids()) {
        if (!std::binary_search(before.begin(), before.end(), id)) {
          pool_threads.push_back(id);
        }
      }
      samples["util.threads_placed"].push_back(
          place(static_cast<std::size_t>(k)));
      workload->run_pass(1);
      samples["setup_s"].push_back(seconds_since(t0));
      const PassDigest cold = workload->take_digest();
      if (k == 0) reference = cold;
      check(cold);
    }
  } catch (const std::exception& e) {
    std::cerr << "xrbench_perf: set-up failed: " << e.what() << "\n";
    return 1;
  }
  checked_pass(2);  // warm-up of the 2-worker engine, untimed

  perfbench::Tracer tracer;
  if (args.trace) workload->probe_layers(samples);

  const auto start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(start) < args.seconds; ++round) {
    place(static_cast<std::size_t>(round));
    for (int i = 0; i < 2; ++i) {
      const int workers = (round + i) % 2 == 0 ? 1 : 2;
      const std::string w = "_w" + std::to_string(workers);
      const PassUse p = checked_pass(workers);
      samples["pass_s" + w].push_back(p.wall_s);
      samples["cpu_per_wall" + w].push_back(p.use.cpu_s / p.wall_s);
      samples["minor_faults_per_op" + w].push_back(
          p.use.minor_faults / static_cast<double>(workload->ops_per_pass()));
    }
    if (args.trace) {
      tracer.clear();
      const PassDigest replayed = workload->replay(tracer, samples);
      samples["trace.replay_matches"].push_back(
          replayed.mismatched_ops(reference) == 0 ? 1.0 : 0.0);
    }
  }

  if (args.trace && !args.spans.empty()) {
    std::ofstream out(args.spans);
    tracer.write(out);
    if (!out) {
      std::cerr << "xrbench_perf: cannot write " << args.spans << "\n";
      return 1;
    }
  }
  emit(args, *workload, reference, attempted, failed, samples);
  return 0;
}

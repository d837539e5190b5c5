#!/usr/bin/env python3
"""One perfbench run: build the harness from source, run one workload, check
its outputs and print the metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. Every run also writes a
result file with its manifest under .bench_build/results/ (see README.md).
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = BUILD_DIR / "results"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("suite_trials", "design_space", "fleet_faulted")
WORKERS = (1, 2)
# A run of the binary ends within seconds + set-up; anything far beyond
# that is a hang.
RUN_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import stats  # noqa: E402

# (name, unit) of every per-layer metric, in BENCHMARK.json order. A metric
# that does not apply to a workload reads 0.
PER_LAYER = [
    ("costmodel.cold_build_ms_per_design", "ms"),
    ("costmodel.cold_build_share_of_setup", "ratio"),
    ("costmodel.model_memo_hit_ratio", "ratio"),
    ("costmodel.layer_memo_lookups", "count"),
    ("runtime.warm_build_ms_per_design", "ms"),
    ("runtime.trial_us_p50", "us"),
    ("runtime.trial_us_p99", "us"),
    ("runtime.requests_per_trial", "count"),
    ("runtime.host_ns_per_request", "ns"),
    ("runtime.allocs_per_trial", "count"),
    ("runtime.program_trial_us_p50", "us"),
    ("runtime.program_trial_us_p99", "us"),
    ("runtime.retries_per_session", "count"),
    ("runtime.outage_kills_per_session", "count"),
    ("runtime.resumes_per_session", "count"),
    ("core.score_us_per_trial", "us"),
    ("core.parallel_efficiency_w2", "ratio"),
    ("core.sweep_unattributed_ratio", "ratio"),
    ("util.cpu_per_wall_w1", "ratio"),
    ("util.cpu_per_wall_w2", "ratio"),
    ("util.minor_faults_per_op", "count"),
    ("util.pool_start_ms", "ms"),
    ("workload.parse_ms", "ms"),
    ("fleet.generate_ms", "ms"),
    ("fleet.stage1_ms", "ms"),
    ("fleet.admitted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replay_match_ratio", "ratio"),
]
LAYERS = ("costmodel", "runtime", "core", "fleet", "sweep")
PER_LAYER += [("self_share." + layer, "ratio") for layer in LAYERS]


def clean_env(environ):
    """The child environment without XRBENCH_* variables, and what was removed.

    Those variables select program variants (worker pinning, the SIMD kernel,
    the default worker count); the benchmark sets its own worker counts and
    must measure the default program.
    """
    env = {k: v for k, v in environ.items() if not k.startswith("XRBENCH_")}
    neutralized = {k: v for k, v in environ.items() if k.startswith("XRBENCH_")}
    return env, neutralized


def build(env):
    """Configures (once) and builds the harness; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "xrbench_perf", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd) + "\n"
                               + proc.stdout[-4000:])
    return BUILD_DIR / "xrbench_perf"


def _med(samples, key):
    values = samples.get(key)
    return stats.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(raw):
    s = raw["samples"]
    ops = raw["ops_per_pass"]
    return {
        "setup_s": (stats.median(s["setup_s"]), "s"),
        "ops_per_s_w1": (ops / stats.median(s["pass_s_w1"]), "1/s"),
        "ops_per_s_w2": (ops / stats.median(s["pass_s_w2"]), "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(raw):
    s = raw["samples"]
    w1_ms = _med(s, "pass_s_w1") * 1e3
    w2_ms = _med(s, "pass_s_w2") * 1e3
    pass_ms = _med(s, "trace.pass_ms")
    cold = _med(s, "costmodel.cold_build_ms_per_design")
    faults = s.get("minor_faults_per_op_w1", []) + s.get("minor_faults_per_op_w2", [])

    def pct(key, p):
        return stats.percentile(s[key], p) if s.get(key) else 0.0

    def share(layer):
        return _med(s, "self_ms." + layer) / pass_ms if pass_ms else 0.0

    values = {
        "costmodel.cold_build_share_of_setup":
            cold * raw["designs"] / (_med(s, "setup_s") * 1e3),
        "runtime.trial_us_p50": pct("runtime.trial_us", 50),
        "runtime.trial_us_p99": pct("runtime.trial_us", 99),
        "runtime.program_trial_us_p50": pct("runtime.program_trial_us", 50),
        "runtime.program_trial_us_p99": pct("runtime.program_trial_us", 99),
        "core.parallel_efficiency_w2": w1_ms / (2.0 * w2_ms),
        "core.sweep_unattributed_ratio":
            (w1_ms - sum(_med(s, "self_ms." + l) for l in LAYERS if l != "sweep"))
            / w1_ms,
        "util.cpu_per_wall_w1": _med(s, "cpu_per_wall_w1"),
        "util.cpu_per_wall_w2": _med(s, "cpu_per_wall_w2"),
        "util.minor_faults_per_op": _mean(faults),
        "trace.overhead_ratio": pass_ms / w1_ms,
        "trace.replay_match_ratio": _mean(s.get("trace.replay_matches", [])),
    }
    for layer in LAYERS:
        values["self_share." + layer] = share(layer)
    return {name: (values[name] if name in values else _med(s, name), unit)
            for name, unit in PER_LAYER}


def dominant_layer(metrics):
    shares = {name.split(".", 1)[1]: v for name, (v, _) in metrics.items()
              if name.startswith("self_share.")}
    return max(shares, key=shares.get) if shares else None


def reference_failures(raw, reference):
    """Ops of this run whose output differs from the stored reference.

    The reference holds the digest groups of the reference seed; every pass
    of a run already matched the run's own first pass, so a differing group
    fails its ops in every pass.
    """
    if raw["seed"] != reference.get("seed"):
        return 0
    expected = reference.get("digests", {}).get(raw["workload"])
    if expected is None:
        return 0
    got = raw["digest_groups"]
    passes = raw["attempted"] // raw["ops_per_pass"]
    if len(got) != len(expected):
        return raw["attempted"]
    bad = sum(ops for (g, ops), (e, _) in zip(got, expected) if g != e)
    return bad * passes


def write_reference(reference):
    """One line per workload, so a changed workload shows as one diff line."""
    lines = [f'{json.dumps(w)}: {json.dumps(groups)}'
             for w, groups in sorted(reference["digests"].items())]
    REFERENCE.write_text('{"seed": %d, "digests": {\n%s\n}}\n'
                         % (reference["seed"], ",\n".join(lines)))


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest(args, raw, neutralized, started_ns):
    s = raw["samples"]
    return {
        "started_unix_ns": started_ns,
        "git_sha": git_sha(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "hardware_concurrency": raw["hardware_concurrency"],
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": list(WORKERS),
        "neutralized_env": neutralized,
        "digest": raw["digest"],
        "threads_placed": s["util.threads_placed"],
        "cpu_per_wall_w1": s["cpu_per_wall_w1"],
        "cpu_per_wall_w2": s["cpu_per_wall_w2"],
        "passes_w1": len(s["pass_s_w1"]),
        "passes_w2": len(s["pass_s_w2"]),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's output digests as the reference "
                        "(only at the reference seed)")
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return args


def main(argv):
    args = parse_args(argv)
    env, neutralized = clean_env(os.environ)
    for key in neutralized:
        print(f"perfbench: ignoring {key} (the benchmark sets its own worker "
              "counts and measures the default program)", file=sys.stderr)
    try:
        binary = build(env)
    except (RuntimeError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    started_ns = time.time_ns()
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}_{started_ns}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS_DIR / (stem + ".spans.tsv"))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S + args.seconds)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: xrbench_perf exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.update_reference:
        if args.seed != reference.get("seed"):
            print("perfbench: --update-reference needs the reference seed "
                  f"{reference.get('seed')}", file=sys.stderr)
            return 1
        reference.setdefault("digests", {})[args.workload] = raw["digest_groups"]
        write_reference(reference)

    failed = raw["failed"] + reference_failures(raw, reference)
    metrics = per_layer_metrics(raw) if args.trace else end_to_end_metrics(raw)
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    record = {"manifest": manifest(args, raw, neutralized, started_ns), "result": result}
    if args.trace:
        record["dominant_layer"] = dominant_layer(metrics)
        print(f"perfbench: dominant layer {record['dominant_layer']} "
              f"(self-time shares: " + ", ".join(
                  f"{n.split('.', 1)[1]} {v:.3f}" for n, (v, _) in metrics.items()
                  if n.startswith("self_share.")) + ")", file=sys.stderr)
    (RESULTS_DIR / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two sets of perfbench result files (parent vs. change).

    python3 perfbench/compare.py --base <dir|file>... --change <dir|file>...

A directory stands for every result file (*.json) in it, as run.py writes
them under .bench_build/results/. For each workload and metric it prints the
median and quartiles of both sides, the pairs the change won (the i-th run
of each side, in the order they started) and, for end-to-end metrics, a
verdict against the bound in BENCHMARK.json: improved, unchanged, unresolved
or regressed (rules in stats.verdict). Exits 1 when any end-to-end metric regressed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def result_files(paths):
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    return files


def load_runs(paths):
    """{(workload, trace): {metric: [values in run order]}}"""
    records = []
    for f in result_files(paths):
        record = json.loads(f.read_text())
        if "manifest" in record and "result" in record:
            records.append(record)
    records.sort(key=lambda r: r["manifest"]["started_unix_ns"])
    runs = {}
    for r in records:
        key = (r["manifest"]["workload"], r["manifest"]["trace"])
        for name, m in r["result"]["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return runs


def metric_specs(benchmark):
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs.update({m["name"]: m for m in benchmark["per_layer"]})
    return specs


def compare(base_runs, change_runs, specs):
    """Rows of (workload, metric, unit, base, change, won, pairs, verdict)."""
    rows = []
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, _ = key
        for name in base_runs[key]:
            base = base_runs[key][name]
            change = change_runs[key].get(name)
            spec = specs.get(name)
            if not change or spec is None:
                continue
            pairs = min(len(base), len(change))
            won = stats.pairs_won(base, change, spec["better"])
            v = (stats.verdict(base, change, spec["better"], spec["bound"])
                 if "bound" in spec else "-")
            rows.append((workload, name, spec["unit"], base, change, won, pairs, v))
    return rows


def fmt_side(values):
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = p.parse_args(argv)
    missing = [x for x in args.base + args.change if not Path(x).exists()]
    if missing:
        print("no such result file or directory: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    specs = metric_specs(json.loads(Path(args.benchmark).read_text()))
    rows = compare(load_runs(args.base), load_runs(args.change), specs)
    if not rows:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    print("workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]"
          "\tchange %\tpairs won\tverdict")
    for workload, name, unit, base, change, won, pairs, v in rows:
        delta = (stats.median(change) / stats.median(base) - 1) * 100
        print(f"{workload}\t{name}\t{unit}\t{fmt_side(base)}\t{fmt_side(change)}"
              f"\t{delta:+.2f}\t{won}/{pairs}\t{v}")
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/CATALOGUE.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
      Build the benchmark, run one workload, print its report and, as the
      last line, one JSON result holding the end-to-end metrics of
      BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
      --out appends the result, tagged with workload, seed and trace, to
      FILE as one JSON line.
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]
      Run every workload untraced and traced, then print one summary.
  python3 perfbench/run.py compare PARENT CHANGE
      Compare two --out files, one row per workload and end-to-end metric.

Exits non-zero if the build fails, a workload's outputs are wrong, or the
checkout is not a full repository.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["paper-figs", "rank-scale", "fault-sweep"]
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "results"):
        if not os.path.exists(need):
            die(f"run from the repository root: {need} is missing")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if r.returncode != 0:
        die("build failed", 1)


def run_one(workload, seed, seconds, trace, out):
    """Run one workload; print its report and build its result line."""
    proc = subprocess.Popen(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die(f"{workload} printed no result (exit {proc.returncode})", 1)
    wanted = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not trace:
            die(f"{workload} did not measure {m['name']}", 1)
        # A per-layer row a workload's path does not reach reads 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if out:
        with open(out, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "result": result}) + "\n")
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] != 0:
                continue
            for name, m in rec["result"]["metrics"].items():
                rows.setdefault((rec["workload"], name), []).append(m["value"])
    return rows


def verdict(parent, change, better, bound):
    """Improved only if the change wins at least nine tenths of the pairs
    and the medians differ by more than the parent's own quartile spread;
    unresolved when either side's spread exceeds the bound, unless every
    change run beats every parent run; regressed when the change's median
    is worse than the parent's by more than the bound."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if pairs and wins >= 0.9 * pairs and abs(cm - pm) > (p3 - p1):
        return "improved"
    if worse > bound:
        return "regressed"
    return "no worse"


def compare(parent_path, change_path):
    s = spec()
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<12} {'metric':<22} {'parent median [q1..q3]':<36} "
          f"{'change median [q1..q3]':<36} {'change/parent (base: parent median)':<40} verdict")
    regressed = False
    for wl in WORKLOADS:
        for m in s["end_to_end"]:
            key = (wl, m["name"])
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            v = verdict(p, c, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{wl:<12} {m['name']:<22} {pm:>11.5g} [{p1:.5g}..{p3:.5g}] n={len(p):<3} "
                  f"{cm:>11.5g} [{c1:.5g}..{c3:.5g}] n={len(c):<3} "
                  f"{cm / pm:>8.4f} (base {pm:.5g} {m['unit']}, bound {m['bound']})  {v}")
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare PARENT CHANGE")
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"] if os.path.exists("BENCHMARK.json") else 10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    build()
    if a.workload != "all":
        code, result = run_one(a.workload, a.seed, a.seconds, a.trace, a.out)
        print(json.dumps(result))
        sys.exit(code)
    summary, worst = [], 0
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(wl, a.seed, a.seconds, trace, a.out)
            worst = max(worst, code)
            summary.append((wl, trace, result))
    print("\nsummary (end-to-end metrics from untraced runs; per-layer from traced runs)")
    for wl, trace, result in summary:
        err = result["failed"] / result["attempted"]
        print(f"\n{wl} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} error_rate={err:.3g}")
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()

"""Repeated benchmark runs: record one tree, or compare a parent with a change.

    python3 perfbench/compare.py record --out perfbench/results/BENCH_<label>.json
    python3 perfbench/compare.py compare --parent ../parent --change . [--out FILE]

Both run this copy of ``run.py`` for ``run_seconds`` of ``BENCHMARK.json``
with the working directory set to each tree, so the two sides use
identical benchmark code and settings and differ only in the sphskel
sources under ``<tree>/src``.

``record`` measures the tree in the working directory: every workload
once for each of the seeds 1 to ``RUNS`` and once traced.  It writes each run with
its conditions (git commit, Python, nproc, CPU model, seed, items) and,
per end-to-end metric and per raw figure, the median, quartiles and
spread (interquartile range over median).

``compare`` runs ``PAIRS`` alternating pairs per workload (the parent
first in even pairs, the change first in odd ones; pair i, counted from
0, uses seed ``i + 1`` on both sides) and gives each workload its own rows:

* ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in its favour, by more than the
  parent's interquartile range; never when the change fails more items.
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``.
* ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run.
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)

from run import load_spec  # noqa: E402

RUNS = 10
PAIRS = 10


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    tagged = {tag: json.loads(x[len(tag) + 1:]) for x in lines
              for tag in ("conditions", "raw") if x.startswith(tag + " ")}
    return {
        "seed": seed,
        "conditions": tagged.get("conditions", {}),
        "raw": tagged.get("raw", {}),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def machine(tree: str) -> dict:
    """Git commit of the tree and the CPU model; the rest is in each run."""
    try:
        commit = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "cpu_model": cpu, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf}


def record(args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"machine": machine("."), "run_seconds": seconds, "workloads": {}}
    failed = 0
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(".", w, seed, seconds) for seed in range(1, RUNS + 1)]
        traced = run_once(".", w, 1, seconds, trace=1)
        failed += sum(r["failed"] for r in runs) + traced["failed"]
        stats = {}
        for name, bound in bounds.items():
            s = summary([r["metrics"][name] for r in runs])
            s["bound"] = bound
            stats[name] = s
            print(f"{w:<10} {name:<16} median {s['median']:<12.6g} "
                  f"IQR/median {s.get('spread', math.nan):.4f} (bound {bound})")
        raw = {name: summary([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
        out["workloads"][w] = {"summary": stats, "raw_summary": raw, "runs": runs,
                               "traced": traced}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ps, cs = summary(parent), summary(change)
    gain = sign * (cs["median"] - ps["median"])
    if (not more_failures and wins >= math.ceil(0.9 * len(parent))
            and gain > ps["q3"] - ps["q1"]):
        return "gain", wins
    if ps["spread"] > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better in every run" if all_better else "unresolved"), wins
    if -gain > bound * abs(ps["median"]):
        return "regression", wins
    return "within bound", wins


def compare(args, spec) -> int:
    seconds = spec["run_seconds"]
    rows, report = [], {"parent": machine(args.parent), "change": machine(args.change),
                        "run_seconds": seconds, "workloads": {}}
    bad = False
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                sides[side].append(run_once(tree, w, i + 1, seconds))
        more_failures = (sum(r["failed"] for r in sides["change"])
                         > sum(r["failed"] for r in sides["parent"]))
        report["workloads"][w] = {"runs": sides, "metrics": {}}
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]] for r in sides["parent"]]
            c = [r["metrics"][m["name"]] for r in sides["change"]]
            v, wins = verdict(p, c, m["better"], m["bound"], more_failures)
            bad |= v == "regression"
            ps, cs = summary(p), summary(c)
            report["workloads"][w]["metrics"][m["name"]] = {
                "parent": ps, "change": cs, "wins": wins, "verdict": v}
            rows.append(f"{w:<10} {m['name']:<16} parent {ps['median']:<10.5g} "
                        f"[{ps['q1']:.5g}, {ps['q3']:.5g}]  change {cs['median']:<10.5g} "
                        f"[{cs['q1']:.5g}, {cs['q3']:.5g}]  wins {wins}/{PAIRS}  {v}")
        if more_failures:
            rows.append(f"{w:<10} the change fails more items than the parent")
    print("\n".join(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("record", "compare"):
        s = sub.add_parser(name)
        s.add_argument("--workload", action="append",
                       choices=[w["name"] for w in spec["workloads"]])
        s.add_argument("--out", required=name == "record")
        if name == "compare":
            s.add_argument("--parent", required=True)
            s.add_argument("--change", required=True)
    args = p.parse_args(argv)
    return record(args, spec) if args.cmd == "record" else compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())

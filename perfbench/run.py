"""Benchmark of sphskel: end-to-end figures per workload, per-layer figures traced.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py                          # every workload, seed 1
    python3 perfbench/run.py --workload verify --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload supports --size full --trace 1

Workloads (see ``workloads.py``): ``verify`` evaluates and serializes every
report of ``sphskel verify --case all``; ``supports`` enumerates minimal
complete supports on a seeded sample of catalog instances; ``lp_random``
solves seeded dense LPs with the exact simplex alone.

Each workload runs in fresh processes.  ``setup_s`` is the median over
``SETUP_SAMPLES`` processes of the time from process start until the
inputs are built (importing sphskel included), each scaled to the
reference speed measured in that process (see ``worker.py``).  The last of
those processes then runs the items, one whole pass and then on until
``--seconds`` have gone by, and checks every output.  Each item's time is
its mean over its runs: ``items_per_s`` is the item count over the sum of
those times, ``item_ms.p50`` and ``item_ms.p90`` are percentiles over the
items.  The ``ref.`` figures are the same with each item's time scaled to
the reference speed; they are the ones in the JSON result, because the
raw ones follow the host's speed.  The raw figures, set-up included, are
printed beside them.  With ``--trace 1`` a single process wraps sphskel's
public functions and reports per-layer figures instead (see ``tracer.py``),
and checks that the wall time its layers' self times leave unexplained is
within the tracing overhead it measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metric names
and units as ``BENCHMARK.json`` lists them.  The exit code is 1 when any
item failed its check, 2 when the program or its inputs are missing and 3
when a traced run fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_SAMPLES = 9


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _worker(args: list[str], timeout: float) -> tuple[float, float, dict | None]:
    """Start a worker; return its set-up time raw and at the reference speed,
    and its result."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran longer than {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines[:1] \
            or not lines[0].startswith("setup "):
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    setup = json.loads(lines[0][len("setup "):])
    setup_s -= setup["pre_s"]
    return (setup_s, setup_s * setup["ref_scale"],
            json.loads(lines[-1]) if len(lines) > 1 else None)


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str | None):
    """Measure one workload; return (metrics, raw figures, worker result).

    The metrics are those of ``BENCHMARK.json`` (without units); the raw
    figures are the set-up and item figures at the host's speed.
    """
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if size is not None:
        base += ["--size", size]
    timeout = 120 + 4 * seconds
    if trace:
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        spans = os.path.join(BENCH_DIR, "out", f"spans-{name}-seed{seed}.jsonl")
        result = _worker(base + ["--trace", "1", "--spans", spans], timeout)[2]
        return result["layers"], {}, result
    setups = [_worker(base + ["--setup-only"], timeout)[:2] for _ in range(SETUP_SAMPLES - 1)]
    *last, result = _worker(base, timeout)
    setups.append(tuple(last))
    metrics = {"setup_s": statistics.median(ref for _, ref in setups),
               "peak_rss_mb": result["peak_rss_mb"]}
    raw = {"setup_s": statistics.median(raw for raw, _ in setups)}
    for out, prefix, key in ((raw, "", "item_s"), (metrics, "ref.", "item_ref_s")):
        item_ms = [t * 1000.0 for t in result[key] if t is not None]
        out.update({
            prefix + "items_per_s": len(item_ms) / sum(item_ms) * 1000.0 if item_ms else 0.0,
            prefix + "item_ms.p50": statistics.median(item_ms) if item_ms else 0.0,
            prefix + "item_ms.p90":
                statistics.quantiles(item_ms, n=10)[8] if len(item_ms) > 1 else 0.0,
        })
    return metrics, raw, result


def conditions(name: str, seed: int, result: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "items": result["items"],
        "passes": result["passes"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default=None,
                   help="items per pass, or 'full' for every input unsampled")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sphskel", "__init__.py")):
        print("run.py: no src/sphskel here; run it from the root of a sphskel checkout",
              file=sys.stderr)
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    selected = names if args.workload == "all" else [args.workload]
    out_metrics: dict[str, dict] = {}
    attempted = failed = 0
    unaccounted = False
    for name in selected:
        try:
            metrics, raw, result = run_workload(name, args.seed, args.seconds, args.trace,
                                                args.size)
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failed += result["failed"]
        for message in result["messages"]:
            print(f"{name}: FAILED: {message}", file=sys.stderr)
        print("conditions " + json.dumps(conditions(name, args.seed, result)))
        prefix = "" if len(selected) == 1 else f"{name}."
        for metric, unit in units.items():
            value = metrics[metric]
            print(f"{name:<10} {metric:<52} {value:>14.6g} {unit}")
            out_metrics[prefix + metric] = {"value": value, "unit": unit}
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{name:<10} {'fail_ratio':<52} {fail_ratio:>14.6g} ratio "
              f"({result['failed']} of {result['attempted']} items)")
        if args.trace:
            harness, overhead = metrics["trace.harness_self_s"], metrics["trace.overhead_s"]
            allowed = overhead + 4 * metrics["trace.overhead_err_s"]
            accounted = harness <= allowed
            print(f"{name:<10} trace check: wall - layers' self times = {harness:.6g} s "
                  f"<= overhead + 4 standard errors = {allowed:.6g} s: "
                  f"{'ok' if accounted else 'NOT MET'}")
            if not accounted:
                print(f"run.py: {name}: the layers' self times miss more of the traced "
                      f"wall time than the tracing overhead", file=sys.stderr)
                unaccounted = True
        else:
            for metric, value in raw.items():
                print(f"{name:<10} {metric + ' (raw)':<52} {value:>14.6g} "
                      f"{units['ref.' + metric] if 'ref.' + metric in units else 's'}")
            print("raw " + json.dumps(raw))
            print(f"{name:<10} item times: each of {result['items']} items' mean over its "
                  f"runs, {result['passes']:.2f} runs per item on average")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 1 if failed else 3 if unaccounted else 0


if __name__ == "__main__":
    sys.exit(main())

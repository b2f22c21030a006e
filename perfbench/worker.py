"""One workload process: set up, then time items in a closed loop.

Run by ``run.py``; not meant to be started by hand.  Prints ``ready`` once
the inputs are built (``run.py`` times set-up from process start to that
line), then a ``setup`` line with what ``run.py`` needs to take the
reference blocks out of that time and scale it (see below), exits there
with ``--setup-only``, and otherwise prints one JSON object with the raw
measurements as its last line.

The loop is closed: one thread runs the items back to back, the next item
starting when the previous one returns.  It makes one whole pass over the
item list and then goes on, pass after pass, until ``--seconds`` have gone
by, stopping mid-pass.  Each item's time is its mean over the runs it got,
so every item counts once in the figures and their mix is the same
whatever the run's length.  The traced run makes whole passes, so that its
counts per pass are exact.

Reference speed.  On a shared host the CPU's speed swings by up to 2x within
tenths of a second and by 10-20% between runs minutes apart, which no
averaging inside a run removes.  So right before and right after each
item the worker also times ``reference_work``, a fixed exact elimination
written here, and reports each item's time as well scaled to the
reference speed: its time times ``REF_MS`` over the mean of those two
reference times.  (Timing the reference on both sides, not only after the
item, cut the spread of ``ref.item_ms.p90`` over five seeds of
``supports`` from 0.09 to 0.03 of its median; those items last long enough
for the speed to change during one.)  That figure
moves when sphskel's cost changes and not when the host's speed does.
Set-up is scaled the same way: a block of ``REF_REPS`` reference runs just
before set-up and another just after give the reference time (the median
of both blocks), and ``run.py`` takes the first block's time out of the
set-up time it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import WORKLOADS  # noqa: E402

MAX_MESSAGES = 5
# median time of reference_work on the 2-vCPU Intel Xeon (CPython 3.11.7)
# where the benchmark was defined; it only fixes the scale of the figures
REF_MS = 0.74
REF_REPS = 40


def reference_work() -> list:
    """Gauss-Jordan elimination of a fixed 5x6 rational matrix (about REF_MS)."""
    n = 5
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(n + 1)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            f = rows[r][col] / rows[col][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows


def reference_block() -> list:
    """Times of ``REF_REPS`` back-to-back runs of ``reference_work``."""
    times = []
    for _ in range(REF_REPS):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return times


def run_item(wl, item, state, tracer=None, item_id=None):
    """Run and check one item; return None if it failed, else a pair.

    The pair is the item's time in seconds and, untraced, that time scaled
    to the reference speed by ``reference_work`` runs timed right before
    and right after the item (None when traced).  The timer stops before the check.  With a
    tracer the item runs in an ``item`` span and its spans are tagged
    ``("item", pass, index)``, those of its check ``("check", pass, index)``.
    """
    output = error = took = scaled = None
    try:
        if tracer is None:
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            output = wl.run(item)
            t2 = perf_counter()
            reference_work()
            took = t2 - t1
            scaled = took * REF_MS / 1000.0 / ((t1 - t0 + perf_counter() - t2) / 2)
        else:
            tracer.item = item_id
            with tracer.span("item") as span:
                output = wl.run(item)
            took = span[2] - span[1]
            tracer.item = ("check",) + item_id[1:]
        error = wl.check(item, output)
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.item = None
    state["attempted"] += 1
    if error is not None:
        state["failed"] += 1
        if len(state["messages"]) < MAX_MESSAGES:
            state["messages"].append(error)
        return None
    return took, scaled


def run_pass(wl, items, state, deadline=None) -> list:
    """Run and check the items in order, stopping at ``deadline`` if given:
    per item run, None or (seconds, seconds at the reference speed)."""
    times = []
    for item in items:
        if deadline is not None and perf_counter() >= deadline:
            break
        times.append(run_item(wl, item, state))
    return times


def run_traced_pass(wl, items, tracer, pass_no, state) -> list:
    """Run every item untraced and traced, back to back, in alternating order.

    Each pair of runs is close in time, so the host's speed changes cancel
    in their difference.  Returns (untraced, traced) seconds for each item
    that passed both runs.
    """
    pairs = []
    for idx, item in enumerate(items):
        took = {}
        for with_tracer in ((False, True) if (idx + pass_no) % 2 == 0 else (True, False)):
            if with_tracer:
                tracer.install()
                took[True] = run_item(wl, item, state, tracer, ("item", pass_no, idx))
                tracer.uninstall()
            else:
                took[False] = run_item(wl, item, state)
        if None not in took.values():
            pairs.append((took[False][0], took[True][0]))
    return pairs


def _item_means(passes: list, k: int) -> list:
    """Per item, the mean of field k over the passes that ran it (None if
    any run of it failed)."""
    means = []
    for idx in range(len(passes[0])):
        col = [p[idx] for p in passes if idx < len(p)]
        means.append(None if None in col else statistics.mean(t[k] for t in col))
    return means


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="file for the traced spans")
    args = p.parse_args(argv)
    size = args.size if args.size in (None, "full") else int(args.size)
    wl = WORKLOADS[args.workload]

    pre_start = perf_counter()
    ref_times = reference_block()
    pre_s = perf_counter() - pre_start
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = wl.setup(args.seed, size)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    ref_times += reference_block()
    scale = REF_MS / 1000.0 / statistics.median(ref_times)
    print("setup " + json.dumps({"pre_s": pre_s, "ref_scale": scale}), flush=True)
    if args.setup_only:
        return 0

    state = {"attempted": 0, "failed": 0, "messages": []}
    start = perf_counter()
    if tracer is None:
        passes = [run_pass(wl, items, state)]
        while perf_counter() - start < args.seconds:
            passes.append(run_pass(wl, items, state, start + args.seconds))
        result = {"item_s": _item_means(passes, 0), "item_ref_s": _item_means(passes, 1),
                  "passes": sum(map(len, passes)) / len(items)}
    else:
        from tracer import layer_metrics

        passes = []
        while not passes or (perf_counter() - start) * (1 + 0.5 / len(passes)) < args.seconds:
            passes.append(run_traced_pass(wl, items, tracer, len(passes), state))
        diffs = [t - p for pairs in passes for p, t in pairs]
        layers = layer_metrics(tracer.spans, len(passes))
        layers["trace.untraced_wall_s"] = sum(p for pairs in passes for p, _ in pairs) / len(passes)
        layers["trace.overhead_s"] = sum(diffs) / len(passes)
        # standard error of that sum, from the spread of the per-item differences
        layers["trace.overhead_err_s"] = (
            statistics.stdev(diffs) * len(diffs) ** 0.5 / len(passes) if len(diffs) > 1 else 0.0)
        result = {"layers": layers, "passes": len(passes)}
        if args.spans:
            tracer.write_spans(args.spans)
    result.update({
        "items": len(items),
        "attempted": state["attempted"],
        "failed": state["failed"],
        "messages": state["messages"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

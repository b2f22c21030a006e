"""Spans around sphskel's public functions, recorded from outside the package.

Every call between sphskel modules goes through a module attribute
(``exactlp.solve_max``, ``sk_mod.is_complete``, ...), so replacing those
attributes in the benchmark process catches every call, including calls
inside a module to its own public functions.  ``Tracer.install`` wraps each
public function of the modules in ``MODULES`` (and ``LpProblem.make``);
``Tracer.uninstall`` puts the originals back.

A span is ``[name, start, end, parent, item, info]``; ``parent`` is the index
of the enclosing span or -1, ``item`` is whatever the harness set on
``Tracer.item`` when the span began.  Spans stay in memory until
``layer_metrics`` and ``write_spans`` read them after the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

MODULES = ("catalog", "skeleton", "exactlp", "mukai", "cli")

# Spans that keep what the per-layer ratios need: the skeleton and verdict of
# a completeness test, the problem and pivot count of an LP solve, the
# number of instances a sweep built.
_INFO = {
    "skeleton.is_complete": lambda args, res: (args[0], res),
    "exactlp.solve_max": lambda args, res: (args[0], res.pivots),
    "catalog.sweep_instances": lambda args, res: len(res),
}

# Solve roles, from the nearest enclosing span that decides one.
ROLES = ("main", "completeness", "uniqueness", "random")
_ROLE_OF = {
    "exactlp.unique_optimum": "uniqueness",
    "exactlp.feasible_with_lower_bounds": "completeness",
    "skeleton.is_complete": "completeness",
    "item": "random",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, _INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            try:
                span[1] = perf_counter()
                result = fn(*args, **kwargs)
                span[2] = perf_counter()
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span for harness work (an item); yields the span record."""
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"sphskel.{short}")
            for attr, fn in vars(mod).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{short}.{attr}", fn))
        problem = importlib.import_module("sphskel.exactlp").LpProblem
        make = inspect.getattr_static(problem, "make")
        self._originals.append((problem, "make", make))
        problem.make = staticmethod(self._wrap("exactlp.LpProblem.make", make.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write_spans(self, path: str) -> None:
        """One JSON object per span.  ``info`` is the pivot count of a solve,
        the verdict of a completeness test, the instance count of a sweep or
        the exception a call raised."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, item, info in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "item": item}
                if info is not None:
                    record["info"] = info[1] if isinstance(info, tuple) else info
                out.write(json.dumps(record) + "\n")


def _role(spans, idx) -> str | None:
    parent = spans[idx][3]
    while parent >= 0:
        name = spans[parent][0]
        if name in _ROLE_OF:
            return _ROLE_OF[name]
        if name.startswith(("mukai.", "cli.")):
            return "main"
        parent = spans[parent][3]
    return None


def _count(x):
    """A per-pass count: exact when the passes did identical work."""
    return int(x) if float(x).is_integer() else x


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer figures for set-up plus one pass over the items.

    Spans whose item is None (set-up) count once; spans of the traced passes
    are averaged over ``passes``.  ``.s`` is time inside the call including
    its children, ``.self_s`` excludes the children's spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, float] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    roles = {r: {"calls": 0.0, "s": 0.0, "pivots": 0.0, "phase1": 0.0, "infeasible": 0.0}
             for r in ROLES}
    complete = {"true": 0.0, "repeat": 0.0}
    tested: dict[object, set] = {}
    instances = 0
    wall = harness_self = layers_self = 0.0
    for idx, (name, start, end, parent, item, info) in enumerate(spans):
        weight = 1.0 if item is None else 1.0 / passes
        dur = end - start
        own = dur - child_time[idx]
        if name == "item":
            wall += dur * weight
            harness_self += own * weight
            continue
        if item is not None and item[0] == "item":
            layers_self += own * weight
        calls[name] = calls.get(name, 0.0) + weight
        incl[name] = incl.get(name, 0.0) + dur * weight
        self_s[name] = self_s.get(name, 0.0) + own * weight
        if name == "exactlp.solve_max":
            role = roles.get(_role(spans, idx))
            if role is None:
                continue
            role["calls"] += weight
            role["s"] += dur * weight
            if isinstance(info, tuple):
                problem, pivots = info
                role["pivots"] += pivots * weight
                role["phase1"] += weight * any(bi < 0 for bi in problem.b)
            elif info == "LpInfeasibleError":
                role["infeasible"] += weight
                role["phase1"] += weight  # only phase 1 can find infeasibility
        elif name == "skeleton.is_complete" and isinstance(info, tuple):
            skel, result = info
            complete["true"] += weight * bool(result)
            seen = tested.setdefault(item, set())
            if skel in seen:
                complete["repeat"] += weight
            seen.add(skel)
        elif name == "catalog.sweep_instances" and isinstance(info, int):
            instances += info

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return _count(calls.get(name, 0.0))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {
        "catalog.sweep_instances.s": s("catalog.sweep_instances"),
        "catalog.instances": instances,
        "skeleton.with_boundary_support.s": s("skeleton.with_boundary_support"),
        "skeleton.with_boundary_support.calls": n("skeleton.with_boundary_support"),
        "skeleton.is_complete.s": s("skeleton.is_complete"),
        "skeleton.is_complete.calls": n("skeleton.is_complete"),
        "skeleton.is_complete.true_ratio":
            ratio(complete["true"], calls.get("skeleton.is_complete", 0.0)),
        "skeleton.is_complete.repeat_ratio":
            ratio(complete["repeat"], calls.get("skeleton.is_complete", 0.0)),
        "exactlp.matrix_rank.s": s("exactlp.matrix_rank"),
        "exactlp.matrix_rank.calls": n("exactlp.matrix_rank"),
    }
    for name, r in roles.items():
        key = f"exactlp.solve_max.{name}"
        out[f"{key}.s"] = r["s"]
        out[f"{key}.calls"] = _count(r["calls"])
        out[f"{key}.pivots"] = _count(r["pivots"])
        out[f"{key}.us_per_pivot"] = ratio(r["s"] * 1e6, r["pivots"])
        out[f"{key}.phase1_share"] = ratio(r["phase1"], r["calls"])
    out["exactlp.solve_max.completeness.infeasible"] = _count(roles["completeness"]["infeasible"])
    out.update({
        "exactlp.unique_optimum.s": s("exactlp.unique_optimum"),
        "exactlp.unique_optimum.calls": n("exactlp.unique_optimum"),
        "exactlp.unique_optimum.lps_per_call":
            ratio(roles["uniqueness"]["calls"], calls.get("exactlp.unique_optimum", 0.0)),
        "exactlp.verify_certificates.s": s("exactlp.verify_certificates"),
        "exactlp.LpProblem.make.s": s("exactlp.LpProblem.make"),
        "mukai.evaluate_with_stats.self_s": self_s.get("mukai.evaluate_with_stats", 0.0),
        "mukai.skeleton_lp.s": s("mukai.skeleton_lp"),
        "mukai.budget.s": s("mukai.budget"),
        "mukai.enumerate_minimal_complete_supports.self_s":
            self_s.get("mukai.enumerate_minimal_complete_supports", 0.0),
        "cli.print_reports.s": s("cli.print_reports"),
        "trace.wall_s": wall,
        "trace.layers_self_s": layers_self,
        "trace.harness_self_s": harness_self,
    })
    return out

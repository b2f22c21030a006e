"""Seeded inputs, the timed operation and the correctness check of each workload.

Each workload has three parts:

* ``setup(seed, size)`` imports sphskel and builds the item list.  The same
  seed gives the same items in the same order.
* ``run(item)`` is the timed operation.  It calls sphskel only through module
  attributes, so the tracer's patches see every call.
* ``check(item, output)`` returns ``None`` when the output is right and a
  message otherwise.  The references are the catalog's stated values and
  certificate arithmetic written here, never a flag computed by sphskel.

``size`` is the number of items, or ``None`` for the stated size, or
``"full"`` for every input the workload draws from, unsampled.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

EQUAL = "Equal"


def frac_text(x) -> str:
    """A Fraction as the CLI's JSON writes it: "n" or "n/d", reduced."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _take(items: list, size) -> list:
    if size is None or size == "full":
        return items
    return items[:size]


class Verify:
    """``sphskel verify --case all --format json``, one report per item.

    Every (instance, option) of the default sweep, in an order drawn from the
    seed.  Each item evaluates one option and serializes its report.
    """

    name = "verify"

    def setup(self, seed: int, size):
        from sphskel import catalog

        instances = catalog.sweep_instances()
        pairs = [(inst, opt) for inst in instances for opt in inst.options]
        random.Random(seed).shuffle(pairs)
        return _take(pairs, size)

    def run(self, item):
        from sphskel import cli

        inst, opt = item
        report = cli.evaluate_option(inst, opt)
        out = io.StringIO()
        cli.print_reports([report], "json", out)
        return out.getvalue()

    def check(self, item, output: str):
        inst, opt = item
        lines = output.splitlines()
        if len(lines) != 1:
            return f"{inst.label} {opt.key}: expected one JSON line, got {len(lines)}"
        rep = json.loads(lines[0])
        where = f"{inst.label} {dict(inst.params)} {opt.key}"
        if rep["case"] != inst.family or rep["support"] != opt.key:
            return f"{where}: report names case {rep['case']} support {rep['support']}"
        if rep["complete"] is not True:
            return f"{where}: support reported as not complete"
        if rep["relation"] != opt.expected_relation:
            return f"{where}: relation {rep['relation']} != {opt.expected_relation}"
        if rep["p_value"] is None:
            return f"{where}: P reported infinite"
        if opt.expected_p is not None and rep["p_value"] != frac_text(opt.expected_p):
            return f"{where}: P {rep['p_value']} != {frac_text(opt.expected_p)}"
        if opt.expected_theta is not None and rep["theta"] != [
            frac_text(t) for t in opt.expected_theta
        ]:
            return f"{where}: theta {rep['theta']} != {list(map(frac_text, opt.expected_theta))}"
        if opt.expected_relation == EQUAL and rep["theta_unique"] is not True:
            return f"{where}: Equal report without a unique maximizer"
        return None


class Supports:
    """``sphskel supports`` (max_card 3), one catalog instance per item.

    Drawn from the instances of the default sweep with at most ``MAX_SIGMA``
    spherical roots: each family's instances, sorted by size, fall into
    groups of ``SHARE`` neighbours and the seed picks one of each group, so
    every family is present and the sample's cost varies little by seed.
    The cost of an instance grows with its number of spherical roots (0.3 s
    at 8, up to 6 s at 14), so the cap keeps a pass to seconds and stops one
    large instance from setting the figures.
    """

    name = "supports"
    MAX_SIGMA = 8
    SHARE = 2

    def setup(self, seed: int, size):
        from sphskel import catalog

        instances = catalog.sweep_instances()
        if size == "full":
            return instances
        rng = random.Random(seed)
        families: dict[tuple[int, str], list] = {}
        for inst in instances:
            families.setdefault((inst.family, inst.sub_case), []).append(inst)
        sample = []
        for members in families.values():
            members.sort(key=lambda i: (len(i.system.sigma), i.system.root_system.rank,
                                        i.params))
            small = [i for i in members if len(i.system.sigma) <= self.MAX_SIGMA]
            small = small or members[:1]
            sample += [rng.choice(small[k:k + self.SHARE])
                       for k in range(0, len(small), self.SHARE)]
        rng.shuffle(sample)
        return _take(sample, size)

    def run(self, inst):
        from sphskel import mukai

        return mukai.enumerate_minimal_complete_supports(inst.system, 3)

    def check(self, inst, found):
        where = f"{inst.label} {dict(inst.params)}"
        expected = {
            tuple(sorted(opt.indices)): opt
            for opt in inst.options
            if opt.minimal and not opt.combined
        }
        got = [tuple(sorted(indices)) for indices, _ in found]
        if sorted(got) != sorted(expected):
            return f"{where}: supports {sorted(got)} != {sorted(expected)}"
        for indices, verdict in found:
            opt = expected[tuple(sorted(indices))]
            if verdict.relation != opt.expected_relation:
                return f"{where} {opt.key}: relation {verdict.relation} != {opt.expected_relation}"
            if verdict.p_value is None:
                return f"{where} {opt.key}: P infinite"
            if opt.expected_p is not None and verdict.p_value != opt.expected_p:
                return f"{where} {opt.key}: P {verdict.p_value} != {opt.expected_p}"
        return None


class LpRandom:
    """``LpProblem.make`` + ``solve_max`` on seeded dense LPs.

    n and m run over 4..12; each (n, m) pair appears ``PER_SHAPE`` times, so
    the seed changes the coefficients and the order but not the mix of
    shapes.  Entries of A and c are integers in -9..9, and b = A x0 + slack
    with x0 in 0..1 and slack in 0..3 (nonnegative integers), so every LP is
    feasible; most need phase 1 and many are unbounded.
    """

    name = "lp_random"
    SHAPES = range(4, 13)
    PER_SHAPE = 12

    def setup(self, seed: int, size):
        import sphskel  # noqa: F401  (the import is part of set-up)

        rng = random.Random(seed)
        shapes = [(n, m) for n in self.SHAPES for m in self.SHAPES] * self.PER_SHAPE
        rng.shuffle(shapes)
        items = []
        for n, m in _take(shapes, size):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(0, 1) for _ in range(n)]
            b = [sum(r * x for r, x in zip(row, x0)) + rng.randint(0, 3) for row in a]
            c = [rng.randint(-9, 9) for _ in range(n)]
            items.append((a, b, c))
        return items

    def run(self, item):
        from sphskel import exactlp

        problem = exactlp.LpProblem.make(*item)
        return problem, exactlp.solve_max(problem)

    def check(self, item, output):
        from sphskel import exactlp

        problem, sol = output
        error = certificate_error(*item, sol)
        if error is None and not exactlp.verify_certificates(problem, sol):
            error = "exactlp.verify_certificates rejects the solution"
        return error


def certificate_error(a, b, c, sol):
    """Why ``sol`` does not certify max c.x, Ax <= b, x >= 0, or None."""
    m, n = len(a), len(c)
    x = sol.primal
    if len(x) != n or any(v < 0 for v in x):
        return "primal point has the wrong length or a negative entry"
    if any(sum(aij * xj for aij, xj in zip(a[i], x)) > b[i] for i in range(m)):
        return "primal point violates A x <= b"
    if sol.status == "optimal":
        y = sol.dual
        if y is None or len(y) != m or any(v < 0 for v in y):
            return "dual vector missing, of the wrong length or negative"
        if any(sum(a[i][j] * y[i] for i in range(m)) < c[j] for j in range(n)):
            return "dual vector violates A^T y >= c"
        cx = sum(cj * xj for cj, xj in zip(c, x))
        by = sum(bi * yi for bi, yi in zip(b, y))
        if not cx == by == sol.value:
            return f"objective values differ: c.x={cx}, b.y={by}, value={sol.value}"
        return None
    if sol.status == "unbounded":
        r = sol.ray
        if r is None or len(r) != n or any(v < 0 for v in r):
            return "ray missing, of the wrong length or negative"
        if any(sum(aij * rj for aij, rj in zip(row, r)) > 0 for row in a):
            return "ray violates A r <= 0"
        if sum(cj * rj for cj, rj in zip(c, r)) <= 0:
            return "ray does not improve the objective"
        return None
    return f"status {sol.status!r}"


WORKLOADS = {w.name: w for w in (Verify(), Supports(), LpRandom())}

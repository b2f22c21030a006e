"""Exact rational linear programming with certificates.

Canonical form: maximize c.x subject to A x <= b, x >= 0, everything a
``fractions.Fraction``.  The solver is a two-phase primal simplex with
Bland's rule (entering: smallest index with negative reduced cost; leaving:
smallest basic index among the minimum ratios), so it terminates and every
run is deterministic.  Optimal solutions carry the exact dual vector read
off the slack columns; unbounded ones carry an improving ray.

Negative right-hand sides are handled by the one-artificial-variable
phase 1; an empty feasible region raises ``LpInfeasibleError``.  Only a
caller's own LPs and the face LP of ``unique_optimum`` can reach phase 1:
the skeleton LP and the completeness LP of ``positive_dependence`` have
b >= 0, so they start feasible at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpInfeasibleError(ValueError):
    """The feasible region {x >= 0 : Ax <= b} is empty."""


def _frac_vector(v) -> tuple:
    # ints become Fractions; anything else is left for LpProblem to reject
    return tuple(Fraction(x) if type(x) is int else x for x in v)


@dataclass(frozen=True)
class LpProblem:
    """max c.x  s.t.  a x <= b,  x >= 0.

    Every entry must be an ``int`` or a ``Fraction`` (ValueError otherwise),
    however the problem is built; ``make`` also converts them to Fractions.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        # exact types only: Fraction(0.1) is not 1/10, and True would read as 1
        for v in (*self.a, self.b, self.c):
            bad = [x for x in v if type(x) not in (int, Fraction)]
            if bad:
                raise ValueError(f"LP entries must be int or Fraction, not {bad[0]!r}")
        if len(self.a) != len(self.b):
            raise ValueError("row count of A does not match b")
        for row in self.a:
            if len(row) != len(self.c):
                raise ValueError("column count of A does not match c")

    @staticmethod
    def make(a, b, c) -> "LpProblem":
        return LpProblem(
            a=tuple(_frac_vector(row) for row in a), b=_frac_vector(b), c=_frac_vector(c)
        )

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return len(self.c)


@dataclass
class LpSolution:
    status: str  # "optimal" | "unbounded"
    primal: tuple[Fraction, ...]
    value: Fraction | None = None
    dual: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None
    pivots: int = 0


class _Simplex:
    """Dense tableau over Fractions; rows are B^-1 [A | I], rhs B^-1 b."""

    def __init__(self, problem: LpProblem):
        m, n = problem.m, problem.n
        self.m, self.n = m, n
        self.width = n + m  # structural + slack columns; aux column may follow
        self.rows = []
        for i in range(m):
            row = [Fraction(x) for x in problem.a[i]] + [_ZERO] * m + [problem.b[i]]
            row[n + i] = _ONE
            self.rows.append(row)
        self.basis = [n + i for i in range(m)]
        self.obj: list[Fraction] = []
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        self.pivots += 1
        prow = self.rows[r]
        piv = prow[c]
        if piv != 1:
            prow = [v / piv for v in prow]
            self.rows[r] = prow
        for i in range(self.m):
            if i == r:
                continue
            f = self.rows[i][c]
            if f:
                self.rows[i] = [a - f * p for a, p in zip(self.rows[i], prow)]
        f = self.obj[c]
        if f:
            self.obj = [a - f * p for a, p in zip(self.obj, prow)]
        self.basis[r] = c

    def run(self) -> int | None:
        """Bland iterations; None once optimal, else the unbounded column."""
        while True:
            enter = -1
            obj = self.obj
            for j in range(self.width):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best = None
            for i in range(self.m):
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.rows[i][-1] / coef
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def set_objective(self, c: Sequence[Fraction]) -> None:
        """Objective row z_j - c_j for the current basis (c over all columns)."""
        obj = [-x for x in c] + [_ZERO]
        for i in range(self.m):
            ck = c[self.basis[i]]
            if ck:
                row = self.rows[i]
                obj = [a + ck * p for a, p in zip(obj, row)]
        self.obj = obj

    def phase1(self) -> None:
        """One-artificial-variable phase 1; raises LpInfeasibleError."""
        aux = self.width
        self.width += 1
        for row in self.rows:
            row.insert(aux, -_ONE)
        worst = min(range(self.m), key=lambda i: (self.rows[i][-1], self.basis[i]))
        c = [_ZERO] * self.width
        c[aux] = -_ONE
        self.set_objective(c)
        self.pivot(worst, aux)
        self.run()  # bounded by construction: -x0 <= 0
        if self.obj[-1] < 0:
            raise LpInfeasibleError("empty feasible region")
        if aux in self.basis:
            # x0 basic at 0: pivot it out; its slack columns hold a row of B^-1, never 0
            r = self.basis.index(aux)
            self.pivot(r, next(j for j in range(aux) if self.rows[r][j] != 0))
        for row in self.rows:
            del row[aux]
        self.width -= 1

    def primal_point(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.rows[i][-1]
        return tuple(x)


def solve_max(problem: LpProblem) -> LpSolution:
    """Solve max c.x, Ax <= b, x >= 0 exactly; Infeasible is an error."""
    simplex = _Simplex(problem)
    if any(bi < 0 for bi in problem.b):
        simplex.phase1()
    n, m = problem.n, problem.m
    c_full = list(problem.c) + [_ZERO] * (simplex.width - n)
    simplex.set_objective(c_full)
    unbounded_col = simplex.run()
    if unbounded_col is not None:
        ray = [_ZERO] * simplex.width
        ray[unbounded_col] = _ONE
        for i in range(m):
            ray[simplex.basis[i]] = -simplex.rows[i][unbounded_col]
        return LpSolution(
            status="unbounded",
            primal=simplex.primal_point(),
            ray=tuple(ray[:n]),
            pivots=simplex.pivots,
        )
    # dual components live on the slack columns (slack i is column n+i)
    dual = tuple(simplex.obj[n + i] for i in range(m))
    return LpSolution(
        status="optimal",
        primal=simplex.primal_point(),
        value=simplex.obj[-1],
        dual=dual,
        pivots=simplex.pivots,
    )


def verify_certificates(problem: LpProblem, sol: LpSolution) -> bool:
    """Re-check every optimality/unboundedness invariant from scratch."""
    m, n = problem.m, problem.n
    x = sol.primal
    if len(x) != n or any(xj < 0 for xj in x):
        return False
    for i in range(m):
        if sum(problem.a[i][j] * x[j] for j in range(n)) > problem.b[i]:
            return False
    if sol.status == "optimal":
        y = sol.dual
        if y is None or sol.value is None or len(y) != m:
            return False
        if any(yi < 0 for yi in y):
            return False
        for j in range(n):
            if sum(problem.a[i][j] * y[i] for i in range(m)) < problem.c[j]:
                return False
        primal_value = sum(problem.c[j] * x[j] for j in range(n))
        dual_value = sum(problem.b[i] * y[i] for i in range(m))
        return primal_value == sol.value and dual_value == sol.value
    if sol.status == "unbounded":
        r = sol.ray
        if r is None or len(r) != n or any(rj < 0 for rj in r):
            return False
        for i in range(m):
            if sum(problem.a[i][j] * r[j] for j in range(n)) > 0:
                return False
        return sum(problem.c[j] * r[j] for j in range(n)) > 0
    return False


def unique_optimum(problem: LpProblem, sol: LpSolution) -> bool:
    """Whether the optimal face is the single point sol.primal.

    ``sol`` must be an optimal vertex with a dual that verify_certificates
    accepts, else ValueError.  On the face, a variable (x_j or slack
    s_i = b_i - a_i.x) with positive reduced cost stays 0 (Mangasarian 1979);
    so the optimum is unique iff the set Z of variables that are 0 at the
    vertex with zero reduced cost stays 0: Z empty needs no LP, otherwise one
    LP maximizes the sum over Z on the face.
    """
    if sol.status != "optimal" or not verify_certificates(problem, sol):
        raise ValueError("uniqueness needs an optimal solution with a valid dual")
    a, x, y, n = problem.a, sol.primal, sol.dual, problem.n
    slack = [bi - sum(r * xj for r, xj in zip(row, x)) for row, bi in zip(a, problem.b)]
    active = [row for row, s in zip(a, slack) if s == 0]
    active += [[int(k == j) for k in range(n)] for j in range(n) if x[j] == 0]
    if matrix_rank(active) != n:
        raise ValueError("uniqueness is decided at a vertex only")
    # reduced costs: (A^T y)_j - c_j for x_j, y_i for s_i
    z_x = {
        j
        for j in range(n)
        if x[j] == 0 and sum(row[j] * yi for row, yi in zip(a, y)) == problem.c[j]
    }
    z_s = [row for row, s, yi in zip(a, slack, y) if s == 0 and yi == 0]
    if not z_x and not z_s:
        return True
    # the sum over Z is obj.x plus a constant, since s_i = b_i - a_i.x
    obj = [int(j in z_x) - sum(row[j] for row in z_s) for j in range(n)]
    face_a = list(a) + [tuple(-cj for cj in problem.c)]
    face_b = list(problem.b) + [-sol.value]
    best = solve_max(LpProblem.make(face_a, face_b, obj))
    return best.status == "optimal" and best.value == sum(o * xj for o, xj in zip(obj, x))


def positive_dependence(
    vectors: Sequence[Sequence[Fraction]],
) -> tuple[tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """``(lam, None)`` with lam >= 1 and sum_k lam_k vectors[k] = 0, or
    ``(None, y)`` with <v_k, y> >= 0 for every k and s.y = 1.

    One lam_k per vector; backs the completeness test and the
    certificate-multiplier search.  By Stiemke's lemma exactly one of the two
    exists, where s = sum_k v_k.  So one LP maximizes s.y subject to
    <v_k, y> >= 0 and s.y <= 1 (y = y+ - y-); its b >= 0 needs no phase 1.
    The optimum is 1 or 0: at 1 its primal is y, and at 0 the dual mu has
    sum_k mu_k v_k = -s, so lam = mu + 1.
    """
    s = [sum(col) for col in zip(*vectors)]
    a = [[-x for x in v] + list(v) for v in vectors]
    a.append(s + [-x for x in s])
    sol = solve_max(LpProblem.make(a, [0] * len(vectors) + [1], a[-1]))
    if sol.value:
        d = len(s)
        return None, tuple(p - q for p, q in zip(sol.primal[:d], sol.primal[d:]))
    return tuple(mu + 1 for mu in sol.dual[:-1]), None


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over the rationals (fraction-exact elimination)."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                fi = f / piv
                work[i] = [a - fi * p for a, p in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank

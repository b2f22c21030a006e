"""Exact rational linear programming with certificates.

Canonical form: maximize c.x subject to A x <= b, x >= 0, every entry an
``int``: a divisor's pairings with Sigma are integers (Luna 2001), and so
is every LP built on them.  The solver is a two-phase primal simplex with
Bland's rule (entering: smallest label with negative reduced cost; leaving:
smallest basic label among the minimum ratios), so it terminates and every
run is deterministic.  Optimal solutions carry the exact dual vector read
off the slack columns; unbounded ones carry an improving ray.

The tableau holds Python ints only (Edmonds 1967, Bareiss 1968) and starts
from A, b and c as they stand, once one pass has read the type of every
entry.  It is condensed (Tucker 1960): a basic column is d e_i, d the
common denominator, so only the nonbasic columns are kept, each under its
variable's label, and one exchange step swaps the entering column for the
leaving one.  Each entry is the full tableau's, int for int.  A pivot p
with |p| = d (nearly every pivot of the skeleton LPs) turns the step
``(x * p - f * q) // d`` into ``x - f * q // d``: only the pivot row's
non-zero columns change, so only those are updated.  A solve's result is
a frozen record of its final tableau's integer numerators (x = X/d, a ray
R/d, y = Y/d); it builds their Fractions only when a caller reads them,
and the certificate checks run on the numerators.  Only a caller's own LPs and the face LP of
``unique_optimum`` can reach phase 1: the skeleton LP and
``positive_dependence``'s one LP over a basis of the span both have b >= 0,
and they start at the slack basis with the cost row alone.  At c <= 0 as
well that basis is optimal, and the solve returns its record at 0 pivots
without building a tableau.  The rank and that basis share one Gauss-Jordan
loop of the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import countOf, mul, neg
from typing import Sequence

_ZERO = Fraction(0)


class LpInfeasibleError(ValueError):
    """The feasible region {x >= 0 : Ax <= b} is empty."""


_INT = {int}


def _check_ints(entries: Sequence) -> None:
    """The one exact-entry gate: one pass over the types of ``entries``, and
    ValueError names the first that is not an int (a rational, a float, or
    True, which would read as 1)."""
    if countOf(map(type, entries), int) != len(entries):
        bad = next(x for x in entries if type(x) is not int)
        raise ValueError(f"entries must be int, not {bad!r}")


@dataclass(frozen=True)
class LpProblem:
    """max c.x  s.t.  a x <= b,  x >= 0.

    Every entry must be an ``int``, however the problem is built; ``make``
    keeps them as given.  One pass reads every entry's type, and ValueError
    names the first entry of another type, in the rows of ``[a | b]`` and
    then c.  The tableau starts from a, b and c as they stand.
    """

    a: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        m, n = len(self.b), len(self.c)
        if len(self.a) != m:
            raise ValueError("row count of A does not match b")
        if countOf(map(len, self.a), n) != m:
            raise ValueError("column count of A does not match c")
        # one pass in any order; on a miss the gate names the first bad entry
        if countOf(map(type, chain(self.b, self.c, *self.a)), int) != m + n + m * n:
            _check_ints([*chain(*[(*row, bi) for row, bi in zip(self.a, self.b)], self.c)])

    @staticmethod
    def make(a, b, c) -> "LpProblem":
        # tuples from lists, not generators: tuple() of a generator resizes its
        # result, and CPython's tuple free lists then keep up to 2000 stranded
        # tuples of each small size, so peak memory grew with every LP solved
        return LpProblem(tuple([tuple(row) for row in a]), tuple(b), tuple(c))


def _fractions(ints: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(v, den) if v else _ZERO for v in ints])


@dataclass(frozen=True)
class LpSolution:
    """An optimum (value, primal, dual) or an unbounded LP (primal, ray), and
    the pivots of the solve, as the final tableau holds them: x = X/d, a ray
    R/d and y = Y/dy over the tableau's d, ints over denominators > 0 that
    need not be the least.  A record that ``solve_max`` builds has dy = d; a
    caller's record may put y over its own dy.  ``value`` is the only
    Fraction a solve builds (none at 0 pivots); ``primal``, ``dual`` and
    ``ray`` build theirs on each read.  A field the status omits is None."""

    status: str  # "optimal" | "unbounded"
    pivots: int
    value: Fraction | None
    x: Sequence[int]
    r: Sequence[int] | None
    d: int
    y: Sequence[int] | None
    dy: int | None

    @property
    def primal(self) -> tuple[Fraction, ...]:
        return _fractions(self.x, self.d)

    @property
    def dual(self) -> tuple[Fraction, ...] | None:
        return None if self.y is None else _fractions(self.y, self.dy)

    @property
    def ray(self) -> tuple[Fraction, ...] | None:
        return None if self.r is None else _fractions(self.r, self.d)


def _exchange(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free exchange step on ``rows[r][c]`` of a condensed
    tableau of ints over d > 0 (Tucker 1960, Edmonds 1967): the rows hold the
    nonbasic columns only, since a basic one is d e_i.  Column c's variable
    enters in row r, and column c becomes the leaving variable's: d in row r
    (-d once a negative pivot has negated row r) and 0 elsewhere.  Every
    column then takes the Bareiss update ``(x * p - f * q) // d``, f a row's
    old entry in column c, which divides exactly; so row i's entry in column
    c ends as -f or f.  At p = d the update is ``x - f * q // d``, so a row
    with f != 0 changes, in place, only where row r is not 0; else every row
    is rebuilt.  The rows must be lists the caller owns.  Returns the new d,
    |p|."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = rows[r] = [-q for q in prow]
        p = -p
        prow[c] = -d
    else:
        prow[c] = d
    if p == d:
        nonzero = [(j, q) for j, q in enumerate(prow) if q]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c] = 0
                for j, q in nonzero:
                    row[j] -= f * q // d
        return p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            row[c] = 0
            rows[i] = [(x * p - f * q) // d for x, q in zip(row, prow)]
        else:
            rows[i] = [x * p // d for x in row]
    return p


class _Simplex:
    """Condensed tableau of ints over one common denominator ``d > 0``.

    Variables carry labels: x_j is j, slack i is n + i and phase 1's aux is
    n + m.  ``basis`` labels the rows and ``nonbasic`` the columns; the rows
    are ``d * B^-1 [A | I | b]`` restricted to the nonbasic columns and the
    rhs, since a basic column is d e_i (Tucker 1960).  Row i starts as
    ``[a_i | b_i]``, and the aux column holds -1.  ``z`` is d times the
    objective row on the same columns, value last: ``[-c | 0]`` at the
    start.  A pivot is one ``_exchange`` step: d stays the absolute basis
    determinant, and every entry equals the full tableau's, so Bland's rule
    on labels takes the full tableau's path.
    The one ``Fraction`` a solve builds is the value, in ``obj``;
    ``primal_point``, ``ray`` and ``obj`` give the numerators that
    ``LpSolution`` keeps.
    """

    def __init__(self, problem: LpProblem):
        self.m, self.n = m, n = len(problem.b), len(problem.c)
        self.rows: list[list[int]] = [[*row, bi] for row, bi in zip(problem.a, problem.b)]
        self.cost = problem.c
        self.basis = list(range(n, n + m))
        self.nonbasic = list(range(n))
        self.d = 1
        self.z = [*map(neg, self.cost), 0]
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        self.pivots += 1
        self.rows.append(self.z)  # z takes the same step as a row
        self.d = _exchange(self.rows, r, c, self.d)
        self.z = self.rows.pop()
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def run(self) -> int | None:
        """Bland iterations; None once optimal, else the unbounded column."""
        nonbasic = self.nonbasic
        while True:
            negative = [k for k, x in zip(nonbasic, self.z) if x < 0]
            if not negative:
                return None
            enter = nonbasic.index(min(negative))
            leave, best_rhs, best_coef = -1, 0, 1
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    # rhs / coef against best_rhs / best_coef, cross-multiplied
                    key = row[-1] * best_coef - best_rhs * coef
                    if leave < 0 or key < 0 or (
                        key == 0 and self.basis[i] < self.basis[leave]
                    ):
                        leave, best_rhs, best_coef = i, row[-1], coef
            if leave < 0:
                return enter
            self.pivot(leave, enter)

    def set_objective(self, c: Sequence[int]) -> None:
        """Objective row for the current basis (integer c over all labels)."""
        z = [-self.d * c[k] for k in self.nonbasic] + [0]
        for row, k in zip(self.rows, self.basis):
            ck = c[k]
            if ck:
                z = [a + ck * p for a, p in zip(z, row)]
        self.z = z

    def phase1(self) -> None:
        """One-artificial-variable phase 1, then z for the cost; raises
        LpInfeasibleError."""
        aux = self.n + self.m
        # the worst row, the first of the least b_i: the least slack label
        worst = min(range(self.m), key=lambda i: self.rows[i][-1])
        for row in self.rows:
            row.insert(-1, -1)
        self.nonbasic.append(aux)
        self.set_objective([0] * aux + [-1])
        self.pivot(worst, len(self.nonbasic) - 1)
        self.run()  # bounded by construction: -x0 <= 0
        if self.z[-1] < 0:
            raise LpInfeasibleError("empty feasible region")
        if aux in self.basis:
            # x0 basic at 0: pivot it out; its slack columns hold a row of B^-1, never 0
            r = self.basis.index(aux)
            nonzero = [k for k, x in zip(self.nonbasic, self.rows[r]) if x]
            self.pivot(r, self.nonbasic.index(min(nonzero)))
        j = self.nonbasic.index(aux)
        for row in self.rows:
            del row[j]
        del self.nonbasic[j]
        self.set_objective([*self.cost, *[0] * self.m])

    def read_obj(self) -> None:
        """Sets ``obj``: the dual numerators Y over d (0 for a basic slack),
        then the value as a Fraction; call it once, when the solve is
        optimal."""
        n, z = self.n, self.z
        obj = [0] * self.m
        for k, x in zip(self.nonbasic, z):
            if k >= n:
                obj[k - n] = x
        obj.append(Fraction(z[-1], self.d))
        self.obj = tuple(obj)

    def primal_point(self) -> list[int]:
        """The numerators of x over d."""
        x = [0] * self.n
        for i, k in enumerate(self.basis):
            if k < self.n:
                x[k] = self.rows[i][-1]
        return x

    def ray(self, col: int) -> list[int]:
        """The numerators over d of the improving ray on x when column ``col``
        enters unbounded."""
        n, e = self.n, self.nonbasic[col]
        ray = [0] * n
        if e < n:
            ray[e] = self.d
        for i, k in enumerate(self.basis):
            if k < n:
                ray[k] = -self.rows[i][col]
        return ray


def solve_max(problem: LpProblem) -> LpSolution:
    """Solve max c.x, Ax <= b, x >= 0 exactly; Infeasible is an error."""
    phase1 = min(problem.b, default=0) < 0
    if not phase1 and max(problem.c, default=0) <= 0:  # the slack basis's record, no tableau
        n, m = len(problem.c), len(problem.b)
        return LpSolution("optimal", 0, _ZERO, [0] * n, None, 1, (0,) * m, 1)
    simplex = _Simplex(problem)
    if phase1:
        simplex.phase1()
    unbounded_col = simplex.run()
    if unbounded_col is not None:
        x, ray = simplex.primal_point(), simplex.ray(unbounded_col)
        return LpSolution("unbounded", simplex.pivots, None, x, ray, simplex.d, None, None)
    # the duals are the slacks' reduced costs (slack i has label n+i; 0 when basic)
    simplex.read_obj()
    return LpSolution("optimal", simplex.pivots,
                      value=simplex.obj[-1],
                      x=simplex.primal_point(), r=None, d=simplex.d,
                      y=simplex.obj[:-1], dy=simplex.d)


def _exact(ints: Sequence[int] | None, den) -> bool:
    """Whether ``ints`` over ``den`` is a vector a check can read: int
    numerators over an int denominator > 0."""
    return ints is not None and type(den) is int and den > 0 and {*map(type, ints)} <= _INT


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _transpose_dot(a: Sequence[Sequence], y: Sequence[int], n: int) -> list:
    """A^T y, summing only the rows whose y_i is not 0."""
    out = [0] * n
    for row, yi in zip(a, y):
        if yi:
            out = [s + r * yi for s, r in zip(out, row)]
    return out


def verify_certificates(problem: LpProblem, sol: LpSolution) -> bool:
    """Re-check every optimality/unboundedness invariant from scratch.

    The checks run on the record's integer numerators: the primal is
    x = X/dx, the dual y = Y/dy and the value vn/vd.  So ``A x <= b`` reads
    ``A X <= b dx``, c.x = value reads ``c.X vd = vn dx``, and a ray needs
    no denominator at all.  A numerator that is not an int, a denominator
    that is not an int > 0, or a value that is not an int or a Fraction
    fails the check.
    """
    a, b, c = problem.a, problem.b, problem.c
    m, n = len(b), len(c)
    x, dx = sol.x, sol.d
    if not _exact(x, dx) or len(x) != n or any(xj < 0 for xj in x):
        return False
    if any(_dot(row, x) > bi * dx for row, bi in zip(a, b)):
        return False
    if sol.status == "optimal":
        y, dy, value = sol.y, sol.dy, sol.value
        if not _exact(y, dy) or type(value) not in (int, Fraction):
            return False
        if len(y) != m or any(yi < 0 for yi in y):
            return False
        if any(s < cj * dy for s, cj in zip(_transpose_dot(a, y, n), c)):
            return False
        vn, vd = value.numerator, value.denominator
        return _dot(c, x) * vd == vn * dx and _dot(b, y) * vd == vn * dy
    if sol.status == "unbounded":
        r = sol.r
        if not _exact(r, dx) or len(r) != n or any(rj < 0 for rj in r):
            return False
        if any(_dot(row, r) > 0 for row in a):
            return False
        return _dot(c, r) > 0
    return False


def unique_optimum(problem: LpProblem, sol: LpSolution) -> bool:
    """Whether the optimal face is the single point sol.primal.

    ``sol`` must be an optimal vertex with a dual that verify_certificates
    accepts, else ValueError.  On the face, a variable (x_j or slack
    s_i = b_i - a_i.x) with positive reduced cost stays 0 (Mangasarian 1979);
    so the optimum is unique iff the set Z of variables that are 0 at the
    vertex with zero reduced cost stays 0: Z empty needs no LP, otherwise one
    LP maximizes the sum over Z on the face.  Tight rows and zero reduced
    costs are read on the numerators x = X/dx and y = Y/dy.
    """
    if sol.status != "optimal" or not verify_certificates(problem, sol):
        raise ValueError("uniqueness needs an optimal solution with a valid dual")
    a, b, c = problem.a, problem.b, problem.c
    n = len(c)
    x, dx, y, dy = sol.x, sol.d, sol.y, sol.dy
    tight = [_dot(row, x) == bi * dx for row, bi in zip(a, b)]
    # with the unit rows of x's zeros, rank n iff full rank on x's support
    support = [j for j in range(n) if x[j]]
    on_support = [[row[j] for j in support] for row, t in zip(a, tight) if t]
    if matrix_rank(on_support) != len(support):
        raise ValueError("uniqueness is decided at a vertex only")
    # reduced costs: (A^T y)_j - c_j for x_j, y_i for s_i
    aty = _transpose_dot(a, y, n)
    z_x = {j for j in range(n) if x[j] == 0 and aty[j] == c[j] * dy}
    z_s = [row for row, t, yi in zip(a, tight, y) if t and yi == 0]
    if not z_x and not z_s:
        return True
    # the sum over Z is obj.x plus a constant, since s_i = b_i - a_i.x
    obj = [int(j in z_x) - sum(row[j] for row in z_s) for j in range(n)]
    # the face row c.x >= vn/vd as ints: -vd c.x <= -vn
    vn, vd = sol.value.numerator, sol.value.denominator
    face_a = [*a, [-vd * cj for cj in c]]
    face_b = [*b, -vn]
    best = solve_max(LpProblem.make(face_a, face_b, obj))
    return best.status == "optimal" and best.value * dx == _dot(obj, x)


def _gauss_jordan(rows: list[list[int]], count: int) -> tuple[list[int], list[int], int]:
    """Bareiss's fraction-free Gauss-Jordan (1968) over the first ``count``
    columns of int ``rows``, in place, by ``_exchange`` steps on the rows as
    a condensed tableau whose basis is one unit column per row: each column
    pivots on the first row not yet pivoted with a non-zero entry there, and
    then holds the column of that row's unit vector.  Returns the pivot
    columns, their rows and the last pivot d (1 if none), the denominator."""
    free = list(range(len(rows)))
    cols: list[int] = []
    pivot_rows: list[int] = []
    d = 1
    for c in range(count):
        if not free:
            break
        r = next((i for i in free if rows[i][c]), None)
        if r is None:
            continue
        d = _exchange(rows, r, c, d)
        free.remove(r)
        cols.append(c)
        pivot_rows.append(r)
    return cols, pivot_rows, d


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix of ints over the rationals: the number of pivots of
    ``_gauss_jordan``.  ValueError names the first entry that is not an int,
    as for ``LpProblem``, and rejects rows of different lengths.
    """
    work = [[*row] for row in rows]  # a copy: _gauss_jordan pivots in place
    _check_ints([x for row in work for x in row])
    if len({len(row) for row in work}) > 1:
        raise ValueError("matrix rows have different lengths")
    return len(_gauss_jordan(work, len(work[0]) if work else 0)[0])


@dataclass(frozen=True)
class SpanBasis:
    """A basis B of the span of some vectors, taken greedily in their order,
    as ints over one denominator ``den > 0``.

    ``indices`` names the vectors of B's rows.  ``inverse`` has one row per
    coordinate: for v in the span, sum_j v_j inverse[j] / den is v's
    coordinates in the basis, and with P the matrix whose column j is
    inverse[j] / den, y = P^T u gives B y = u.  ``coords`` holds the
    coordinates of every other vector, in order, over the same den.
    """

    indices: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, ...], ...]
    den: int


def span_basis(vectors: Sequence[Sequence[int]], dim: int) -> SpanBasis:
    """The basis of the span of ``vectors`` (each with ``dim`` int entries).

    ``_gauss_jordan`` on V^T: its pivot columns are the greedy choice, and
    pivot row k ends as d times the k-th coordinate of every vector.  The
    pivot columns then hold the unit vectors' columns, so d times row k of P
    is pivot row k's entry in the column of e_j (0 for a row never pivoted).
    den is the least that makes them all ints.  ValueError as ``matrix_rank``.
    """
    count = len(vectors)
    if any(len(v) != dim for v in vectors):
        raise ValueError(f"vectors must have {dim} entries")
    flat = [x for v in vectors for x in v]
    _check_ints(flat)
    rows = [flat[i::dim] for i in range(dim)]
    basis, pivot_rows, d = _gauss_jordan(rows, count)
    picked = set(basis)
    others = [c for c in range(count) if c not in picked]
    ordered = [rows[r] for r in pivot_rows]
    at = dict(zip(pivot_rows, basis))  # e_j's column, for each pivot row j
    p = [[row[at[j]] if j in at else 0 for j in range(dim)] for row in ordered]
    g = gcd(d, *[x for row in p for x in row], *[row[c] for row in ordered for c in others])
    inverse = tuple([tuple([row[j] // g for row in p]) for j in range(dim)])
    coords = tuple([tuple([row[c] // g for row in ordered]) for c in others])
    return SpanBasis(tuple(basis), inverse, coords, d // g)


def positive_dependence(
    vectors: Sequence[Sequence[int]], basis: SpanBasis | None = None
) -> tuple[tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """``(lam, None)`` with lam >= 1 and sum_k lam_k vectors[k] = 0, or
    ``(None, y)`` with <v_k, y> >= 0 for every k and s.y = 1.

    By Stiemke's lemma exactly one of the two exists, where s = sum_k v_k.
    ``basis`` is the ``span_basis`` of a prefix of ``vectors`` (None: of
    all of them); the vectors past the prefix need a basis of Q^dim, and
    a vector v there has coordinates sum_j v_j inverse[j] over den.
    In the coordinates u = B y (Davis 1954) the basis vectors' condition is
    u >= 0, so one LP over the basis's columns decides: max s.u subject to
    W.u >= 0 for each vector off the basis, with W its coordinates, and
    s.u <= 1.  Its rows are the numerators over den, and b >= 0 needs no
    phase 1.  At 1 its primal gives y = den P^T u; at 0 its dual mu gives
    lam_W = mu_W + 1 off the basis, and on it lam = -sum_W lam_W W >= 1.
    ValueError when the prefix is longer than ``vectors``, when vectors pass
    a basis that does not span Q^dim, or as ``matrix_rank`` for an entry past
    the prefix.
    """
    sol, a, basis = _dependence_lp(vectors, basis)
    if sol.value:
        y, scale = _separator_numerators(sol, basis)
        return None, tuple([Fraction(x, scale) for x in y])
    mu, scale = sol.y, sol.dy
    off = [x + scale for x in mu[:-1]]
    on = [Fraction(sum(map(mul, col, off)), scale * basis.den) for col in zip(*a)]
    picked = dict(zip(basis.indices, on))
    rest = iter([Fraction(x, scale) for x in off])
    prefix = len(basis.indices) + len(basis.coords)
    lam = [picked[k] if k in picked else next(rest) for k in range(prefix)]
    lam.extend(rest)
    return tuple(lam), None


def _dependence_lp(
    vectors: Sequence[Sequence[int]], basis: SpanBasis | None
) -> tuple[LpSolution, list[Sequence[int]], SpanBasis]:
    """The solved LP of ``positive_dependence``, its rows -W and the basis."""
    if basis is None:
        basis = span_basis(vectors, len(vectors[0]) if vectors else 0)
    inverse, den, rank = basis.inverse, basis.den, len(basis.indices)
    dim, prefix = len(inverse), rank + len(basis.coords)
    if len(vectors) < prefix:
        raise ValueError(f"the basis covers {prefix} vectors, not {len(vectors)}")
    extra = vectors[prefix:]
    if extra and rank < dim:
        raise ValueError(f"a basis of rank {rank} < {dim} gives no coordinates past it")
    _check_ints([x for v in extra for x in v])  # a -e_j below skips the LP's own gate
    # one row -W (over den) per vector off the basis; past the prefix W = sum_j v_j inverse[j]
    a = [[-x for x in w] for w in basis.coords]
    for v in extra:
        if len(v) != dim:
            raise ValueError(f"vectors must have {dim} entries")
        if v.count(0) == dim - 1 and -1 in v:  # -e_j: its row is inverse[j] as it stands
            a.append(inverse[v.index(-1)])
            continue
        row = [0] * rank
        for j, x in enumerate(v):
            if x:
                row = [t - x * e for t, e in zip(row, inverse[j])]
        a.append(row)
    # s is den (the basis vectors' u_k) plus the sum of the W
    s = [den - t for t in map(sum, zip(*a))] if a else [den] * rank
    return solve_max(LpProblem.make([*a, s], [0] * len(a) + [1], s)), a, basis


def _separator_numerators(sol: LpSolution, basis: SpanBasis) -> tuple[list[int], int]:
    """``(Y, scale)`` with y = Y/scale, scale > 0, the y of a dependence LP
    solved at value 1: y = den P^T u, read on u's numerators."""
    return [sum(map(mul, row, sol.x)) for row in basis.inverse], sol.d


def separator(
    vectors: Sequence[Sequence[int]], basis: SpanBasis | None = None
) -> list[int] | None:
    """None when ``positive_dependence(vectors, basis)`` finds lam, read off
    the value of the same LP; else the numerators of its y over a positive
    denominator, so their signs are y's.  No Fraction is built."""
    sol, _, basis = _dependence_lp(vectors, basis)
    return _separator_numerators(sol, basis)[0] if sol.value else None

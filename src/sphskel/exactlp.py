"""Exact rational linear programming with certificates.

Canonical form: maximize c.x subject to A x <= b, x >= 0, every entry an
``int`` or a ``fractions.Fraction``.  The solver is a two-phase primal
simplex with Bland's rule (entering: smallest label with negative reduced
cost; leaving: smallest basic label among the minimum ratios), so it
terminates and every run is deterministic.  Optimal solutions carry the
exact dual vector read off the slack columns; unbounded ones carry an
improving ray.

The tableau holds Python ints only (Edmonds 1967, Bareiss 1968): each row
of ``[A | b]`` and c is scaled by the lcm of its denominators, which scales
only its slack, so Bland's path and the pivot count are those of the
rational tableau.  It is condensed (Tucker 1960): a basic column is d e_i,
d the common denominator, so only the nonbasic columns are kept, each under
its variable's label, and one exchange step swaps the entering column for
the leaving one.  Each entry is the full tableau's, int for int.  A pivot
p with |p| = d (nearly every pivot of the skeleton LPs) turns the step
``(x * p - f * q) // d`` into ``x - f * q // d``: only the pivot row's
non-zero columns change, so only those are updated.  A solve keeps the
primal, the dual and the ray as the integer numerators of its final tableau
(x = X/dx, y = Y/dy, a ray R) and builds their Fractions only when a caller
reads them; the certificate checks run on the numerators.  Only a caller's
own LPs and the face LP of ``unique_optimum`` can reach phase 1: the
skeleton LP and ``positive_dependence``'s one LP over a basis of the span
both have b >= 0.
The rank and that basis share one Gauss-Jordan loop of the same step.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

_ZERO = Fraction(0)


class LpInfeasibleError(ValueError):
    """The feasible region {x >= 0 : Ax <= b} is empty."""


_EXACT = {int, Fraction}
_INT = {int}


def _integer_row(v) -> tuple[Sequence[int], int]:
    """``(L*v, L)`` for the least L > 0 that makes every entry an int (v itself
    if all are); the one exact-entry gate, ValueError names the first entry
    not an int or a Fraction (Fraction(0.1) is not 1/10, True would read as 1)."""
    types = {*map(type, v)}
    if types <= _INT:
        return v, 1
    if not types <= _EXACT:
        bad = next(x for x in v if type(x) not in _EXACT)
        raise ValueError(f"entries must be int or Fraction, not {bad!r}")
    pairs = [x.as_integer_ratio() for x in v]
    # star-args from a list, not a generator: tuple() of a generator resizes
    # its result, and CPython's tuple free lists then keep up to 2000 stranded
    # tuples of each small size, so peak memory grew with every LP solved
    scale = lcm(*[q for _, q in pairs])
    return [p * (scale // q) for p, q in pairs], scale


@dataclass(frozen=True)
class LpProblem:
    """max c.x  s.t.  a x <= b,  x >= 0.

    Every entry must be an ``int`` or a ``Fraction`` (ValueError otherwise),
    however the problem is built; ``make`` keeps them as given, so an
    integral LP is solved without building a single ``Fraction``.  Each row of
    ``[a | b]``, then c, passes the gate once; ``scaled`` keeps the output,
    ``(L_i [a_i | b_i], L_i)`` per row and ``(L_c c, L_c)``, for the tableau.
    """

    a: tuple[tuple[int | Fraction, ...], ...]
    b: tuple[int | Fraction, ...]
    c: tuple[int | Fraction, ...]
    scaled: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("row count of A does not match b")
        for row in self.a:
            if len(row) != len(self.c):
                raise ValueError("column count of A does not match c")
        rows = [_integer_row((*row, bi)) for row, bi in zip(self.a, self.b)]
        object.__setattr__(self, "scaled", (*rows, _integer_row(self.c)))

    @staticmethod
    def make(a, b, c) -> "LpProblem":
        # tuples from lists, not generators (see _integer_row)
        return LpProblem(a=tuple([tuple(row) for row in a]), b=tuple(b), c=tuple(c))

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return len(self.c)


class _Numerators:
    """A vector ``ints / den`` (den > 0, not always the least) as a solve's
    tableau holds it; ``fractions`` builds its Fractions on the first call."""

    __slots__ = ("ints", "den", "_built")

    def __init__(self, ints: Sequence[int], den: int):
        self.ints, self.den, self._built = ints, den, None

    def fractions(self) -> tuple[Fraction, ...]:
        if self._built is None:
            den = self.den
            self._built = tuple([Fraction(v, den) if v else _ZERO for v in self.ints])
        return self._built


class _Vector:
    """A vector field of ``LpSolution``, stored under ``"_" + name``; it
    reads as a tuple of Fractions or None.  A solve stores ``_Numerators``,
    whose Fractions are built on the first read; anything else is kept as
    given.  Assigning the field drops the solve's numerators, so no check
    reads stale ones."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name: str):
        self.slot = "_" + name

    def __get__(self, sol, owner=None):
        if sol is None:  # the dataclass reads the default here
            if self.default is MISSING:
                raise AttributeError(self.slot[1:])
            return self.default
        v = sol.__dict__[self.slot]
        return v.fractions() if type(v) is _Numerators else v

    def __set__(self, sol, v) -> None:
        sol.__dict__[self.slot] = v


@dataclass
class LpSolution:
    """An optimum (primal, value, dual) or an unbounded LP (primal, ray), and
    the pivots of the solve.  ``solve_max`` keeps primal, dual and ray as the
    integer numerators of its final tableau and builds their Fractions only
    when a caller reads them; ``value`` is built at once."""

    status: str  # "optimal" | "unbounded"
    primal: tuple[Fraction, ...] = _Vector()
    value: Fraction | None = None
    dual: tuple[Fraction, ...] | None = _Vector(None)
    ray: tuple[Fraction, ...] | None = _Vector(None)
    pivots: int = 0


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
    are ``d * B^-1 [LA | I | Lb]`` restricted to the nonbasic columns and the
    rhs, since a basic column is d e_i (Tucker 1960).  ``problem.scaled``
    gives row i of A and b scaled by L_i, the lcm of its denominators, and
    L_c c; the tableau never gates an entry again.  x keeps the problem's
    units, slack i is s'_i = L_i s_i, and the aux column holds -L_i, the
    image of -1.  ``z`` is d times the objective row for ``L_c c`` on the
    same columns, value last.  A pivot is one ``_exchange`` step: d stays
    the absolute basis determinant, and every entry equals the full
    tableau's, so Bland's rule on labels takes the full tableau's path.
    The one ``Fraction`` a solve builds is the value, in ``obj``;
    ``primal_point``, ``dual`` and ``ray`` return numerators, and
    ``LpSolution`` builds their Fractions when a caller reads them.
    """

    def __init__(self, problem: LpProblem):
        m, n = problem.m, problem.n
        self.m, self.n = m, n
        *rows, (self.cost, self.cost_scale) = problem.scaled
        self.rows: list[list[int]] = [[*scaled] for scaled, _ in rows]
        self.row_scale = [scale for _, scale in rows]
        self.b = problem.b
        self.basis = [n + i for i in range(m)]
        self.nonbasic = list(range(n))
        self.d = 1
        self.z: list[int] = []
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
        """One-artificial-variable phase 1; raises LpInfeasibleError."""
        aux = self.n + self.m
        for row, scale in zip(self.rows, self.row_scale):
            row.insert(-1, -scale)
        self.nonbasic.append(aux)
        # the worst row on the unscaled b, so the path is the unscaled one
        worst = min(range(self.m), key=lambda i: (self.b[i], self.basis[i]))
        c = [0] * (aux + 1)
        c[aux] = -1
        self.set_objective(c)
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

    @cached_property
    def obj(self) -> tuple:
        """The dual numerators Y over ``d * cost_scale`` (in the units of the
        unscaled slacks s_i; 0 for a basic slack), then the value as a
        Fraction; read it only once the solve is over."""
        n, z = self.n, self.z
        obj = [0] * self.m
        for k, x in zip(self.nonbasic, z):
            if k >= n and x:
                obj[k - n] = self.row_scale[k - n] * x
        obj.append(Fraction(z[-1], self.d * self.cost_scale))
        return tuple(obj)

    def dual(self) -> _Numerators:
        return _Numerators(self.obj[:-1], self.d * self.cost_scale)

    def primal_point(self) -> _Numerators:
        x = [0] * self.n
        for i, k in enumerate(self.basis):
            if k < self.n:
                x[k] = self.rows[i][-1]
        return _Numerators(x, self.d)

    def ray(self, col: int) -> _Numerators:
        """The improving ray on x when column ``col`` enters unbounded: a
        slack s'_k = L_k s_k enters at L_k per unit of s_k."""
        n, e = self.n, self.nonbasic[col]
        scale = self.row_scale[e - n] if e >= n else 1
        ray = [0] * n
        if e < n:
            ray[e] = self.d
        for i, k in enumerate(self.basis):
            if k < n:
                ray[k] = -self.rows[i][col] * scale
        return _Numerators(ray, self.d)


def solve_max(problem: LpProblem) -> LpSolution:
    """Solve max c.x, Ax <= b, x >= 0 exactly; Infeasible is an error."""
    simplex = _Simplex(problem)
    if any(bi < 0 for bi in problem.b):
        simplex.phase1()
    simplex.set_objective([*simplex.cost, *[0] * problem.m])
    unbounded_col = simplex.run()
    if unbounded_col is not None:
        return LpSolution(
            status="unbounded",
            primal=simplex.primal_point(),
            ray=simplex.ray(unbounded_col),
            pivots=simplex.pivots,
        )
    # the duals are the slacks' reduced costs (slack i has label n+i; 0 when basic)
    return LpSolution(
        status="optimal",
        primal=simplex.primal_point(),
        value=simplex.obj[-1],
        dual=simplex.dual(),
        pivots=simplex.pivots,
    )


def _read_numerators(sol: LpSolution, name: str) -> tuple[Sequence[int], int] | None:
    """``(V, dv)`` with V/dv the field ``name`` of ``sol`` as a caller reads
    it: a solve's own numerators, or ``_integer_row`` of what a caller
    assigned; None for a missing or inexact vector."""
    v = sol.__dict__["_" + name]
    if type(v) is _Numerators:
        return v.ints, v.den
    if v is None:
        return None
    try:
        return _integer_row(v)
    except ValueError:
        return None


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

    The checks run on integer numerators: the primal is x = X/dx, the dual
    y = Y/dy and the value vn/vd, over the solve's own denominators or, for
    a vector a caller assigned, its least one.  So ``A x <= b`` reads
    ``A X <= b dx``, c.x = value reads ``c.X vd = vn dx``, and a ray needs
    no denominator at all.  A vector or a value whose entries are not int
    or Fraction fails the check.
    """
    a, b, c, m, n = problem.a, problem.b, problem.c, problem.m, problem.n
    if (primal := _read_numerators(sol, "primal")) is None:
        return False
    x, dx = primal
    if len(x) != n or any(xj < 0 for xj in x):
        return False
    if any(_dot(row, x) > bi * dx for row, bi in zip(a, b)):
        return False
    if sol.status == "optimal":
        value = sol.value
        if (dual := _read_numerators(sol, "dual")) is None or type(value) not in _EXACT:
            return False
        y, dy = dual
        if len(y) != m or any(yi < 0 for yi in y):
            return False
        if any(s < cj * dy for s, cj in zip(_transpose_dot(a, y, n), c)):
            return False
        vn, vd = value.numerator, value.denominator
        return _dot(c, x) * vd == vn * dx and _dot(b, y) * vd == vn * dy
    if sol.status == "unbounded":
        if (ray := _read_numerators(sol, "ray")) is None:
            return False
        r = ray[0]
        if len(r) != n or any(rj < 0 for rj in r):
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
    a, b, c, n = problem.a, problem.b, problem.c, problem.n
    x, dx = _read_numerators(sol, "primal")
    y, dy = _read_numerators(sol, "dual")
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
    face_a = list(a) + [[-cj for cj in c]]
    # an integral optimum enters as an int, so the face LP of an int LP is one
    value = sol.value
    face_b = list(b) + [-value.numerator if value.denominator == 1 else -value]
    best = solve_max(LpProblem.make(face_a, face_b, obj))
    return best.status == "optimal" and best.value * dx == _dot(obj, x)


def _gauss_jordan(rows: list[list[int]], count: int) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) over the first ``count``
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


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of a matrix of ints and Fractions over the rationals.

    The number of pivots of ``_gauss_jordan`` on the rows scaled to ints.
    ValueError for an entry of another type or for rows of different lengths.
    """
    # a copy: an all-int row comes back from the gate as the caller's own
    work = [[*_integer_row(row)[0]] for row in rows]
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


def span_basis(vectors: Sequence[Sequence[int | Fraction]], dim: int) -> SpanBasis:
    """The basis of the span of ``vectors`` (each with ``dim`` entries).

    ``_gauss_jordan`` on V^T, scaled to ints by ``scale``: its pivot columns
    are the greedy choice, and pivot row k ends as d times the k-th
    coordinate of every vector.  The pivot columns then hold the unit
    vectors' columns, so d times row k of P is ``scale`` times pivot row k's
    entry in the column of e_j (0 for a row never pivoted).  den is the least
    that makes them all ints.  ValueError as ``matrix_rank``.
    """
    count = len(vectors)
    if any(len(v) != dim for v in vectors):
        raise ValueError(f"vectors must have {dim} entries")
    flat, scale = _integer_row([x for v in vectors for x in v])
    rows = [flat[i::dim] for i in range(dim)]
    basis, pivot_rows, d = _gauss_jordan(rows, count)
    picked = set(basis)
    others = [c for c in range(count) if c not in picked]
    ordered = [rows[r] for r in pivot_rows]
    at = dict(zip(pivot_rows, basis))  # e_j's column, for each pivot row j
    p = [[scale * row[at[j]] if j in at else 0 for j in range(dim)] for row in ordered]
    g = gcd(d, *[x for row in p for x in row], *[row[c] for row in ordered for c in others])
    inverse = tuple([tuple([row[j] // g for row in p]) for j in range(dim)])
    coords = tuple([tuple([row[c] // g for row in ordered]) for c in others])
    return SpanBasis(tuple(basis), inverse, coords, d // g)


def positive_dependence(
    vectors: Sequence[Sequence[int | Fraction]], basis: SpanBasis | None = None
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
    ValueError when the prefix is longer than ``vectors`` or vectors pass a
    basis that does not span Q^dim.
    """
    sol, a, basis = _dependence_lp(vectors, basis)
    inverse, den = basis.inverse, basis.den
    if sol.value:
        u, scale = _read_numerators(sol, "primal")
        u = [(k, x) for k, x in enumerate(u) if x]
        return None, tuple([Fraction(sum(row[k] * x for k, x in u), scale) for row in inverse])
    mu, scale = _read_numerators(sol, "dual")
    off = [x + scale for x in mu[:-1]]
    on = [Fraction(sum(map(mul, col, off)), scale * den) for col in zip(*a)]
    picked = dict(zip(basis.indices, on))
    rest = iter([Fraction(x, scale) for x in off])
    prefix = len(basis.indices) + len(basis.coords)
    lam = [picked[k] if k in picked else next(rest) for k in range(prefix)]
    lam.extend(rest)
    return tuple(lam), None


def _dependence_lp(
    vectors: Sequence[Sequence[int | Fraction]], basis: SpanBasis | None
) -> tuple[LpSolution, list[list[int]], SpanBasis]:
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
    # one row -W (over den) per vector off the basis; past the prefix W = sum_j v_j inverse[j]
    a = [[-x for x in w] for w in basis.coords]
    for v in extra:
        if len(v) != dim:
            raise ValueError(f"vectors must have {dim} entries")
        row = [0] * rank
        for j, x in enumerate(v):
            if x:
                row = [t - x * e for t, e in zip(row, inverse[j])]
        a.append(row)
    # s is den (the basis vectors' u_k) plus the sum of the W
    s = [den - t for t in map(sum, zip(*a))] if a else [den] * rank
    return solve_max(LpProblem.make([*a, s], [0] * len(a) + [1], s)), a, basis


def positively_dependent(
    vectors: Sequence[Sequence[int | Fraction]], basis: SpanBasis | None = None
) -> bool:
    """Whether ``positive_dependence(vectors, basis)`` finds lam, read off
    the value of the same LP alone (0: lam, 1: y); no witness is built."""
    return not _dependence_lp(vectors, basis)[0].value

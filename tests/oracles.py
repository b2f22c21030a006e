"""Independent brute-force oracles and reference data for the test suite.

Deliberately self-contained: these use their own Fraction elimination code
so they share nothing with the simplex path they are checking, and the
equality registry sits apart from the catalog whose expected relations it
checks.  Nothing here imports ``sphskel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

F = Fraction


def _solve_square(rows, rhs):
    """Solution of a square exact system, or None if singular."""
    n = len(rows)
    work = [[F(x) for x in row] + [F(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col] / work[col][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return tuple(work[i][n] / work[i][i] for i in range(n))


def oracle_rank(rows):
    """Rank by plain Gaussian elimination over Fractions."""
    if not rows:
        return 0
    work = [[F(x) for x in row] for row in rows]
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _nullspace_line(rows, dim):
    """A nonzero kernel vector when the matrix has rank dim-1, else None."""
    work = [[F(x) for x in row] for row in rows]
    pivots = []  # (row, col)
    rank = 0
    for col in range(dim):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        pivots.append((rank, col))
        rank += 1
    if rank != dim - 1:
        return None
    pivot_cols = {col for _, col in pivots}
    free = next(c for c in range(dim) if c not in pivot_cols)
    vec = [F(0)] * dim
    vec[free] = F(1)
    for row, col in pivots:
        vec[col] = -work[row][free] / work[row][col]
    return tuple(vec)


def oracle_positive_span(vectors, dim) -> bool:
    """Whether the vectors positively span Q^dim (hyperplane-normal search).

    The cone is everything iff the vectors span linearly and no hyperplane
    through the origin has them all on one side; candidate normals are the
    kernels of (dim-1)-subsets of the vectors.
    """
    if dim == 0:
        return True
    vectors = [tuple(F(x) for x in v) for v in vectors]
    if oracle_rank(vectors) != dim:
        return False
    for subset in combinations(range(len(vectors)), dim - 1):
        normal = _nullspace_line([vectors[i] for i in subset], dim)
        if normal is None:
            continue
        for sign in (1, -1):
            if all(
                sign * sum(a * b for a, b in zip(v, normal)) <= 0 for v in vectors
            ):
                return False
    return True


def oracle_solve(a, b, c):
    """('infeasible'|'unbounded'|'optimal', value) for max c.x, Ax<=b, x>=0.

    Enumerates all candidate basic points (n active constraints among the m
    rows and n sign bounds) and, when feasible, all candidate extreme rays
    of the recession cone.
    """
    m, n = len(b), len(c)
    a = [tuple(F(x) for x in row) for row in a]
    b = [F(x) for x in b]
    c = [F(x) for x in c]
    # constraint list: (row, rhs); sign bounds -x_j <= 0
    rows = list(a) + [tuple(-F(j == k) for k in range(n)) for j in range(n)]
    rhs = b + [F(0)] * n

    def feasible(x):
        return all(
            sum(r * v for r, v in zip(row, x)) <= bound
            for row, bound in zip(rows, rhs)
        )

    best = None
    found = False
    for active in combinations(range(m + n), n):
        point = _solve_square([rows[i] for i in active], [rhs[i] for i in active])
        if point is None or not feasible(point):
            continue
        found = True
        value = sum(ci * xi for ci, xi in zip(c, point))
        if best is None or value > best:
            best = value
    if not found:
        return "infeasible", None
    for active in combinations(range(m + n), n - 1):
        ray = _nullspace_line([rows[i] for i in active], n)
        if ray is None:
            continue
        for sign in (1, -1):
            d = tuple(sign * x for x in ray)
            if all(x >= 0 for x in d) and all(
                sum(r * v for r, v in zip(row, d)) <= 0 for row in a
            ):
                if sum(ci * di for ci, di in zip(c, d)) > 0:
                    return "unbounded", None
    return "optimal", best


def oracle_unique(a, b, c) -> bool:
    """Whether max c.x, Ax<=b, x>=0 (known to be optimal) has one maximizer.

    Maximizes and minimizes every coordinate over the optimal face (the
    region with -c.x <= -value added) with oracle_solve; the maximizer is
    unique iff every coordinate's two bounds agree.
    """
    _, value = oracle_solve(a, b, c)
    n = len(c)
    face_a = [list(row) for row in a] + [[-F(x) for x in c]]
    face_b = list(b) + [-value]
    for j in range(n):
        bounds = []
        for sign in (1, -1):
            objective = [sign * int(k == j) for k in range(n)]
            status, best = oracle_solve(face_a, face_b, objective)
            if status != "optimal":
                return False
            bounds.append(sign * best)
        if bounds[0] != bounds[1]:
            return False
    return True


def oracle_certificate_check(a, b, c, status, primal, value, dual, ray) -> bool:
    """Whether (primal, value, dual, ray) certifies max c.x, Ax<=b, x>=0.

    Plain Fraction arithmetic, term by term: an optimum needs x >= 0 with
    Ax <= b, y >= 0 with A^T y >= c, and c.x = b.y = value; an unbounded
    answer needs that x and a ray r >= 0 with Ar <= 0 and c.r > 0.
    """
    m, n = len(b), len(c)
    a = [[F(x) for x in row] for row in a]
    b = [F(x) for x in b]
    c = [F(x) for x in c]
    if primal is None or len(primal) != n:
        return False
    x = [F(v) for v in primal]
    if min(x, default=0) < 0:
        return False
    for i in range(m):
        if sum(a[i][j] * x[j] for j in range(n)) > b[i]:
            return False
    if status == "optimal":
        if dual is None or value is None or len(dual) != m:
            return False
        y = [F(v) for v in dual]
        if min(y, default=0) < 0:
            return False
        for j in range(n):
            if sum(a[i][j] * y[i] for i in range(m)) < c[j]:
                return False
        primal_value = sum(c[j] * x[j] for j in range(n))
        dual_value = sum(b[i] * y[i] for i in range(m))
        return primal_value == F(value) and dual_value == F(value)
    if status == "unbounded":
        if ray is None or len(ray) != n:
            return False
        r = [F(v) for v in ray]
        if min(r, default=0) < 0:
            return False
        for i in range(m):
            if sum(a[i][j] * r[j] for j in range(n)) > 0:
                return False
        return sum(c[j] * r[j] for j in range(n)) > 0
    return False


def oracle_positive_roots(cartan):
    """Every positive root of the system with Cartan matrix ``cartan``
    (``cartan[i][j] = <alpha_i^vee, alpha_j>``), by the closure algorithm:
    grow root strings upward from the simple roots.  beta + alpha_i is a root
    iff the alpha_i-string through beta reaches p > <alpha_i^vee, beta> steps
    down (Humphreys, Introduction to Lie Algebras, section 10)."""
    rank = len(cartan)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    simple = [tuple([1 if j == i else 0 for j in range(rank)]) for i in range(rank)]
    known = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for beta in level:
            for i, row in enumerate(rows):
                down = list(beta)
                p = 0
                while down[i]:
                    down[i] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                if p > sum(c * beta[j] for j, c in row):
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        level = nxt
    return list(known)


def oracle_positive_in_span(cartan, subset):
    """``(2rho_subset, |R+_subset|)`` from the closure run on the principal
    Cartan submatrix on ``subset`` alone, in the coordinates of ``cartan``."""
    idx = sorted(set(subset))
    roots = oracle_positive_roots([[cartan[i][j] for j in idx] for i in idx])
    total = [0] * len(cartan)
    for root in roots:
        for j, x in zip(idx, root):
            total[j] += x
    return tuple(total), len(roots)


@dataclass(frozen=True)
class EqualityEntry:
    """One bullet of the equality classification, with its module tag.

    ``list_l`` is the number of the matching spherical-module skeleton in
    the standard List L of spherical-module data.  An option of the case
    ``(family, sub_case)`` lies in this bullet exactly when its
    ``expected_relation`` is Equal.
    """

    bullet: int
    family: int
    sub_case: str
    description: str
    list_l: str


EQUALITY_REGISTRY: tuple[EqualityEntry, ...] = (
    EqualityEntry(0, 31, "", "support {gamma_1} or {gamma_{2p-1}}", "24"),
    EqualityEntry(1, 32, "", "p = 2, support {gamma_1}", "38 (n=2)"),
    EqualityEntry(2, 34, "", "support {gamma_1}", "16"),
    EqualityEntry(3, 35, "", "support {gamma}", "15"),
    EqualityEntry(4, 36, "", "support {gamma_2}", "38 (n>2)"),
    EqualityEntry(5, 38, "", "any support of cardinality 2", "20"),
    EqualityEntry(6, 41, "", "support {gamma}", "18"),
    EqualityEntry(7, 42, "p=0", "support {gamma_2}", "10"),
    EqualityEntry(8, 43, "p=q=r=0", "any support of cardinality 2", "35"),
    EqualityEntry(
        9, 43, "p!=0,q=r=0", "support {gamma_1,gamma_4} or {gamma_2,gamma_4}", "40"
    ),
    EqualityEntry(10, 43, "p,q!=0,r=0", "support {gamma_3,gamma_5}", "42"),
    EqualityEntry(11, 46, "p=5", "support {alpha'_1} or {alpha'_3}", "13"),
    EqualityEntry(12, 49, "", "support {alpha'_1} or {alpha'_p}", "28"),
)

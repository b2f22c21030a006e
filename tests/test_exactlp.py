import hashlib
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from oracles import (
    oracle_certificate_check,
    oracle_positive_span,
    oracle_rank,
    oracle_solve,
    oracle_unique,
)
from test_catalog import smallest_instances
from sphskel import catalog, cli, exactlp, mukai, skeleton as sk
from sphskel.exactlp import (
    LpInfeasibleError,
    LpProblem,
    LpSolution,
    matrix_rank,
    positive_dependence,
    solve_max,
    unique_optimum,
    verify_certificates,
)

F = Fraction


# after valid ints in a row, each must still be rejected by name: an LP
# entry is an int, so a Fraction is refused even when it is integral
BAD_ENTRIES = (True, 2.5, None, F(1, 2), F(2))


def test_zero_objective_is_zero():
    p = LpProblem.make([[1, 2], [0, 1]], [3, 2], [0, 0])
    sol = solve_max(p)
    assert sol.status == "optimal"
    assert sol.value == 0
    assert verify_certificates(p, sol)


def test_zero_column_unbounded_with_ray():
    p = LpProblem.make([[0]], [1], [1])
    sol = solve_max(p)
    assert sol.status == "unbounded"
    assert sol.ray == (F(1),)
    assert verify_certificates(p, sol)


def test_polygon_value_three():
    # expected value confirmed by the brute-force vertex oracle
    a, b, c = [[1, -1], [-1, 1], [1, 1]], [1, 1, 3], [1, 1]
    assert oracle_solve(a, b, c) == ("optimal", F(3))
    p = LpProblem.make(a, b, c)
    sol = solve_max(p)
    assert sol.status == "optimal" and sol.value == 3
    assert sum(sol.primal) == 3
    assert verify_certificates(p, sol)
    # the optimum is attained on the whole face x1 + x2 = 3
    assert not unique_optimum(p, sol)


def test_negative_rhs_phase1_and_duals():
    # x >= 1 encoded as -x <= -1, maximize -x
    p = LpProblem.make([[-1]], [-1], [-1])
    sol = solve_max(p)
    assert sol.status == "optimal"
    assert sol.value == -1 and sol.primal == (F(1),)
    assert verify_certificates(p, sol)


def test_infeasible_raises():
    p = LpProblem.make([[1]], [-1], [0])
    with pytest.raises(LpInfeasibleError):
        solve_max(p)


def test_degenerate_phase1_exit():
    # the duplicated row x <= 1 leaves the artificial variable basic at 0 when
    # phase 1 ends; it is pivoted out and every row keeps its dual entry
    p = LpProblem.make([[1], [-1], [1]], [1, -1, 1], [1])
    sol = solve_max(p)
    assert sol.status == "optimal"
    assert sol.value == 1 and sol.primal == (F(1),)
    assert len(sol.dual) == 3
    assert verify_certificates(p, sol)


def _common(*vectors):
    """The numerators of Fraction vectors over their least common denominator."""
    den = lcm(*[F(v).denominator for vec in vectors for v in vec])
    return [[int(F(v) * den) for v in vec] for vec in vectors], den


def _integral(v):
    """A rational vector scaled by the lcm of its denominators, as ints."""
    (ints,), _ = _common(v)
    return ints


def _moved(sol, field, v):
    """``sol`` as a new record whose Fraction vector ``field`` ("primal",
    "dual" or "ray") reads ``v``: the dual over its own dy, the primal and
    the ray over the d they share."""
    if field == "dual":
        (y,), dy = _common(v)
        return replace(sol, y=y, dy=dy)
    primal, ray = (v, sol.ray) if field == "primal" else (sol.primal, v)
    (x, r), d = _common(primal, ray or ())
    return replace(sol, x=x, r=None if ray is None else r, d=d)


def test_verify_rejects_tampering():
    # each tampered vector, value or status breaks exactly one check: value 2
    # has the dual face y1 + y2 = 1, y3 = 0, and the ray (1, 1, 0) is one of
    # many; a denominator must be an int > 0.  A record is frozen, so each
    # tampering is a new record
    bounded = LpProblem.make([[1, 1], [1, 1], [1, 0]], [2, 2, 1], [1, 1])
    unbounded = LpProblem.make([[1, -1, 1]], [1], [1, 0, 0])
    opt, unb = solve_max(bounded), solve_max(unbounded)
    assert opt.status == "optimal" and opt.value == 2
    assert unb.status == "unbounded" and unb.ray == (F(1), F(1), F(0))
    assert verify_certificates(bounded, opt) and verify_certificates(unbounded, unb)
    with pytest.raises(FrozenInstanceError):
        opt.y = None
    for tampered in (
        _moved(opt, "primal", opt.primal + (F(0),)),
        _moved(opt, "primal", (F(-1), F(3))),
        _moved(opt, "primal", (F(2), F(0))),  # x1 <= 1 fails
        replace(opt, y=None),
        _moved(opt, "dual", opt.dual + (F(0),)),
        _moved(opt, "dual", (F(2), F(-1), F(0))),
        _moved(opt, "dual", (F(0), F(0), F(2))),  # A^T y >= c fails on x2
        replace(opt, value=opt.value + 1),
        replace(opt, status="infeasible"),
        replace(opt, d=0),
        replace(opt, d=-opt.d),
        replace(opt, d=F(opt.d)),
        replace(opt, dy=0),
        replace(opt, dy=-opt.dy),
        replace(opt, dy=float(opt.dy)),
    ):
        assert not verify_certificates(bounded, tampered), tampered
    # all-zero records: only the denominator 0 is wrong with x = 0 and y = 0,
    # where every product reads 0; the optimum of this LP is 8, not 999
    corner = LpProblem.make([[1, 1], [1, 0]], [4, 3], [2, 2])
    assert solve_max(corner).value == 8
    zero = LpSolution("optimal", 0, 999, [0, 0], None, 0, (0, 0), 0)
    assert not verify_certificates(corner, zero)
    for tampered in (
        replace(unb, r=None),
        _moved(unb, "ray", (F(1), F(2), F(-1))),
        _moved(unb, "ray", (F(1), F(0), F(0))),  # A r <= 0 fails
        _moved(unb, "ray", (F(0), F(1), F(0))),  # c.r = 0
        replace(unb, status="infeasible"),
        replace(unb, d=0),
        replace(unb, d=-unb.d),
        replace(unb, d=F(unb.d)),
        LpSolution("unbounded", 0, None, [0, 0, 0], [0, 0, 0], 0, None, None),
        # x = 0 over d = 0 with the solver's own ray: only d is wrong
        replace(unb, x=[0, 0, 0], d=0),
    ):
        assert not verify_certificates(unbounded, tampered), tampered


def _certificate_lps(rng):
    """400 seeded int LPs: 300 with entries in -6..6, then 100 in -9..9."""
    for count, bound in ((300, 6), (100, 9)):
        for _ in range(count):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-bound, bound) for _ in range(m)]
            yield LpProblem.make(a, b, [rng.randint(-bound, bound) for _ in range(n)])


def _tamperings(sol, rng):
    """One entry of the primal, the dual and the ray, and the value, each
    moved by a seeded +-1/1, 1/2 or 1/3, as new records."""
    def moved(v):
        k = rng.randrange(len(v))
        step = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        return v[:k] + (v[k] + step,) + v[k + 1:]

    for field in ("primal", "dual", "ray"):
        if getattr(sol, field):
            yield _moved(sol, field, moved(getattr(sol, field)))
    if sol.value is not None:
        yield replace(sol, value=moved((sol.value,))[0])


def test_certificate_check_matches_fraction_oracle():
    # the integer-numerator check accepts every solve_max result and gives
    # a plain Fraction check's verdict on seeded tamperings, and uniqueness
    # is decided at every optimum
    rng = random.Random(2011)
    solved = accepted = rejected = unique = not_unique = 0
    for problem in _certificate_lps(rng):
        try:
            sol = solve_max(problem)
        except LpInfeasibleError:
            continue
        solved += 1
        for candidate in (sol, *_tamperings(sol, rng)):
            got = verify_certificates(problem, candidate)
            want = oracle_certificate_check(
                problem.a, problem.b, problem.c, candidate.status, candidate.primal,
                candidate.value, candidate.dual, candidate.ray,
            )
            assert got == want, (problem, candidate)
            if candidate is sol:
                assert got, (problem, sol)
            else:
                accepted += got
                rejected += not got
        if sol.status == "optimal":
            verdict = unique_optimum(problem, sol)
            unique += verdict
            not_unique += not verdict
    assert (solved, accepted, rejected) == (246, 96, 499)
    assert (unique, not_unique) == (94, 9)
    # a certificate must be exact: a float or a bool numerator, or a float
    # value, fails the check
    problem = LpProblem.make([[1, 1]], [2], [1, 1])
    sol = solve_max(problem)
    assert (sol.primal, sol.dual, sol.value) == ((2, 0), (1,), 2)
    assert (sol.x, sol.d, sol.y, sol.dy) == ([2, 0], 1, (1,), 1)
    for tampered in (replace(sol, x=[2.0, 0]), replace(sol, y=(True,)), replace(sol, value=2.0)):
        assert not verify_certificates(problem, tampered), tampered


@pytest.fixture
def solves(monkeypatch):
    """The problems handed to solve_max while the test runs."""
    seen = []
    real = exactlp.solve_max
    monkeypatch.setattr(exactlp, "solve_max", lambda p: seen.append(p) or real(p))
    return seen


def _uniqueness_lps(problem, solves):
    """unique_optimum at solve_max's optimum, with the LPs it solved."""
    sol = solve_max(problem)
    before = len(solves)
    return unique_optimum(problem, sol), len(solves) - before


def test_unique_optimum_vertex_vs_segment(solves):
    vertex = LpProblem.make([[-1, 1], [0, -2], [1, 0]], [4, 6, 1], [0, 1])
    sol = solve_max(vertex)
    assert sol.value == 5 and sol.primal == (F(1), F(5))
    assert _uniqueness_lps(vertex, solves) == (True, 0)
    segment = LpProblem.make([[1]], [1], [0])  # max 0 over [0, 1]
    sol = solve_max(segment)
    assert not unique_optimum(segment, sol)
    # max x1 s.t. x1 <= 1, x1 + x2 <= 1: degenerate vertex (1, 0), one LP
    corner = LpProblem.make([[1, 0], [1, 1]], [1, 1], [1, 0])
    assert _uniqueness_lps(corner, solves) == (True, 1)
    # max x1 + x2 s.t. x1 + x2 <= 1: the whole edge is optimal
    edge = LpProblem.make([[1, 1]], [1], [1, 1])
    assert _uniqueness_lps(edge, solves) == (False, 1)


def test_unique_optimum_unbounded_face():
    # max 0 over x >= 0: the optimal face is the whole ray
    p = LpProblem.make([[0]], [1], [0])
    sol = solve_max(p)
    assert not unique_optimum(p, sol)


def test_unique_optimum_rejects_non_vertex_and_bad_dual():
    # x = 1/2 is optimal for max 0 over [0, 1] but is no vertex
    segment = LpProblem.make([[1]], [1], [0])
    midpoint = LpSolution(status="optimal", pivots=0, value=F(0), x=[1], r=None, d=2, y=[0], dy=1)
    assert verify_certificates(segment, midpoint)
    with pytest.raises(ValueError):
        unique_optimum(segment, midpoint)
    corner = LpProblem.make([[1, 0], [1, 1]], [1, 1], [1, 0])
    sol = _moved(solve_max(corner), "dual", (F(2), F(0)))
    with pytest.raises(ValueError):
        unique_optimum(corner, sol)
    unbounded = LpProblem.make([[0]], [1], [1])
    with pytest.raises(ValueError):
        unique_optimum(unbounded, solve_max(unbounded))


def test_unique_optimum_matches_oracle():
    rng = random.Random(20240817)
    unique = not_unique = 0
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        if oracle_solve(a, b, c)[0] != "optimal":
            continue
        problem = LpProblem.make(a, b, c)
        got = unique_optimum(problem, solve_max(problem))
        assert got == oracle_unique(a, b, c), (a, b, c)
        unique += got
        not_unique += not got
    assert (unique, not_unique) == (81, 18)


def test_positive_dependence():
    # one vector per lam_k
    w, y = positive_dependence([[1], [-1]])
    assert y is None and all(x >= 1 for x in w) and w[0] - w[1] == 0
    assert positive_dependence([[1], [1]]) == (None, (F(1, 2),))
    assert positive_dependence([]) == ((), None)
    assert positive_dependence([[], []]) == ((1, 1), None)
    w, y = positive_dependence([[2, 0], [-1, 1], [-1, -1]])
    assert w is not None and y is None
    assert 2 * w[0] - w[1] - w[2] == 0 and w[1] == w[2]


def test_positive_dependence_matches_oracle():
    rng = random.Random(1915)
    found = none = full_rank = 0
    for _ in range(400):
        dim, k = rng.randint(1, 3), rng.randint(1, 6)
        vectors = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
        lam, y = positive_dependence(vectors)
        # Stiemke: exactly one of the two witnesses, re-checked by dot products
        assert (lam is None) != (y is None), vectors
        if lam is not None:
            assert len(lam) == k and all(x >= 1 for x in lam), vectors
            for i in range(dim):
                assert sum(x * v[i] for x, v in zip(lam, vectors)) == 0, vectors
        else:
            assert len(y) == dim, vectors
            assert all(sum(a * b for a, b in zip(v, y)) >= 0 for v in vectors), vectors
            s = [sum(col) for col in zip(*vectors)]
            assert sum(a * b for a, b in zip(s, y)) == 1, vectors
        if matrix_rank(vectors) == dim:
            # on a full-rank set, lam > 0 exists iff the cone is everything
            assert (lam is not None) == oracle_positive_span(vectors, dim), vectors
            full_rank += 1
        found += lam is not None
        none += lam is None
    assert (found, none, full_rank) == (136, 264, 312)


def _witness_ok(vectors, lam, y):
    """Stiemke's alternative, re-checked by dot products."""
    if lam is not None:
        return y is None and all(x >= 1 for x in lam) and all(
            sum(x * v for x, v in zip(lam, col)) == 0 for col in zip(*vectors)
        )
    s = [sum(col) for col in zip(*vectors)]
    return all(sum(a * b for a, b in zip(v, y)) >= 0 for v in vectors) and sum(
        a * b for a, b in zip(s, y)
    ) == 1


def test_span_basis_of_a_rank_deficient_set():
    rng = random.Random(1954)
    deficient = 0
    for _ in range(300):
        dim, k = rng.randint(0, 4), rng.randint(0, 6)
        vectors = [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]
                   for _ in range(k)]
        if vectors and rng.random() < 0.5:  # a dependent vector
            u, v = rng.choice(vectors), rng.choice(vectors)
            vectors.append([x - F(1, 3) * y for x, y in zip(u, v)])
        # each rational vector scaled to ints, which leaves the greedy choice
        rank = oracle_rank(vectors)
        vectors = [_integral(v) for v in vectors]
        basis = exactlp.span_basis(vectors, dim)
        assert len(basis.indices) == rank and basis.den > 0, vectors
        deficient += rank < dim
        rows = [vectors[i] for i in basis.indices]
        p = [[F(basis.inverse[j][k], basis.den) for j in range(dim)] for k in range(rank)]
        # P B^T = I, so y = P^T u gives B y = u
        for k in range(rank):
            assert [sum(map(mul, p[k], row)) for row in rows] == [int(i == k) for i in range(rank)]
        # each vector is the combination of the basis its coordinates name
        others = [v for i, v in enumerate(vectors) if i not in basis.indices]
        assert len(basis.coords) == len(others)
        for v, w in zip(others, basis.coords):
            assert [sum(F(x, basis.den) * row[j] for x, row in zip(w, rows))
                    for j in range(dim)] == v, vectors
            assert [sum(map(mul, p[k], v)) for k in range(rank)] == [F(x, basis.den) for x in w]
    assert deficient == 83  # of 300


def test_positive_dependence_past_a_basis():
    # the vectors past the basis's prefix enter through its inverse; the verdict
    # is the one over a basis of all of them, for a unit -e_j as for a vector
    # near one, such as (1, -2), which sums to -1, or (1, -1, -1), which has a -1;
    # separator reads the same LP and gives y's signs
    e2 = [[1, 0], [0, 1]]
    e3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [
        (e2, [[1, -2]], False),
        (e2, [[1, -2], [-2, 1]], True),
        (e2, [[-1, 0], [0, -1]], True),
        (e2, [[-1, 0], [0, -2]], True),
        (e3, [[1, -1, -1], [-2, 1, 1]], True),
        (e3, [[-1, 0, 0], [0, -1, 0]], False),
        ([[2, 1], [1, 1], [3, 2]], [[-1, 0], [0, -1]], True),
    ]
    for prefix, extra, dependent in cases:
        vectors = prefix + extra
        basis = exactlp.span_basis(prefix, len(prefix[0]))
        lam, y = positive_dependence(vectors, basis)
        assert (lam is not None) == dependent, vectors
        assert _witness_ok(vectors, lam, y), vectors
        assert (positive_dependence(vectors)[0] is not None) == dependent, vectors
        signs = exactlp.separator(vectors, basis)
        if dependent:
            assert signs is None, vectors
        else:
            assert [(x > 0) - (x < 0) for x in signs] == [(x > 0) - (x < 0) for x in y]


def test_positive_dependence_rejects_a_basis_that_does_not_fit():
    line = exactlp.span_basis([[1, 1], [-1, -1]], 2)
    assert positive_dependence([[1, 1], [-1, -1]], line) == ((1, 1), None)
    # past a basis of a line there are no coordinates to read
    with pytest.raises(ValueError, match="rank 1 < 2"):
        positive_dependence([[1, 1], [-1, -1], [-1, 0]], line)
    plane = exactlp.span_basis([[1, 0], [0, 1], [1, 1]], 2)
    # fewer vectors than the basis was built from
    with pytest.raises(ValueError, match="covers 3 vectors, not 2"):
        positive_dependence([[1, 0], [0, 1]], plane)
    with pytest.raises(ValueError, match="2 entries"):
        positive_dependence([[1, 0], [0, 1], [1, 1], [-1, 0, 0]], plane)
    # past the basis, a -e_j of floats would skip the LP's gate as a unit row
    for decide in (positive_dependence, exactlp.separator):
        with pytest.raises(ValueError, match=re.escape("not -1.0")):
            decide([[1, 0], [0, 1], [1, 1], [-1.0, 0.0]], plane)


def test_completeness_lps_start_feasible(solves):
    # the smallest instance of every family, with all its options and
    # certificates: no completeness LP needs phase 1
    for inst in smallest_instances():
        sk.is_complete(sk.SphericalSkeleton(inst.system, ()))
        for opt in inst.options:
            sk.is_complete(inst.support_skeleton(opt))
        for cert in inst.certificates:
            sk.find_certificate_multipliers(inst.system, cert.delta_prime, cert.sigma_prime)
    assert len(solves) == 152
    assert all(bi >= 0 for p in solves for bi in p.b)


def test_make_rejects_inexact_entries():
    # 0.1 would enter as 3602879701896397/36028797018963968, True as 1; the
    # dataclass itself checks, so building it directly is no way round
    for a, b, c in (
        ([[F(1, 2)]], [1], [1]),
        ([[1]], [F(2)], [1]),
        ([[1]], [1], [F(1, 10)]),
        ([[0.1]], [1], [1]),
        ([[1]], [1.0], [1]),
        ([[1]], [0.3], [1]),
        ([[1]], [1], [0.5]),
        ([[True]], [1], [1]),
        ([[1]], [False], [1]),
        ([[1]], [1], [True]),
    ):
        with pytest.raises(ValueError):
            LpProblem.make(a, b, c)
        with pytest.raises(ValueError):
            LpProblem(a=tuple(map(tuple, a)), b=tuple(b), c=tuple(c))
    # in a longer row, after valid ints and before a second bad entry: the
    # error names the first bad one, wherever the row sits
    for bad in BAD_ENTRIES:
        row = [1, -2, 3, bad, "second"]
        for a, b, c in (
            ([row], [1], [1] * 5),
            ([[1]] * 5, row, [1]),
            ([[1] * 5], [1], row),
        ):
            for build in (LpProblem.make, _direct):
                with pytest.raises(ValueError, match=re.escape(f"not {bad!r}")):
                    build(a, b, c)
    with pytest.raises(ValueError):
        LpProblem(a=((1, 2),), b=(1,), c=(1,))
    with pytest.raises(ValueError, match=re.escape("not Fraction(1, 2)")):
        LpProblem.make([[F(1, 2)]], [1], [1])


def _direct(a, b, c):
    return LpProblem(a=tuple(map(tuple, a)), b=tuple(b), c=tuple(c))


def test_degenerate_shapes():
    # no rows, no columns, or an empty row: the start reads b and c alone
    for args, want in (
        (([], [], [1]), LpSolution("unbounded", 0, None, [0], [1], 1, None, None)),
        (([], [], []), LpSolution("optimal", 0, F(0), [], None, 1, (), 1)),
        (([[]], [1], []), LpSolution("optimal", 0, F(0), [], None, 1, (0,), 1)),
        (([[0]], [0], [1]), LpSolution("unbounded", 0, None, [0], [1], 1, None, None)),
    ):
        problem = LpProblem.make(*args)
        sol = solve_max(problem)
        assert sol == want and verify_certificates(problem, sol), args
    with pytest.raises(LpInfeasibleError):
        solve_max(LpProblem.make([[]], [-1], []))


def _types(sol):
    """The type of each field of a record, and of each entry of a vector."""
    return [
        (type(v), None if v is None or not isinstance(v, (list, tuple)) else [*map(type, v)])
        for v in (getattr(sol, f.name) for f in fields(sol))
    ]


def test_optimal_start_record_is_the_tableaus():
    # at b >= 0 and c <= 0 the slack basis is optimal, and solve_max answers
    # without a tableau: its record must be the one a tableau reads at that
    # basis, field for field and type for type
    rng = random.Random(1960)
    shapes = [([], [], []), ([[]], [1], []), ([[0]], [0], [0]), ([], [], [0, -1])]
    problems = [LpProblem.make(*args) for args in shapes]
    for _ in range(120):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        problems.append(LpProblem.make(a, [rng.randint(0, 5) for _ in range(m)],
                                       [rng.randint(-4, 0) for _ in range(n)]))
    for problem in problems:
        simplex = exactlp._Simplex(problem)
        assert simplex.run() is None
        simplex.read_obj()
        obj, d = simplex.obj, simplex.d
        want = LpSolution("optimal", simplex.pivots, obj[-1], simplex.primal_point(), None, d,
                          obj[:-1], d)
        sol = solve_max(problem)
        assert sol == want and _types(sol) == _types(want), problem
        assert verify_certificates(problem, sol)
        assert unique_optimum(problem, sol) == unique_optimum(problem, want)


def _ints(v):
    return "-" if v is None else " ".join(map(str, v))


def _raw_records(monkeypatch, run):
    """The count of solve_max's records while ``run()`` runs, their pivot
    total and a digest of every field as it is kept (the numerators over d
    and dy, not their Fractions)."""
    records, pivots = [], 0
    real = exactlp.solve_max

    def solve(problem):
        nonlocal pivots
        try:
            sol = real(problem)
        except LpInfeasibleError:
            records.append("infeasible")
            raise
        pivots += sol.pivots
        records.append("|".join((
            sol.status, str(sol.pivots), repr(sol.value), _ints(sol.x), _ints(sol.r),
            repr(sol.d), _ints(sol.y), repr(sol.dy),
        )))
        return sol

    monkeypatch.setattr(exactlp, "solve_max", solve)
    run()
    monkeypatch.undo()
    return len(records), pivots, hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_catalog_lp_records_pinned(monkeypatch):
    # every LP of a default verify pass and of the default supports pass, each
    # record pinned raw: a d or a dy that moves with the same Fractions shows
    instances = catalog.sweep_instances()
    verify = _raw_records(monkeypatch, lambda: [
        cli.evaluate_option(inst, opt) for inst in instances for opt in inst.options
    ])
    supports = _raw_records(monkeypatch, lambda: [
        mukai.enumerate_minimal_complete_supports(inst.system) for inst in instances
    ])
    assert verify == (
        1154, 1956, "cf7dfce7ae637b270e86f094251562186295b5b0ef35c52225bf3a33af691c4b"
    )
    assert supports == (
        1059, 1819, "a5c5c1c66c39cdac2095125a8ca30de5c27ea303c7e097836405b1377018cd50"
    )


def test_row_scaling_invariance():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        base = solve_max(LpProblem.make(a, b, c))
        k = rng.randint(0, m - 1)
        scale = rng.randint(2, 5)
        a2 = [list(row) for row in a]
        a2[k] = [scale * x for x in a2[k]]
        b2 = list(b)
        b2[k] = scale * b2[k]
        scaled = solve_max(LpProblem.make(a2, b2, c))
        # the same Bland path: scaling a row by an int only scales its slack
        assert scaled.status == base.status
        assert scaled.primal == base.primal and scaled.ray == base.ray
        assert scaled.pivots == base.pivots
        if base.status == "optimal":
            assert scaled.value == base.value
            want = [y / scale if i == k else y for i, y in enumerate(base.dual)]
            assert list(scaled.dual) == want


def test_deterministic_pivoting():
    p = LpProblem.make([[1, -1], [-1, 1], [1, 1]], [1, 1, 3], [1, 1])
    first = solve_max(p)
    second = solve_max(p)
    assert first.primal == second.primal
    assert first.pivots == second.pivots


@pytest.fixture
def branches(monkeypatch):
    """How many exchange steps had |p| = d (True) or not (False)."""
    counts = {True: 0, False: 0}
    real = exactlp._exchange

    def step(rows, r, c, d):
        counts[abs(rows[r][c]) == d] += 1
        return real(rows, r, c, d)

    monkeypatch.setattr(exactlp, "_exchange", step)
    return counts


def test_random_instances_match_oracle(branches):
    # the acceptance suite runs >= 1000; keep a fast slice here
    rng = random.Random(20240817)
    optimal = unbounded = infeasible = 0
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        status, value = oracle_solve(a, b, c)
        problem = LpProblem.make(a, b, c)
        if status == "infeasible":
            infeasible += 1
            with pytest.raises(LpInfeasibleError):
                solve_max(problem)
            continue
        sol = solve_max(problem)
        assert sol.status == status
        assert verify_certificates(problem, sol)
        if status == "optimal":
            optimal += 1
            assert sol.value == value
            primal_value = sum(ci * xi for ci, xi in zip(problem.c, sol.primal))
            dual_value = sum(bi * yi for bi, yi in zip(problem.b, sol.dual))
            assert primal_value == dual_value == sol.value
        else:
            unbounded += 1
    assert optimal and unbounded and infeasible
    assert branches[True] and branches[False]


def _pivot_path_lps(seed, count):
    """Seeded LPs with entries over the denominators 1, 2, 3, 4, 6, b of both
    signs, and up to two duplicated or negated rows."""
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))

    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[entry() for _ in range(n)] for _ in range(m)]
        b = [entry() for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            k, sign = rng.randrange(len(a)), rng.choice((1, -1))
            a.append([sign * x for x in a[k]])
            b.append(sign * b[k])
        yield a, b, [entry() for _ in range(n)]


def _outcome(problem):
    """status, value, primal, dual, ray and pivots as fraction strings."""
    try:
        sol = solve_max(problem)
    except LpInfeasibleError:
        return "infeasible"
    vectors = ("-" if v is None else " ".join(map(str, v))
               for v in (sol.primal, sol.dual, sol.ray))
    return "|".join((sol.status, str(sol.value), *vectors, str(sol.pivots)))


def test_pivot_path_pinned():
    # every field of 1000 solves of rational LPs, each row of [A | b] and c
    # scaled to ints by the lcm of its denominators, pinned
    outcomes = []
    for a, b, c in _pivot_path_lps(1967, 1000):
        rows = [_integral([*row, bi]) for row, bi in zip(a, b)]
        problem = LpProblem.make([row[:-1] for row in rows], [row[-1] for row in rows],
                                 _integral(c))
        outcomes.append(_outcome(problem))
    statuses = [o.partition("|")[0] for o in outcomes]
    counts = {s: statuses.count(s) for s in ("infeasible", "optimal", "unbounded")}
    assert counts == {"infeasible": 396, "optimal": 298, "unbounded": 306}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "b20cc0d031918e0de997f402e87d9015b83e597a38879fed806dd8aeb816ba4c"


def _dense_lps(seed, count):
    """Seeded dense LPs of the size of the benchmark's: n and m in 4..12, A
    and c in -9..9, and b = A x0 plus -3..3 with x0 in 0..1, so some need
    phase 1 and some are infeasible."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(4, 12), rng.randint(4, 12)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(0, 1) for _ in range(n)]
        b = [sum(map(mul, row, x0)) + rng.randint(-3, 3) for row in a]
        yield a, b, [rng.randint(-9, 9) for _ in range(n)]


def test_dense_pivot_path_pinned(branches):
    # every field of 200 larger solves, where most steps have |p| != d,
    # pinned to the digest of the full tableau this solver replaced
    outcomes = [_outcome(LpProblem.make(a, b, c)) for a, b, c in _dense_lps(1960, 200)]
    statuses = [o.partition("|")[0] for o in outcomes]
    counts = {s: statuses.count(s) for s in ("infeasible", "optimal", "unbounded")}
    assert counts == {"infeasible": 43, "optimal": 70, "unbounded": 87}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "1d9cf6bd78767ebff75b74461bd4c6901d3fe4fdc21b2193533b7d3bc68ef502"
    assert branches == {True: 208, False: 1896}


def test_matrix_rank(branches):
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0]]) == 0
    assert matrix_rank([[], []]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert matrix_rank([[1, 0], [0, 3]]) == 2
    assert matrix_rank([[0, 0, 1], [0, 2, 0], [0, 2, 1]]) == 2
    # 0.1 is not 1/10 (the exact rank of the first is 1), a ragged row is no
    # matrix, and True is not 1
    for rows in ([[0.1, 0.2], [1, 2]], [[0, 1], [1]], [[True, 0], [0, 1]]):
        with pytest.raises(ValueError):
            matrix_rank(rows)
    with pytest.raises(ValueError, match=re.escape("not Fraction(1, 1)")):
        matrix_rank([[F(1)]])
    for bad in BAD_ENTRIES:
        rows = [[1, 2, 3, 4, 5], [1, -2, 3, bad, "second"]]
        with pytest.raises(ValueError, match=re.escape(f"not {bad!r}")):
            matrix_rank(rows)
    rng = random.Random(1968)
    ranks = []
    for _ in range(500):
        k = rng.randint(0, 6)
        rows = [
            [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) if rng.random() < 0.6 else 0
             for _ in range(k)]
            for _ in range(rng.randint(0, 6))
        ]
        if rows:  # a dependent row: a rational combination of two rows
            u, v = rng.choice(rows), rng.choice(rows)
            rows.insert(rng.randrange(len(rows)), [x - F(2, 3) * y for x, y in zip(u, v)])
        # each rational row scaled to ints: the rank over Q is the same
        ranks.append(matrix_rank([_integral(row) for row in rows]))
        assert ranks[-1] == oracle_rank(rows), rows
    assert len(set(ranks)) == 7
    assert branches[True] and branches[False]


def _dense_step(rows, r, c, d):
    """A dense fraction-free step on a full tableau, the reference for the
    exchange step: new rows (row r negated when its pivot is negative),
    every quotient checked exact."""
    sign = -1 if rows[r][c] < 0 else 1
    prow = [sign * q for q in rows[r]]
    p = prow[c]
    out = []
    for i, row in enumerate(rows):
        if i == r:
            out.append(prow)
            continue
        new = [x * p - row[c] * q for x, q in zip(row, prow)]
        assert all(v % d == 0 for v in new)
        out.append([v // d for v in new])
    return out, p


def _full(rows, basis, nonbasic, d):
    """The full tableau of condensed rows: column nonbasic[j] from column j,
    and the basic unit columns, d in row i at label basis[i], put back."""
    full = []
    for i, row in enumerate(rows):
        out = [0] * (len(basis) + len(nonbasic))
        for k, x in zip(nonbasic, row):
            out[k] = x
        out[basis[i]] = d
        full.append(out)
    return full


def test_exchange_step_matches_dense_reference():
    # seeded walks of pivots on condensed int tableaux: after each exchange
    # step, the condensed rows with the unit columns put back are the dense
    # step's full tableau; at |p| = d the rows with f != 0 are updated in
    # place, at |p| != d they are rebuilt
    rng = random.Random(1968)
    seen = set()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        spread = rng.choice((1, 2, 5))
        rows = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(m)]
        nonbasic, basis = list(range(n)), list(range(n, n + m))
        d = 1
        for _ in range(rng.randint(1, 6)):
            cells = [(i, j) for i in range(m) for j in range(n) if rows[i][j]]
            if not cells:
                break
            r, c = rng.choice(cells)
            want, want_d = _dense_step(_full(rows, basis, nonbasic, d), r, nonbasic[c], d)
            sparse = abs(rows[r][c]) == d
            seen.add((sparse, rows[r][c] < 0))
            before = list(rows)
            updated = [i for i in range(m) if i != r and rows[i][c]]
            got_d = exactlp._exchange(rows, r, c, d)
            basis[r], nonbasic[c] = nonbasic[c], basis[r]
            assert (got_d, _full(rows, basis, nonbasic, got_d)) == (want_d, want)
            assert all((rows[i] is before[i]) == sparse for i in updated)
            d = got_d
    # p = d and p != d, each with a positive and a negative pivot
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_rank_and_basis_leave_caller_rows_alone():
    # an all-int row passes the gate as given; the first pivot is 1 = d, the
    # in-place step, so only a copy keeps the caller's rows as they were
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10], [2, 4, 6]]
    kept = [list(row) for row in rows]
    assert matrix_rank(rows) == 3
    basis = exactlp.span_basis(rows, 3)
    assert rows == kept
    as_tuples = tuple(tuple(row) for row in rows)
    assert matrix_rank(as_tuples) == 3
    assert exactlp.span_basis(as_tuples, 3) == basis

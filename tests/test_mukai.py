import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest

import lemmas
from oracles import oracle_positive_span
from sphskel import catalog, cli, exactlp, mukai, rootsys, skeleton as sk
from sphskel.mukai import EQUAL, STRICTLY_LESS
from sphskel.skeleton import Color, SphericalSkeleton, SphericalSystem

F = Fraction


def case(family, sub="", **params):
    return catalog.instantiate(family, sub, **params)


def support_skel(inst, key):
    return inst.support_skeleton(inst.option(key))


def test_mfs_case_34():
    v = mukai.check_conjecture(support_skel(case(34), "gamma_1"))
    assert (v.p_value, v.relation) == (13, EQUAL)
    assert v.theta == (F(1), F(5))
    assert v.theta_unique is True
    assert v.pivots >= 1


def test_mfs_empty_sigma():
    # no variables: the value is the constant sum of (m_D - 1)
    rs = rootsys.build_root_system([("A", 1)])
    color = Color(name="D", rho=(), moved_by=(0,))  # m = <a^vee, 2rho> = 2
    skel = SphericalSkeleton(SphericalSystem(rs, frozenset(), (), (color,)), ())
    v = mukai.check_conjecture(skel)
    assert v.p_value == 1 and v.theta == ()


def test_mfs_case_46_p4_alpha2_is_zero():
    inst = case(46, "p=4", p=4)
    assert mukai.check_conjecture(support_skel(inst, "alpha_2")).p_value == 0


def test_mfs_case_31_p2():
    inst = case(31, p=2)
    v = mukai.check_conjecture(support_skel(inst, "gamma_3"))
    assert v.p_value == 10
    assert v.theta == (F(6), F(3), F(1))


def test_mfs_infinite_on_noncomplete():
    inst = case(31, p=2)
    # support inside Sigma' is not complete and its LP is unbounded
    skel = sk.with_boundary_support(inst.system, [1])
    verdict = mukai.check_conjecture(skel)
    assert verdict.p_value is None and verdict.relation is None
    assert verdict.theta is None and verdict.theta_unique is None
    assert not verdict.complete


def test_budget_examples():
    assert case(35).system.budget == 6
    assert case(44, "p=2", p=2).system.budget == 7
    # S^p equal to the whole S gives budget zero
    rs = rootsys.build_root_system([("A", 2)])
    assert SphericalSystem(rs, frozenset({0, 1}), (), ()).budget == 0


def test_catalog_lps_are_integral(monkeypatch):
    # the catalog's pairings and multiplicities are integers, and its LPs stay
    # in ints up to the tableau: a Fraction here costs time and no digest sees it.
    # The completeness LPs hold the coordinates in the system's color basis,
    # each row scaled by the basis's denominator: no catalog skeleton builds a
    # basis of its own (only colors that do not span need one) or a rank
    passed = []
    solve = exactlp.solve_max
    monkeypatch.setattr(exactlp, "solve_max", lambda p: passed.append(p) or solve(p))
    fallback = []
    for name in ("matrix_rank", "span_basis"):
        real = getattr(exactlp, name)
        monkeypatch.setattr(exactlp, name, lambda *a, real=real: fallback.append(a) or real(*a))
    instances = catalog.sweep_instances()
    assert all(len(inst.system.basis.indices) == len(inst.system.sigma) for inst in instances)
    fallback.clear()  # the systems' own Sigma rank checks and color bases
    skeletons = [inst.support_skeleton(opt) for inst in instances for opt in inst.options]
    assert len(skeletons) == 577
    for skel in skeletons:
        problem = mukai.skeleton_lp(skel.system, [d.rho for d in skel.boundary])[0]
        entries = [x for row in problem.a for x in row] + [*problem.b, *problem.c]
        assert {type(x) for x in entries} <= {int}, skel
        assert sk.is_complete(skel)
    assert len(passed) == 577 and not fallback
    entries = [x for p in passed for x in (*p.b, *p.c, *(y for row in p.a for y in row))]
    assert {type(x) for x in entries} == {int}

    # the face LP of unique_optimum on every Equal report: its optimum is
    # integral and enters as an int.  Z is empty at all 77 optima, so no face
    # LP is solved as they stand; an idle column (zero in A and c) is free on
    # the face, puts its x_j in Z and makes unique_optimum solve one
    equal = [skel for skel in skeletons if mukai.check_conjecture(skel).relation == EQUAL]
    assert len(equal) == 77
    face_lps = []
    monkeypatch.setattr(exactlp, "solve_max", lambda p: face_lps.append(p) or solve(p))
    for skel in equal:
        problem = mukai.skeleton_lp(skel.system, [d.rho for d in skel.boundary])[0]
        assert exactlp.unique_optimum(problem, solve(problem))
        idle = exactlp.LpProblem.make(
            [[*row, 0] for row in problem.a], problem.b, [*problem.c, 0]
        )
        assert not exactlp.unique_optimum(idle, solve(idle))
    assert len(face_lps) == 77
    entries = [x for p in face_lps for x in (*p.b, *p.c, *(y for row in p.a for y in row))]
    assert {type(x) for x in entries} == {int}


def test_check_conjecture_examples():
    v41 = mukai.check_conjecture(support_skel(case(41), "gamma"))
    assert (v41.p_value, v41.budget, v41.relation) == (5, 5, EQUAL)
    assert v41.theta == (F(1),) and v41.theta_unique is True

    v37 = mukai.check_conjecture(support_skel(case(37, p=3), "gamma_2"))
    assert (v37.p_value, v37.budget, v37.relation) == (5, 12, STRICTLY_LESS)

    v46 = mukai.check_conjecture(support_skel(case(46, "p=6", p=6), "alpha_1"))
    assert (v46.p_value, v46.budget, v46.relation) == (5, 15, STRICTLY_LESS)


def test_p_value_at_least_constant():
    # P >= sum (m_D - 1) >= 0: x = 0 is always feasible
    for key, params in ((34, {}), (38, {}), (41, {})):
        inst = case(key, **params)
        for opt in inst.options:
            skel = inst.support_skeleton(opt)
            problem, constant = mukai.skeleton_lp(skel.system, [d.rho for d in skel.boundary])
            assert mukai.check_conjecture(skel).p_value >= constant >= 0


def test_enumerate_minimal_supports_case_35():
    found = mukai.enumerate_minimal_complete_supports(case(35).system)
    assert [t for t, _ in found] == [(0,)]
    assert found[0][1].relation == EQUAL


def test_enumerate_minimal_supports_case_38():
    found = mukai.enumerate_minimal_complete_supports(case(38).system)
    assert [t for t, _ in found] == [(0, 1), (0, 2), (1, 2)]
    assert all(v.p_value == 11 for _, v in found)


def test_enumerate_minimal_supports_case_31():
    found = mukai.enumerate_minimal_complete_supports(case(31, p=2).system)
    assert [t for t, _ in found] == [(0,), (2,)]
    found = mukai.enumerate_minimal_complete_supports(case(31, p=3).system)
    assert [t for t, _ in found] == [(0,), (2,), (4,)]


def _unpruned_minimal_supports(system, max_card):
    """Every candidate by size, decided by the hyperplane-normal oracle."""
    nsig = len(system.sigma)
    minimal, tested = [], 0
    for card in range(1, max_card + 1):
        for t in combinations(range(nsig), card):
            if any(set(prev) <= set(t) for prev in minimal):
                continue
            skel = sk.with_boundary_support(system, t)
            rows = [div.rho for div in skel.divisors]
            tested += 1
            if oracle_positive_span(rows, nsig):
                minimal.append(t)
    return minimal, tested


def test_pruned_enumeration_matches_unpruned(monkeypatch):
    # a seeded subset of the |Sigma| <= 4 instances, every support size
    small = [i for i in catalog.sweep_instances() if len(i.system.sigma) <= 4]
    sample = random.Random(1954).sample(small, 30)
    solved = []
    decide = sk.support_separation
    monkeypatch.setattr(sk, "support_separation", lambda s, t: solved.append(t) or decide(s, t))
    candidates = lps = 0
    for inst in sample:
        nsig = len(inst.system.sigma)
        solved.clear()
        found = mukai.enumerate_minimal_complete_supports(inst.system, nsig)
        lps += len(solved)
        expect, tested = _unpruned_minimal_supports(inst.system, nsig)
        candidates += tested
        assert [t for t, _ in found] == expect, inst.label
        for t, verdict in found:
            assert verdict.complete
            full = mukai.check_conjecture(sk.with_boundary_support(inst.system, t))
            assert verdict == full, (inst.label, t)
    # the basis columns and the separating y skip candidates the unpruned
    # search has to decide
    assert (lps, candidates) == (49, 152)


def test_support_separation_matches_witness():
    # every candidate of the unpruned search on the default sweep, each T with
    # |T| <= 3 that contains no minimal support: the decision from the
    # system's basis is complete iff the skeleton's witness sets lam, and a
    # failed one's set is {j : y_j <= 0} of its y
    systems = [inst.system for inst in catalog.sweep_instances()]
    assert len(systems) == 309
    candidates = found = 0
    for system in systems:
        minimal = []
        for card in range(1, 4):
            for t in combinations(range(len(system.sigma)), card):
                if any(set(prev) <= set(t) for prev in minimal):
                    continue
                candidates += 1
                lam, y = sk.completeness_witness(sk.with_boundary_support(system, t))
                sep = sk.support_separation(system, t)
                if lam is not None:
                    assert sep is None, t
                    minimal.append(t)
                else:
                    assert sep == frozenset(j for j, yj in enumerate(y) if yj <= 0), t
        found += len(minimal)
    assert (candidates, found) == (8232, 527)


def _sweep_systems(name):
    return [inst.system for inst in catalog.sweep_instances(profile=cli.load_sweep_profile(name))]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@pytest.mark.parametrize(
    "sweep, systems, used, unused", [("default", 309, 1555, 72), ("deep", 676, 3747, 287)]
)
def test_basis_separations_separate_the_colors(sweep, systems, used, unused):
    # each y_k, column k of the colors' basis inverse, read here and checked
    # by its own pairings: it is used exactly when every color pairs with it
    # >= 0, and then its set is {j : y_k[j] <= 0}
    found = _sweep_systems(sweep)
    assert len(found) == systems
    counts = [0, 0]
    for system in found:
        inverse, nsig = system.basis.inverse, len(system.sigma)
        expect = []
        for k in range(nsig):
            y = [row[k] for row in inverse]
            assert any(y), (system, k)
            separates = all(_dot(color.rho, y) >= 0 for color in system.colors)
            counts[separates] += 1
            if separates:
                expect.append(frozenset(j for j, yj in enumerate(y) if yj <= 0))
        assert sk.basis_separations(system) == expect
    assert counts == [unused, used]


def test_basis_separations_skip_no_complete_support():
    # every candidate |T| <= 3 a basis column skips, on the |Sigma| <= 5
    # systems of the deep sweep, is not complete by the hyperplane oracle
    skipped = 0
    for system in _sweep_systems("deep"):
        nsig = len(system.sigma)
        if nsig > 5:
            continue
        sets = sk.basis_separations(system)
        for card in range(1, 4):
            for t in combinations(range(nsig), card):
                if any(map(set(t).issubset, sets)):
                    skipped += 1
                    rows = [div.rho for div in sk.with_boundary_support(system, t).divisors]
                    assert not oracle_positive_span(rows, nsig), t
    assert skipped == 3432


def test_basis_separations_leave_out_a_column_a_color_opposes():
    # the colors (1, 0), (0, 1) are the basis; (-1, 1) pairs -1 with y_0 =
    # (1, 0), so only y_1 = (0, 1) is used.  y_0 would skip {1}, which is
    # complete: (1, 0) + (-1, 1) + 2 (0, -1) + (0, 1) = 0
    a1 = ("A", 1)
    system = SphericalSystem(
        rootsys.build_root_system([a1, a1]),
        frozenset(),
        ((1, 0), (0, 1)),
        (
            Color(name="D1", rho=(1, 0), moved_by=(0,)),
            Color(name="D2", rho=(0, 1), moved_by=(1,)),
            Color(name="D3", rho=(-1, 1), moved_by=(0,)),
        ),
    )
    assert system.basis.indices == (0, 1) and system.basis.coords == ((-1, 1),)
    assert sk.basis_separations(system) == [frozenset({0})]
    found = mukai.enumerate_minimal_complete_supports(system, 2)
    expect, _ = _unpruned_minimal_supports(system, 2)
    assert [t for t, _ in found] == expect == [(1,)]


@pytest.mark.parametrize("sweep, lps, found", [("default", 532, 527), ("deep", 1496, 1483)])
def test_search_completeness_lps_pinned(monkeypatch, sweep, lps, found):
    # the candidates the search decides with an LP, |T| <= 3: the basis
    # columns skip the rest (1693 and 3831 with only the failed candidates' y)
    systems = _sweep_systems(sweep)
    decided = []
    decide = sk.support_separation
    monkeypatch.setattr(sk, "support_separation", lambda s, t: decided.append(t) or decide(s, t))
    supports = sum(len(mukai.enumerate_minimal_complete_supports(s)) for s in systems)
    assert (len(decided), supports) == (lps, found)


@pytest.mark.parametrize("sweep", ["default", "deep"])
def test_search_verdicts_match_the_skeletons(sweep):
    # each verdict the search builds from the system's LP rows and the unit
    # rows -e_j is the one check_conjecture gives the skeleton, field by field
    found = 0
    for system in _sweep_systems(sweep):
        for t, verdict in mukai.enumerate_minimal_complete_supports(system):
            full = mukai.check_conjecture(sk.with_boundary_support(system, t))
            for field in fields(full):
                assert getattr(verdict, field.name) == getattr(full, field.name), (t, field)
            found += 1
    assert found == {"default": 527, "deep": 1483}[sweep]


def test_search_builds_no_skeleton(monkeypatch):
    # counted as test_system_checks_run_once_per_system counts systems
    built = []
    check = SphericalSkeleton.__post_init__
    monkeypatch.setattr(SphericalSkeleton, "__post_init__", lambda s: built.append(s) or check(s))
    systems = [inst.system for inst in catalog.sweep_instances()]
    assert sum(len(mukai.enumerate_minimal_complete_supports(s)) for s in systems) == 527
    assert built == []
    mukai.check_conjecture(sk.with_boundary_support(systems[0], (0,)))
    assert len(built) == 1


def test_enumeration_on_colors_that_do_not_span():
    # no catalog system has such colors, so only these run the enumeration
    # through the span basis of all rho(D) and past supports whose rho(D)
    # do not span: 1 color on 3 roots, and 2 colors on a line of the plane
    a1 = ("A", 1)
    systems = [
        SphericalSystem(
            rootsys.build_root_system([a1, a1, a1]),
            frozenset(),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            (Color(name="D", rho=(1, 1, 1), moved_by=(0,)),),
        ),
        SphericalSystem(
            rootsys.build_root_system([a1, a1, a1]),
            frozenset(),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            (
                Color(name="D1", rho=(1, 1, 0), moved_by=(0,)),
                Color(name="D2", rho=(0, 1, 1), moved_by=(1,)),
            ),
        ),
        SphericalSystem(
            rootsys.build_root_system([a1, a1]),
            frozenset(),
            ((1, 0), (0, 1)),
            (
                Color(name="D1", rho=(1, -1), moved_by=(0,)),
                Color(name="D2", rho=(-1, 1), moved_by=(1,)),
            ),
        ),
    ]
    assert sk.support_separation(systems[0], (0,)) == frozenset()  # rank 2 < 3
    for system in systems:
        nsig = len(system.sigma)
        assert len(system.basis.indices) < nsig
        found = mukai.enumerate_minimal_complete_supports(system, nsig)
        expect, _ = _unpruned_minimal_supports(system, nsig)
        assert [t for t, _ in found] == expect
        for t, verdict in found:
            full = mukai.check_conjecture(sk.with_boundary_support(system, t))
            assert verdict.complete and verdict == full, t
    assert [len(_unpruned_minimal_supports(s, len(s.sigma))[0]) for s in systems] == [1, 1, 0]


def test_duplicate_shift_case_41():
    skel = support_skel(case(41), "gamma")
    before, after, shift = lemmas.duplicate_shift_check(skel, skel.boundary[0].name)
    assert (before, after, shift) == (5, 4, -1)


def test_duplicate_shift_case_34():
    skel = support_skel(case(34), "gamma_1")
    before, after, shift = lemmas.duplicate_shift_check(skel, skel.boundary[0].name)
    assert (before, after, shift) == (13, 12, -1)


def test_duplicate_shift_rejects_strict_cases():
    skel = support_skel(case(37, p=2), "gamma_2")
    with pytest.raises(ValueError):
        lemmas.duplicate_shift_check(skel, skel.boundary[0].name)


def test_reduction_monotonicity_small():
    # P(R) <= P(R^e) <= P(R^r) on a hand-built non-elementary Gamma
    system = case(38).system
    gamma = (sk.BoundaryDivisor("X", (-2, -1, 0)), sk.BoundaryDivisor("Y", (0, -1, 0)))
    skel = SphericalSkeleton(system, gamma)
    p0 = mukai.check_conjecture(skel).p_value
    p1 = mukai.check_conjecture(lemmas.to_elementary(skel)).p_value
    p2 = mukai.check_conjecture(lemmas.to_reduced(lemmas.to_elementary(skel))).p_value
    assert p0 <= p1 <= p2


def test_product_additivity():
    inst35, inst41 = case(35), case(41)
    s35 = support_skel(inst35, "gamma")
    s41 = support_skel(inst41, "gamma")
    prod = lemmas.product(s35, s41)
    v = mukai.check_conjecture(prod)
    assert v.p_value == 6 + 5
    assert v.budget == 11
    assert v.relation == EQUAL

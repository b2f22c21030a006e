from fractions import Fraction
from itertools import combinations

import pytest
from oracles import oracle_positive_in_span, oracle_positive_roots

from sphskel import catalog, cli
from sphskel.rootsys import (
    RootSystemError,
    build_root_system,
    cartan_row,
    coroot_pairing,
    positive_in_span,
)


def test_rank_one_cartan():
    rs = build_root_system([("A", 1)])
    assert rs.cartan == ((2,),)
    assert oracle_positive_roots(rs.cartan) == [(1,)]


def test_g2_orientation_alpha1_short():
    # pinned so that <alpha_1^vee, alpha_2> = -3 (alpha_1 short); this is the
    # orientation the catalog's G2 case forces
    rs = build_root_system([("G", 2)])
    assert rs.cartan == ((2, -3), (-1, 2))
    assert set(oracle_positive_roots(rs.cartan)) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
    }
    assert positive_in_span(rs, [0, 1])[0] == (10, 6)


def test_product_block_diagonal_cartan():
    rs = build_root_system([("B", 2), ("A", 1)])
    assert rs.cartan == ((2, -1, 0), (-2, 2, 0), (0, 0, 2))
    assert rs.offsets == (0, 2)


@pytest.mark.parametrize(
    "spec",
    [
        [("A", 0)], [("B", 1)], [("C", 1)], [("D", 2)], [("G", 3)], [("E", 6)], [],
        # a rank that is not an int must not read as the integer it rounds to
        [("A", 2.7)], [("A", True)],
        # refused before the total x total Cartan matrix is allocated
        [("A", 101)], [("A", 60), ("A", 41)], [("A", 10**30)],
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(RootSystemError):
        build_root_system(spec)


@pytest.mark.parametrize(
    "series,rank,count",
    [
        ("A", 1, 1),
        ("A", 4, 10),
        ("B", 2, 4),
        ("B", 3, 9),
        ("B", 5, 25),
        ("C", 3, 9),
        ("C", 6, 36),
        ("D", 3, 6),
        ("D", 4, 12),
        ("D", 7, 42),
        ("G", 2, 6),
    ],
)
def test_positive_root_counts(series, rank, count):
    rs = build_root_system([(series, rank)])
    roots = oracle_positive_roots(rs.cartan)
    assert len(roots) == count
    assert len(set(roots)) == count
    for root in roots:
        assert all(x >= 0 for x in root)


def test_counts_add_over_products():
    rs = build_root_system([("B", 4), ("A", 2), ("G", 2)])
    assert len(oracle_positive_roots(rs.cartan)) == 16 + 3 + 6


def test_simple_roots_are_positive_roots():
    rs = build_root_system([("D", 5)])
    roots = set(oracle_positive_roots(rs.cartan))
    for i in range(5):
        assert tuple(1 if j == i else 0 for j in range(5)) in roots


def test_root_strings_have_no_gaps():
    # closure property: along every alpha_i-string the enumerated roots are
    # contiguous in k for beta + k alpha_i
    for spec in ([("B", 4)], [("C", 4)], [("D", 4)], [("G", 2)]):
        rs = build_root_system(spec)
        roots = set(oracle_positive_roots(rs.cartan))
        for beta in roots:
            for i in range(rs.rank):
                up = list(beta)
                up[i] += 2
                if tuple(up) in roots:
                    mid = list(beta)
                    mid[i] += 1
                    assert tuple(mid) in roots, (spec, beta, i)


def test_coroot_pairing_examples():
    a2 = build_root_system([("A", 2)])
    assert coroot_pairing(a2, 0, (1, 1)) == 1
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2)]:
        rs = build_root_system([(series, rank)])
        for i in range(rs.rank):
            alpha = tuple(int(j == i) for j in range(rs.rank))
            assert coroot_pairing(rs, i, alpha) == 2
    b4 = build_root_system([("B", 4)])
    assert coroot_pairing(b4, 3, (0, 0, 1, 0)) == -2


def test_coroot_pairing_linear_and_fractional():
    b3 = build_root_system([("B", 3)])
    v = (Fraction(1, 2), Fraction(3), Fraction(0))
    w = (1, 0, 2)
    for i in range(3):
        assert coroot_pairing(b3, i, v) + coroot_pairing(b3, i, w) == coroot_pairing(
            b3, i, tuple(a + b for a, b in zip(v, w))
        )


def test_coroot_pairing_rejects_wrong_length():
    a3 = build_root_system([("A", 3)])
    for v in [(1, 0), (1, 0, 0, 0)]:  # a longer vector is not truncated
        with pytest.raises(ValueError, match="coordinates"):
            coroot_pairing(a3, 0, v)


def test_two_rho_examples():
    b4 = build_root_system([("B", 4)])
    assert positive_in_span(b4, [1, 2])[0] == (0, 2, 2, 0)
    assert positive_in_span(b4, [])[0] == (0, 0, 0, 0)
    a2 = build_root_system([("A", 2)])
    assert positive_in_span(a2, [0, 1])[0] == (2, 2)


def test_two_rho_pairing_is_two():
    # <alpha_i^vee, 2 rho_S> = 2 for every simple root
    for spec in ([("A", 5)], [("B", 4)], [("C", 5)], [("D", 6)], [("G", 2)],
                 [("B", 2), ("D", 4)]):
        rs = build_root_system(spec)
        rho2 = positive_in_span(rs, range(rs.rank))[0]
        for i in range(rs.rank):
            assert coroot_pairing(rs, i, rho2) == 2, (spec, i)


def test_positive_count_in_span_examples():
    b4 = build_root_system([("B", 4)])
    assert positive_in_span(b4, [1, 2])[1] == 3
    assert len(oracle_positive_roots(b4.cartan)) - positive_in_span(b4, [1, 2])[1] == 13
    assert positive_in_span(b4, [])[1] == 0
    b3 = build_root_system([("B", 3)])
    assert positive_in_span(b3, [0, 1])[1] == 3
    assert len(oracle_positive_roots(b3.cartan)) - positive_in_span(b3, [0, 1])[1] == 6


def test_positive_count_monotone_and_full():
    rs = build_root_system([("C", 4)])
    counts = [positive_in_span(rs, range(k))[1] for k in range(5)]
    assert counts == sorted(counts)
    assert counts[-1] == len(oracle_positive_roots(rs.cartan)) == 16


@pytest.mark.parametrize(
    "spec",
    [[("A", n)] for n in range(1, 31)]
    + [[(series, n)] for series in "BC" for n in range(2, 31)]
    + [[("D", n)] for n in range(3, 31)]
    + [[("G", 2)], [("B", 4), ("A", 2), ("G", 2)], [("D", 5), ("C", 3)],
       [("A", 1), ("A", 1), ("B", 3), ("D", 4)]],
)
def test_positive_count_matches_closure(spec):
    rs = build_root_system(spec)
    assert rs.positive_count == len(oracle_positive_roots(rs.cartan))


def _filtered_span(roots, subset):
    """The reference: filter the closure ``roots`` of the full system by support."""
    inside = set(subset)
    total = [0] * len(roots[0])
    count = 0
    for root in roots:
        if all(j in inside for j, x in enumerate(root) if x):
            count += 1
            total = [t + x for t, x in zip(total, root)]
    return tuple(total), count


@pytest.mark.parametrize(
    "spec",
    [
        [("A", 6)], [("B", 5)], [("C", 5)], [("C", 3)], [("B", 2)], [("C", 2)],
        *([("D", n)] for n in range(3, 8)), [("G", 2)],
        [("B", 3), ("A", 2), ("G", 2)], [("D", 4), ("C", 3), ("A", 1)],
    ],
)
def test_positive_in_span_matches_filtered_closure(spec):
    # every subset: each connected subdiagram of each type, in each position
    rs = build_root_system(spec)
    roots = oracle_positive_roots(rs.cartan)
    for size in range(rs.rank + 1):
        for subset in combinations(range(rs.rank), size):
            assert positive_in_span(rs, subset) == _filtered_span(roots, subset), subset
    # a repeated index counts once
    assert positive_in_span(rs, [rs.rank - 1] * 3 + [0]) == _filtered_span(roots, [0, rs.rank - 1])


def test_cartan_rows_are_near_the_diagonal():
    # cartan_row reads only the entries at most two places from the diagonal
    for spec in ([("D", 7)], [("B", 3), ("A", 2), ("G", 2)], [("D", 4), ("C", 3), ("A", 1)],
                 [("A", 1), ("D", 3), ("C", 2)]):
        rs = build_root_system(spec)
        for i, row in enumerate(rs.cartan):
            assert cartan_row(rs, i) == [(j, c) for j, c in enumerate(row) if c], (spec, i)


@pytest.mark.parametrize("bad", [-1, 4, 10**30, 1.0, True, "0", None])
def test_positive_in_span_rejects_bad_index(bad):
    rs = build_root_system([("B", 4)])
    with pytest.raises(ValueError, match="simple-root index"):
        positive_in_span(rs, [0, bad])


def _sp_instances():
    """Every default and deep instance, and every pinned one past the deep
    profile."""
    instances = []
    for profile in ("default", "deep"):
        instances += catalog.sweep_instances(profile=cli.load_sweep_profile(profile))
    for family, overrides in [(31, {"p": 48}), (49, {"p": 48}), (43, {"p": 30}),
                              (47, {"q": 40}), (42, {"q": 40}), (44, {"p": 48}),
                              (45, {"q": 40})]:
        instances += catalog.sweep_instances(family=family, overrides=overrides)
    return instances


def test_positive_in_span_matches_closure_on_every_catalog_sp():
    instances = _sp_instances()
    assert len(instances) == 309 + 676 + 53
    for inst in instances:
        rs, sp = inst.system.root_system, inst.system.sp
        expected = oracle_positive_in_span(rs.cartan, sp)
        assert positive_in_span(rs, sp) == expected, inst.label
        assert inst.system.budget == rs.positive_count - expected[1], inst.label


def test_catalog_sp_span_at_rank_96():
    # A_96 at 31/p=48, near the total-rank limit
    (inst,) = catalog.sweep_instances(family=31, overrides={"p": 48})
    rs, sp = inst.system.root_system, inst.system.sp
    assert rs.rank == 96
    assert positive_in_span(rs, sp) == oracle_positive_in_span(rs.cartan, sp)
    assert inst.system.budget == 96 * 97 // 2 == inst.expected_budget

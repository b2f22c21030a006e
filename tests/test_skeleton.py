import copy
import hashlib
import json
import pathlib
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

import lemmas
from oracles import oracle_rank
from sphskel import catalog, cli, exactlp, mukai, rootsys, skeleton as sk
from sphskel.skeleton import (
    BoundaryDivisor,
    Color,
    SkeletonInvariantError,
    SkeletonParseError,
    SphericalSkeleton,
    SphericalSystem,
)

F = Fraction


def case(family, sub="", **params):
    return catalog.instantiate(family, sub, **params)


def test_pairing_matrix_case_31_row():
    inst = case(31, p=2)
    skel = inst.support_skeleton(inst.option("gamma_1"))
    a = sk.pairing_matrix(skel)
    assert a[0] == [F(-1), F(1), F(0)]  # D1 row: -<alpha_1^vee, gamma_j>
    assert a[-1] == [F(1), F(0), F(0)]  # boundary rows are >= 0
    assert all(v >= 0 for v in a[-1])


def test_pairing_matrix_empty_sigma():
    rs = rootsys.build_root_system([("A", 1)])
    color = Color(name="D", rho=(), moved_by=(0,))
    skel = SphericalSkeleton(SphericalSystem(rs, frozenset(), (), (color,)), ())
    assert sk.pairing_matrix(skel) == [[]]


def test_pairing_matrix_case_39_explicit_row():
    inst = case(39)
    a = sk.pairing_matrix(SphericalSkeleton(inst.system, ()))
    assert a[0] == [F(-1), F(1), F(0), F(0)]  # D1+ has rho = (1,-1,0,0)


def test_color_multiplicities_case_34():
    inst = case(34)
    assert inst.system.multiplicities == (4, 6)
    skel = inst.support_skeleton(inst.option("gamma_1"))
    b = sk.multiplicities(skel)
    assert b[-1] == 1  # boundary divisors always get 1
    assert sum(b) - len(b) == 8


def test_color_multiplicity_one_for_sigma_movers():
    inst = case(36, p=3)
    ms = dict(zip((c.name for c in inst.system.colors), inst.system.multiplicities))
    assert ms["D1+"] == ms["D1-"] == 1
    assert ms["D2"] == 6


def test_is_complete_examples():
    inst = case(31, p=2)
    # support on gamma_3 (outside Sigma') is complete
    assert sk.is_complete(inst.support_skeleton(inst.option("gamma_3")))
    # support inside Sigma' = {gamma_2} is not
    assert not sk.is_complete(sk.with_boundary_support(inst.system, [1]))
    # colors alone in a half-space cannot positively span
    inst36 = case(36, p=2)
    assert not sk.is_complete(SphericalSkeleton(inst36.system, ()))


def test_is_complete_empty_sigma():
    rs = rootsys.build_root_system([("A", 1)])
    skel = SphericalSkeleton(SphericalSystem(rs, frozenset(), (), ()), ())
    assert sk.is_complete(skel)


def test_is_complete_needs_spanning_functionals():
    # rho(D1) + rho(D2) = 0 with lam = (1, 1), but the two functionals span a
    # line of the plane, so their cone is not the whole space
    rs = rootsys.build_root_system([("A", 1), ("A", 1)])
    colors = (
        Color(name="D1", rho=(1, 1), moved_by=(0,)),
        Color(name="D2", rho=(-1, -1), moved_by=(1,)),
    )
    skel = SphericalSkeleton(SphericalSystem(rs, frozenset(), ((1, 0), (0, 1)), colors), ())
    assert exactlp.positive_dependence([c.rho for c in colors]) == ((F(1), F(1)), None)
    assert not sk.is_complete(skel)
    assert sk.completeness_witness(skel) == (None, None)
    assert mukai.check_conjecture(skel).complete is False
    # the colors' basis has 1 < 2 vectors, so completeness takes a basis of
    # all rho(D), and -e_1, -e_2 complete the line to the plane
    assert skel.system.basis == exactlp.SpanBasis((0,), ((1,), (0,)), ((-1,),), 1)
    whole = sk.with_boundary_support(skel.system, [0, 1])
    assert len(exactlp.span_basis([div.rho for div in whole.divisors], 2).indices) == 2
    lam, y = sk.completeness_witness(whole)
    rows = [div.rho for div in whole.divisors]
    assert y is None and all(x >= 1 for x in lam)
    assert [sum(x * r[j] for x, r in zip(lam, rows)) for j in range(2)] == [0, 0]


def test_empty_sigma_file_is_complete(tmp_path, capsys):
    # |Sigma| = 0: the colors span Q^0 by an empty basis, and the LP over no
    # columns gives every color lam = 1
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "root_system": [{"series": "A", "rank": 1}],
        "sp": [],
        "sigma": [],
        "colors": [{"name": "D1", "rho": [], "moved_by": [0]}],
        "boundary": [],
    }))
    skel = sk.load(str(path))
    assert skel.system.basis == exactlp.SpanBasis((), (), ((),), 1)
    assert sk.completeness_witness(skel) == ((1,), None)
    assert cli.main(["compute", str(path)]) == 0
    assert capsys.readouterr().out == "complete: true, P=1, budget=1, Equal, theta=()\n"


def _pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_completeness_in_span_coordinates_matches_rank_oracle():
    # every option skeleton of the default sweep, the empty Gamma and every
    # support of size 1 and 2: the LP over the colors' basis leaves both
    # witnesses unset exactly when the oracle's rank of the rho(D) is below
    # |Sigma|, each witness it gives is checked by dot products, and
    # is_complete, which reads the LP's value alone, agrees with lam
    count = complete = 0
    for inst in catalog.sweep_instances():
        system = inst.system
        nsig = len(system.sigma)
        assert len(system.basis.indices) == nsig, inst.label
        supports = [c for k in (1, 2) for c in combinations(range(nsig), k)]
        skeletons = [inst.support_skeleton(opt) for opt in inst.options]
        skeletons.append(SphericalSkeleton(system, ()))
        skeletons += [sk.with_boundary_support(system, t) for t in supports]
        for skel in skeletons:
            rows = [div.rho for div in skel.divisors]
            lam, y = sk.completeness_witness(skel)
            assert sk.is_complete(skel) == (lam is not None), (inst.label, skel.boundary)
            if oracle_rank(rows) < nsig:
                assert (lam, y) == (None, None), (inst.label, skel.boundary)
            elif lam is not None:
                assert y is None and len(lam) == len(rows)
                assert all(x >= 1 for x in lam)
                assert all(_pairing(lam, col) == 0 for col in zip(*rows))
                complete += 1
            else:
                assert any(y) and all(_pairing(row, y) >= 0 for row in rows)
            count += 1
    assert (count, complete) == (6418, 1696)


def test_is_complete_builds_no_fraction_but_each_lp_value(monkeypatch):
    # on the option skeletons of the default sweep the decision builds no
    # witness and no LP vector: each Fraction() call is the value of an LP
    # that pivots, since one optimal at its start basis reads a shared 0.
    # CPython 3.12 and later build arithmetic results without __new__, so
    # only a count of explicit constructions holds across versions.
    skeletons = [inst.support_skeleton(opt)
                 for inst in catalog.sweep_instances() for opt in inst.options]
    built = solved = 0
    real_new, real_solve = Fraction.__new__, exactlp.solve_max

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real_new(cls, *args, **kwargs)

    def counting_solve(problem):
        nonlocal solved
        solved += 1
        return real_solve(problem)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(exactlp, "solve_max", counting_solve)
    complete = sum(sk.is_complete(skel) for skel in skeletons)
    monkeypatch.undo()
    assert (len(skeletons), complete, solved) == (577, 577, 577)
    assert built == 261  # the completeness LPs that pivot


def test_verify_pass_builds_its_fractions_on_read(monkeypatch):
    # one pass over the 577 reports of the default sweep builds the values
    # of the LPs that pivot, theta and each P: an LP vector read nowhere is
    # never built, nor the value 0 of an LP optimal at its start basis.
    # CPython 3.12 and later build arithmetic results (P = value + constant)
    # without __new__, so the count of all constructions holds before 3.12
    # and the count of those made outside the fractions module on every one
    items = [(inst, opt) for inst in catalog.sweep_instances() for opt in inst.options]
    built = explicit = 0
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built, explicit
        built += 1
        explicit += sys._getframe(1).f_globals["__name__"] != "fractions"
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    reports = [cli.evaluate_option(inst, opt) for inst, opt in items]
    monkeypatch.undo()
    assert (len(reports), explicit) == (577, 2068)
    if sys.version_info < (3, 12):
        assert built == 2645


def test_support():
    inst = case(34)
    assert lemmas.support(SphericalSkeleton(inst.system, ())) == frozenset()
    skel = inst.support_skeleton(inst.option("gamma_1"))
    assert lemmas.support(skel) == {0}
    two = SphericalSkeleton(
        inst.system,
        (
            BoundaryDivisor("E1", (-1, 0)),
            BoundaryDivisor("E2", (-2, -1)),
        ),
    )
    assert lemmas.support(two) == {0, 1}


def _with_gamma(system, rows):
    gamma = tuple(
        BoundaryDivisor(f"X{i}", tuple(row)) for i, row in enumerate(rows)
    )
    return SphericalSkeleton(system, gamma)


def test_to_elementary():
    system = case(34).system
    skel = _with_gamma(system, [(-2, 0)])
    elem = lemmas.to_elementary(skel)
    assert [d.rho for d in elem.boundary] == [(-1, 0), (-1, 0)]
    assert lemmas.is_elementary(elem)

    skel = _with_gamma(system, [(-1, -1)])
    elem = lemmas.to_elementary(skel)
    assert sorted(d.rho for d in elem.boundary) == [(-1, 0), (0, -1)]

    already = _with_gamma(system, [(-1, 0)])
    assert [d.rho for d in lemmas.to_elementary(already).boundary] == [(-1, 0)]


def test_to_reduced():
    system = case(34).system
    elem = _with_gamma(system, [(-1, 0), (-1, 0), (0, -1)])
    red = lemmas.to_reduced(elem)
    assert sorted(d.rho for d in red.boundary) == [(-1, 0), (0, -1)]
    assert lemmas.is_reduced(red)
    assert [d.rho for d in lemmas.to_reduced(red).boundary] == [
        d.rho for d in red.boundary
    ]
    empty = _with_gamma(system, [])
    assert lemmas.to_reduced(empty).boundary == ()
    with pytest.raises(ValueError):
        lemmas.to_reduced(_with_gamma(system, [(-2, 0)]))


def test_reduction_preserves_support_and_idempotent():
    system = case(38).system
    skel = _with_gamma(system, [(-2, -1, 0), (0, -1, 0)])
    elem = lemmas.to_elementary(skel)
    red = lemmas.to_reduced(elem)
    assert lemmas.support(skel) == lemmas.support(elem) == lemmas.support(red) == {0, 1}
    again = lemmas.to_reduced(lemmas.to_elementary(red))
    assert [d.rho for d in again.boundary] == [d.rho for d in red.boundary]


def test_product_structure():
    inst35, inst41 = case(35), case(41)
    s35 = inst35.support_skeleton(inst35.option("gamma"))
    s41 = inst41.support_skeleton(inst41.option("gamma"))
    prod = lemmas.product(s35, s41)
    assert prod.system.root_system.components == (("B", 3), ("G", 2))
    assert prod.system.budget == 6 + 5 == 11
    a = sk.pairing_matrix(prod)
    # block-diagonal pairing: first-factor rows vanish on second-factor roots
    assert a[0][1] == 0 and a[1][0] == 0
    assert len(prod.system.colors) == 2 and len(prod.boundary) == 2


def test_product_with_empty_skeleton_is_identity_like():
    rs = rootsys.build_root_system([("A", 1)])
    empty = SphericalSkeleton(SphericalSystem(rs, frozenset({0}), (), ()), ())
    inst = case(41)
    s41 = inst.support_skeleton(inst.option("gamma"))
    prod = lemmas.product(s41, empty)
    assert mukai.check_conjecture(prod).p_value == 5
    assert prod.system.budget == 5  # the A1 factor lies in S^p


def test_check_distinguished_certificate():
    inst = case(36, p=2)
    assert sk.check_distinguished_certificate(
        inst.system, ("D1+", "D1-"), (0,), (1, 1)
    )
    # wrong strictness set
    assert not sk.check_distinguished_certificate(
        inst.system, ("D1+", "D1-"), (1,), (1, 1)
    )
    # empty subset is vacuously fine with empty Sigma'
    assert sk.check_distinguished_certificate(inst.system, (), (), ())
    with pytest.raises(ValueError):
        sk.check_distinguished_certificate(inst.system, ("D1+",), (0,), (0,))


def test_find_certificate_multipliers_case_31():
    inst = case(31, p=3)
    cert = inst.certificates[0]
    assert cert.sigma_prime == (1, 3)  # the even-index spherical roots
    c = sk.find_certificate_multipliers(inst.system, cert.delta_prime, cert.sigma_prime)
    assert c is not None
    assert sk.check_distinguished_certificate(
        inst.system, cert.delta_prime, cert.sigma_prime, c
    )
    # no certificate can make the full Sigma strictly positive here
    assert (
        sk.find_certificate_multipliers(inst.system, cert.delta_prime, (0, 1, 2, 3, 4))
        is None
    )
    # both helpers reject a Sigma' index that names no spherical root and an
    # unknown color
    for delta_prime, sigma_prime in [
        (cert.delta_prime, (1, 3, 99)),
        (cert.delta_prime, (-1, 1, 3)),
        (cert.delta_prime + ("nope",), cert.sigma_prime),
    ]:
        with pytest.raises(ValueError):
            sk.find_certificate_multipliers(inst.system, delta_prime, sigma_prime)
        with pytest.raises(ValueError):
            sk.check_distinguished_certificate(
                inst.system, delta_prime, sigma_prime, (1,) * len(delta_prime)
            )


def test_certificate_multipliers_pinned():
    # the multipliers c of every default-sweep certificate, one JSON line
    # [label, params, Sigma', c] each: the LP's vertex, not only its validity
    lines = []
    for inst in catalog.sweep_instances():
        for cert in inst.certificates:
            c = sk.find_certificate_multipliers(inst.system, cert.delta_prime, cert.sigma_prime)
            row = [inst.label, dict(inst.params), list(cert.sigma_prime)]
            lines.append(json.dumps([*row, [sk.frac_str(x) for x in c]]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        706, "56b97936f74001d54f8cc7c5e7a4e08d7b0d0722331b987750f274dcb8c7c10c"
    )


def test_certificate_helpers_reject_inexact_weights_and_repeated_colors():
    system = case(34).system
    assert sk.check_distinguished_certificate(system, ("D4",), (1,), (1,))
    assert sk.check_distinguished_certificate(system, ("D4",), (1,), (F(1, 2),))
    # each equals or approximates a valid weight, so only a type check sees it
    for weight in (0.5, True, 1e-300):
        with pytest.raises(ValueError, match="int or Fraction"):
            sk.check_distinguished_certificate(system, ("D4",), (1,), (weight,))
    # one color named twice would get two multipliers
    with pytest.raises(ValueError, match="twice"):
        sk.check_distinguished_certificate(system, ("D4", "D4"), (1,), (1, 1))
    with pytest.raises(ValueError, match="twice"):
        sk.find_certificate_multipliers(system, ("D4", "D4"), (1,))
    assert sk.find_certificate_multipliers(system, ("D4",), (1,)) == (F(1),)


@pytest.mark.parametrize("combined", [False, True])
def test_boundary_support_indices_checked(combined):
    system = case(41).system  # one spherical root
    assert lemmas.support(sk.with_boundary_support(system, [0], combined=combined)) == {0}
    with pytest.raises(ValueError, match=r"\[5, -1, 0\.0\]"):
        sk.with_boundary_support(system, [0, 5, -1, 0.0], combined=combined)
    with pytest.raises(ValueError, match=r"\[-1\]"):
        sk.with_boundary_support(system, [-1], combined=combined)


def test_support_separation_indices_checked():
    system = case(41).system  # one spherical root, and {0} is complete
    assert sk.support_separation(system, [0, 0]) is None
    with pytest.raises(ValueError, match=r"\[5, -1, 0\.0\]"):
        sk.support_separation(system, [0, 5, -1, 0.0])


def test_duplicate_boundary():
    inst = case(41)
    skel = inst.support_skeleton(inst.option("gamma"))
    doubled = lemmas.duplicate_boundary(skel, skel.boundary[0].name)
    assert len(doubled.boundary) == 2
    assert doubled.boundary[0].rho == doubled.boundary[1].rho
    assert lemmas.support(doubled) == lemmas.support(skel)
    with pytest.raises(ValueError):
        lemmas.duplicate_boundary(skel, "nope")


def test_invariant_violations():
    rs = rootsys.build_root_system([("A", 2)])
    sigma = ((1, 0), (0, 1))
    color = Color(name="D1", rho=(2, -1), moved_by=(0,))
    system = SphericalSystem(rs, frozenset(), sigma, (color,))
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSkeleton(system, (BoundaryDivisor("E", (1, 0)),))
    assert err.value.invariant == "boundary-nonpositive"
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSkeleton(system, (BoundaryDivisor("E", (0, 0)),))
    assert err.value.invariant == "boundary-rho-nonzero"
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSystem(rs, frozenset(), ((1, 0), (2, 0)), ())
    assert err.value.invariant == "sigma-independent"
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSystem(
            rs, frozenset(), sigma, (Color(name="D", rho=(1, 0), moved_by=()),)
        )
    assert err.value.invariant == "color-moved-by"
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSystem(rs, frozenset(), sigma, (replace(color, moved_by=(0, 0)),))
    assert err.value.invariant == "moved-by-distinct"
    # a float pairing would put floating point into the solve path
    with pytest.raises(SkeletonInvariantError) as err:
        SphericalSkeleton(system, (BoundaryDivisor("E", (-0.5, 0)),))
    assert err.value.invariant == "boundary-rho-integer"
    # a float or a Fraction equal to the valid color's rho, so only a type
    # check sees it, and a bool, which would read as 1
    for rho in ((2.0, -1.0), (F(2), -1), (2, F(-1)), (True, -1)):
        with pytest.raises(SkeletonInvariantError) as err:
            SphericalSystem(rs, frozenset(), sigma, (replace(color, rho=rho),))
        assert err.value.invariant == "color-rho-integer"
    # True == 1 and 1.0 == 1 as well: D1 read as moved by alpha_2, a float
    # Sigma evaluated to Equal
    system = case(31, p=2).system
    d1 = replace(system.colors[0], moved_by=(True,))
    float_sigma = tuple(tuple(float(v) for v in g) for g in system.sigma)
    for changes, invariant in (
        ({"colors": (d1,) + system.colors[1:]}, "moved-by-integer"),
        ({"sigma": float_sigma}, "sigma-integer"),
        ({"sp": frozenset({True})}, "sp-integer"),
    ):
        with pytest.raises(SkeletonInvariantError) as err:
            replace(system, **changes)
        assert err.value.invariant == invariant


def test_boundary_checks_name_the_first_broken_invariant():
    # the checks run in a fixed order, so a divisor that breaks two names
    # the first
    rs = rootsys.build_root_system([("A", 2)])
    color = Color(name="D1", rho=(2, -1), moved_by=(0,))
    system = SphericalSystem(rs, frozenset(), ((1, 0), (0, 1)), (color,))
    for rho, invariant in (
        ((F(-1),), "boundary-rho-length"),  # the wrong length and not an int
        ((F(-1, 2), 1), "boundary-rho-integer"),  # a Fraction and a positive entry
        ((-1, True), "boundary-rho-integer"),  # True == 1 would read as positive
        ((False, -1), "boundary-rho-integer"),  # False == 0 would read as valid
        ((0, 1), "boundary-nonpositive"),
        ((0, 0), "boundary-rho-nonzero"),
    ):
        with pytest.raises(SkeletonInvariantError) as err:
            SphericalSkeleton(system, (BoundaryDivisor("E", (-1, 0)), BoundaryDivisor("X", rho)))
        assert err.value.invariant == invariant, rho
    # valid rows and the empty rho over an empty Sigma pass; a repeated name
    # is named once every row has passed
    valid = (BoundaryDivisor("E", (-2, 0)), BoundaryDivisor("F", (0, -1)))
    assert SphericalSkeleton(system, valid).boundary == valid
    empty = SphericalSystem(rootsys.build_root_system([("A", 1)]), frozenset(), (),
                            (Color(name="D", rho=(), moved_by=(0,)),))
    assert SphericalSkeleton(empty, (BoundaryDivisor("E", ()),)).boundary[0].rho == ()
    for boundary, name in (
        ((BoundaryDivisor("E", (-1, 0)), BoundaryDivisor("E", (0, -1))), "'E'"),
        ((BoundaryDivisor("D1", (-1, 0)),), "'D1'"),
    ):
        with pytest.raises(SkeletonInvariantError, match=name) as err:
            SphericalSkeleton(system, boundary)
        assert err.value.invariant == "divisor-names-unique"


FUZZ_VALUES = (None, True, 0, -1, 3, 1.5, "1/2", "x", "1/0", [], {}, 10**30)


def _mutate(doc, rng):
    """Delete a key or entry, duplicate a list entry, or replace a value."""
    nodes = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            nodes.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    parent, key = rng.choice(nodes)
    action = rng.randrange(3)
    if action == 0:
        del parent[key]
    elif action == 1 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))


def test_from_dict_fuzz():
    # one- and two-step mutations of every exported smoke-sweep skeleton: each
    # document is a skeleton or is rejected with a named reason, never a crash
    docs = []
    for inst in catalog.sweep_instances(profile=cli.load_sweep_profile("smoke")):
        docs.append(sk.to_dict(SphericalSkeleton(inst.system, ())))
        docs += [sk.to_dict(inst.support_skeleton(opt)) for opt in inst.options]
    rng = random.Random(2001)
    outcomes = {"built": 0, "parse": 0, "invariant": 0}
    for _ in range(2000):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 2)):
            _mutate(doc, rng)
        try:
            sk.from_dict(doc)
            outcomes["built"] += 1
        except SkeletonParseError:
            outcomes["parse"] += 1
        except SkeletonInvariantError:
            outcomes["invariant"] += 1
    assert len(docs) == 108
    assert all(outcomes.values()), outcomes


RS_A2 = rootsys.build_root_system([("A", 2)])
SIGMA_A2 = ((1, 1),)
GOOD_A2 = dict(
    root_system=RS_A2,
    sp=frozenset(),
    sigma=SIGMA_A2,
    colors=(Color(name="D", rho=(1,), moved_by=(0,)),),
)
GAMMA_A2 = (BoundaryDivisor("E", (-1,)),)
# 31/p=2 built in Python: D1, D2 and D3 are its colors' basis B, and
# D4 = D1 - D2/2 + D3/2 puts their coordinates over the denominator 2
CASE_31_P2 = dict(
    root_system=rootsys.build_root_system([("A", 4)]),
    sp=frozenset(),
    sigma=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)),
    colors=(
        Color(name="D1", rho=(1, -1, 0), moved_by=(0,)),
        Color(name="D2", rho=(1, 1, -1), moved_by=(1,)),
        Color(name="D3", rho=(-1, 1, 1), moved_by=(2,)),
        Color(name="D4", rho=(0, -1, 1), moved_by=(3,)),
    ),
)
GAMMA_31 = (BoundaryDivisor("E", (-1, 0, 0)),)


def _a2_with_color(**changes):
    """GOOD_A2 with its color changed."""
    color = replace(GOOD_A2["colors"][0], **changes)
    return SphericalSystem(**{**GOOD_A2, "colors": (color,)})


# one failing construction each for invariants no other test reaches
UNREACHED = {
    "sigma-length": lambda: SphericalSystem(**{**GOOD_A2, "sigma": ((1, 1, 0),)}),
    "color-rho-length": lambda: _a2_with_color(rho=(1, 0)),
    "moved-by-range": lambda: _a2_with_color(moved_by=(5,)),
    "boundary-rho-length": lambda: SphericalSkeleton(
        SphericalSystem(**GOOD_A2), (BoundaryDivisor("E", (-1, 0)),)
    ),
    # in A3 with S^p = {alpha_3}, 2rho_{S^p} = alpha_3 pairs to 0 with alpha_1^vee
    # and to -1 with alpha_2^vee: m_D would be 2 and 3
    "multiplicity-well-defined": lambda: SphericalSystem(
        rootsys.build_root_system([("A", 3)]),
        frozenset({2}),
        (),
        (Color(name="D", rho=(), moved_by=(0, 1)),),
    ),
}


@pytest.mark.parametrize("invariant", sorted(UNREACHED))
def test_unreached_invariants(invariant):
    with pytest.raises(SkeletonInvariantError) as err:
        UNREACHED[invariant]()
    assert err.value.invariant == invariant


def test_system_stores_integral_values_as_int():
    # one representation of rho, in the system and in its file: ints, so the
    # LPs built on the system hold ints; its basis's coordinates are ints over den
    system = SphericalSystem(**CASE_31_P2)
    assert system == catalog.instantiate(31, p=2).system
    assert system.multiplicities == (2, 2, 2, 2) and system.budget == 10
    loaded = sk.from_dict(sk.to_dict(SphericalSkeleton(system, GAMMA_31))).system
    for built in (system, loaded):
        values = [v for color in built.colors for v in color.rho]
        assert {type(v) for v in [*values, *built.multiplicities, built.budget]} == {int}
    # B^-1 = (1/2)[[2, 0, 2], [1, 1, 0], [1, 1, 2]], and D4's coordinates are
    # (1, -1/2, 1/2)
    basis = system.basis
    assert basis == exactlp.SpanBasis(
        indices=(0, 1, 2), inverse=((2, 1, 1), (0, 1, 1), (2, 0, 2)), coords=((2, -1, 1),),
        den=2,
    )
    values = [*basis.indices, *(x for row in basis.inverse + basis.coords for x in row)]
    assert {type(x) for x in values} == {int} and type(basis.den) is int and basis.den > 0
    assert loaded.basis == basis


def _save_load(skel, path):
    sk.save(skel, str(path))
    return sk.load(str(path))


def test_api_built_systems_survive_a_file_round_trip(tmp_path):
    skel = SphericalSkeleton(SphericalSystem(**CASE_31_P2), GAMMA_31)
    loaded = _save_load(skel, tmp_path / "a4.json")
    assert loaded == skel and loaded.system.basis == skel.system.basis
    # the catalog builds its systems through the same API
    for inst in catalog.sweep_instances(profile=cli.load_sweep_profile("smoke")):
        skel = SphericalSkeleton(inst.system, ())
        assert _save_load(skel, tmp_path / "case.json") == skel, inst.label


def test_system_checks_run_once_per_system(monkeypatch):
    checks = []
    check = SphericalSystem.__post_init__

    def counting(system):
        checks.append(system)
        check(system)

    monkeypatch.setattr(SphericalSystem, "__post_init__", counting)
    instances = catalog.sweep_instances(family=31)
    for inst in instances:
        for opt in inst.options:
            elem = lemmas.to_elementary(inst.support_skeleton(opt))
            lemmas.duplicate_boundary(elem, elem.boundary[0].name)
        assert mukai.enumerate_minimal_complete_supports(inst.system, 3)
    assert len(instances) == 5
    assert checks == [inst.system for inst in instances]


def test_file_round_trip(tmp_path):
    inst = case(32, p=3)
    skel = inst.support_skeleton(inst.option("gamma_1"))
    path = tmp_path / "skel.json"
    sk.save(skel, str(path))
    loaded = sk.load(str(path))
    assert loaded.system.sigma == skel.system.sigma
    assert [c.rho for c in loaded.system.colors] == [c.rho for c in skel.system.colors]
    assert mukai.check_conjecture(loaded) == mukai.check_conjecture(skel)
    # a color is written as its name, rho and movers alone
    data = json.loads(path.read_text())
    assert all(list(c) == ["name", "rho", "moved_by"] for c in data["colors"])


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SkeletonParseError):
        sk.load(str(bad))
    bad.write_text(json.dumps({"root_system": [{"series": "Q", "rank": 1}]}))
    with pytest.raises(SkeletonParseError):
        sk.load(str(bad))
    bad.write_text(
        json.dumps(
            {
                "root_system": [{"series": "A", "rank": 1}],
                "sigma": [[1]],
                "colors": [{"name": "D", "rho": ["1/0"], "moved_by": [0]}],
                "boundary": [],
            }
        )
    )
    with pytest.raises(SkeletonParseError):
        sk.load(str(bad))


# each replaces part of GOOD_A2 and breaks one Gamma-independent invariant
BAD_A2_SYSTEMS = {
    "sigma-independent": {"sigma": ((1, 1), (2, 2)), "colors": ()},
    # alpha_2 in S^p moves no color (else m_D = 2 - <alpha_2^vee, alpha_2> = 0)
    "spherical-system-movers": {
        "sp": frozenset({1}),
        "colors": (Color(name="D", rho=(1,), moved_by=(1,)),),
    },
    # alpha_1^vee is 1 on alpha_1 + alpha_2, yet D1 stores 3: compute would
    # read P = 5 over the budget 3 as a Violation
    "color-forced": {
        "colors": (
            Color(name="D1", rho=(3,), moved_by=(0,)),
            Color(name="D2", rho=(1,), moved_by=(1,)),
        ),
    },
    # A_3 with Sigma = {2 alpha_1, alpha_1 + alpha_2}: alpha_1^vee is 1 on
    # alpha_1 + alpha_2, so D, which the type-2a alpha_1 moves, would store
    # half of it, (2, 1/2); Luna's axiom Sigma1 forbids that Sigma
    "color-rho-integer": {
        "root_system": rootsys.build_root_system([("A", 3)]),
        "sigma": ((2, 0, 0), (1, 1, 0)),
        "colors": (
            Color(name="D", rho=(2, F(1, 2)), moved_by=(0,)),
            Color(name="D'", rho=(-2, 1), moved_by=(1,)),
            Color(name="D''", rho=(0, -1), moved_by=(2,)),
        ),
    },
    "sp-range": {"sp": frozenset({5})},
    # a certificate helper, which takes a system, would read the last "D"
    "divisor-names-unique": {"colors": GOOD_A2["colors"] * 2},
}


def _rank(series, rank):
    return rootsys.build_root_system([(series, rank)])


# the movers color-forced reads past type b (BAD_A2_SYSTEMS): (root system,
# S^p, Sigma, the one color's rho and movers, invariant or None)
FORCED_COLORS = {
    "type-2a-half": (_rank("A", 1), (), ((2,),), (2,), (0,), None),
    "type-2a-whole": (_rank("A", 1), (), ((2,),), (4,), (0,), "color-forced"),
    # a type-a color takes 1 on its root, half of alpha^vee: A2 binds the
    # pair of them, not this rule
    "type-a-free": (_rank("A", 1), (), ((1,),), (1,), (0,), None),
    # alpha_2 in S^p moves no color, whatever its rho
    "mover-in-sp-free": (_rank("A", 2), (1,), ((1, 1),), (5,), (1,), "spherical-system-movers"),
    # a shared color answers to both movers: alpha_1^vee is (2, 0) and
    # alpha_3^vee is (2, -1) on Sigma, so no rho passes
    "shared-sigma2-broken": (
        _rank("A", 4), (), ((1, 0, 1, 0), (0, 0, 0, 1)), (2, 0), (0, 2), "color-forced"
    ),
}


@pytest.mark.parametrize("name", list(FORCED_COLORS))
def test_color_forced_by_each_mover(name):
    rs, sp, sigma, rho, moved_by, invariant = FORCED_COLORS[name]
    args = (rs, frozenset(sp), sigma, (Color("D", rho, moved_by),))
    if invariant is None:
        assert SphericalSystem(*args).colors[0].rho == rho
    else:
        with pytest.raises(SkeletonInvariantError) as err:
            SphericalSystem(*args)
        assert err.value.invariant == invariant


@pytest.mark.parametrize("invariant", sorted(BAD_A2_SYSTEMS))
def test_system_checks_run_on_every_construction(tmp_path, invariant):
    # a valid system and its derived Gammas on the same root system first
    good = SphericalSystem(**GOOD_A2)
    assert sk.multiplicities(sk.with_boundary_support(good, (0,))) == (2, 1)
    bad = {**GOOD_A2, **BAD_A2_SYSTEMS[invariant]}
    boundary = () if invariant == "sigma-independent" else GAMMA_A2
    path = tmp_path / "bad.json"
    # to_dict reads the fields only, so it can write a system that never validated
    doc = sk.to_dict(SimpleNamespace(system=SimpleNamespace(**bad), boundary=boundary))
    path.write_text(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(SkeletonInvariantError) as err:
            SphericalSystem(**bad)
        assert err.value.invariant == invariant
        with pytest.raises(SkeletonInvariantError) as err:
            sk.load(str(path))
        assert err.value.invariant == invariant


def test_every_invariant_is_documented():
    root = pathlib.Path(__file__).resolve().parents[1]
    names = set()
    for path in (root / "src" / "sphskel").glob("*.py"):
        names |= set(re.findall(r'SkeletonInvariantError\(\s*"([^"]+)"', path.read_text()))
    readme = (root / "README.md").read_text()
    assert len(names) == 22
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


def test_readme_file_format_example_loads():
    # the documented format is the one the reader takes and the writer writes
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Skeleton file format", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    skel = sk.from_dict(doc)
    assert sk.to_dict(skel) == doc
    assert (skel.system.multiplicities, skel.system.budget) == ((4,), 13)

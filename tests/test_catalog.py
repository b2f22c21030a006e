import hashlib
import json
import re
from fractions import Fraction

import pytest

from sphskel import catalog, cli, mukai, skeleton as sk
from sphskel.rootsys import build_root_system
from oracles import EQUALITY_REGISTRY
from sphskel.catalog import FAMILIES

F = Fraction


def option(family, sub_case, key, **params):
    return catalog.instantiate(family, sub_case, **params).option(key)


def smallest_instances():
    """The first instance of every family's default sweep."""
    return [
        FAMILIES[key].build({name: r[0] for name, r in FAMILIES[key].ranges.items()})
        for key in catalog.family_keys()
    ]


def test_family_registry_shape():
    families = sorted({f for f, _ in FAMILIES})
    assert families == [31, 32, 33, 34, 35, 36, 37, 38, 39, 41] + list(range(42, 51))
    assert (43, "p,q!=0,r=0") in FAMILIES
    assert (48, "p=1") in FAMILIES and (48, "p>=1") in FAMILIES
    assert (50, "p=2q-1") in FAMILIES and (50, "p=2q") in FAMILIES


def test_instantiate_case_31():
    inst = catalog.instantiate(31, p=2)
    assert inst.system.root_system.components == (("A", 4),)
    assert len(inst.system.sigma) == 3
    assert len(inst.system.colors) == 4
    assert inst.system.sp == frozenset()


def test_instantiate_case_43_triple_a1():
    inst = catalog.instantiate(43, "p=q=r=0")
    d = inst.system.colors[0]
    assert d.name == "D" and d.rho == (F(1), F(1), F(-1))
    assert inst.system.root_system.components == (("A", 1),) * 3


def test_instantiate_case_50_shape():
    inst = catalog.instantiate(50, "p=2q-1", q=4)
    assert inst.system.root_system.components == (("B", 3), ("D", 4))
    assert len(inst.system.colors) == 7  # p colors
    assert len(inst.system.sigma) == 7
    assert dict(inst.params)["p"] == 7
    inst = catalog.instantiate(50, "p=2q", q=4)
    assert inst.system.root_system.components == (("B", 4), ("D", 4))
    assert len(inst.system.colors) == 8


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog.instantiate(31, p=1)
    with pytest.raises(ValueError):
        catalog.instantiate(48, "p>=1", p=1)  # degenerate printed header
    with pytest.raises(KeyError):
        catalog.instantiate(40)
    with pytest.raises(KeyError):
        catalog.instantiate(43, "bogus")
    # a parameter the case does not take, a fixed or derived one given another
    # value than the case states, a free one missing, or a value not an int
    for family, sub_case, params in [
        (31, "", {"p": 2, "q": 9}),
        (34, "", {"p": 5}),
        (44, "p=2", {"p": 3}),
        (50, "p=2q-1", {"q": 4, "p": 8}),
        (31, "", {}),
        (43, "p!=0,q=r=0", {"p": True}),
        (31, "", {"p": 3.0}),
        # a fixed parameter given another value is never read: a builder that
        # reads it would build another sub-case, whose parameters match
        (43, "p!=0,q=r=0", {"p": 1, "q": 3}),
        (43, "p=q=r=0", {"r": 2}),
        (47, "p=0", {"q": 1, "p": 2}),
        (42, "p=0", {"q": 1, "p": 1}),
        (45, "p=2", {"q": 1, "p": 3}),
    ]:
        with pytest.raises(ValueError):
            catalog.instantiate(family, sub_case, **params)
    assert dict(catalog.instantiate(44, "p=2", p=2).params) == {"p": 2}
    assert dict(catalog.instantiate(50, "p=2q-1", q=4, p=7).params) == {"q": 4, "p": 7}
    # the least value of each free parameter is the start of its range
    for spec in FAMILIES.values():
        least = {name: values.start for name, values in spec.ranges.items()}
        inst = catalog.instantiate(spec.family, spec.sub_case, **least)
        assert dict(inst.params).items() >= least.items()
        for name in least:
            with pytest.raises(ValueError):
                catalog.instantiate(
                    spec.family, spec.sub_case, **{**least, name: least[name] - 1}
                )


def test_expected_p_closed_forms():
    assert option(31, "", "gamma_5", p=3).expected_p == 21  # 2p^2+p
    assert option(31, "", "gamma_3", p=3).expected_p == 11
    assert option(50, "p=2q-1", "alpha'_4", q=4).expected_p == 6  # (p-1)(p-3)/4
    assert option(42, "p=0", "gamma_2", q=3).expected_p == 13  # 4q+1
    assert option(49, "", "alpha'_3", p=5).expected_p == 9  # p^2-2(p-k)(k+1)


def test_expected_theta_closed_forms():
    assert option(36, "", "gamma_2", p=4).expected_theta == (F(9), F(1))
    assert option(38, "", "gamma_1,gamma_2").expected_theta == (F(1), F(1), F(5))
    assert option(43, "p,q!=0,r=0", "gamma_3,gamma_5", p=1, q=1).expected_theta == (
        F(7), F(3), F(1), F(3), F(1),
    )
    # no printed maximizer for strict cases
    assert option(39, "", "gamma_1").expected_theta is None


def test_equality_registry():
    assert len(EQUALITY_REGISTRY) == 13
    assert [e.bullet for e in EQUALITY_REGISTRY] == list(range(13))
    assert [e.list_l for e in EQUALITY_REGISTRY] == [
        "24", "38 (n=2)", "16", "15", "38 (n>2)", "20", "18", "10",
        "35", "40", "42", "13", "28",
    ]
    assert [(e.family, e.sub_case) for e in EQUALITY_REGISTRY] == [
        (31, ""), (32, ""), (34, ""), (35, ""), (36, ""), (38, ""), (41, ""),
        (42, "p=0"), (43, "p=q=r=0"), (43, "p!=0,q=r=0"), (43, "p,q!=0,r=0"),
        (46, "p=5"), (49, ""),
    ]
    # every bullet is realized by some Equal sweep option, and every Equal
    # option's case is registered
    bullet_of = {(e.family, e.sub_case): e.bullet for e in EQUALITY_REGISTRY}
    bullets = {
        bullet_of[(inst.family, inst.sub_case)]
        for inst in catalog.sweep_instances()
        for opt in inst.options
        if opt.expected_relation == mukai.EQUAL
    }
    assert bullets == set(range(13))


def test_coroot_attachments_consistent():
    # the stored rho of every color moved by a root alpha of type b (alpha,
    # 2 alpha not in Sigma, alpha not in S^p) or 2a is alpha^vee on Sigma,
    # half of it for 2a, recomputed root by root
    from sphskel.rootsys import coroot_pairing

    checked = 0
    for inst in smallest_instances():
        system = inst.system
        for color in system.colors:
            for idx in color.moved_by:
                alpha = tuple(int(j == idx) for j in range(system.root_system.rank))
                if idx in system.sp or alpha in system.sigma:
                    continue
                scale = F(1, 2) if tuple(2 * v for v in alpha) in system.sigma else 1
                expect = tuple(
                    scale * coroot_pairing(system.root_system, idx, g) for g in system.sigma
                )
                assert color.rho == expect, (inst.label, color.name, idx)
                checked += 1
    assert checked > 20


def test_typo_fixes_recorded():
    assert catalog.instantiate(37, p=2).typo_fixes
    assert catalog.instantiate(42, "p>=1", p=1, q=1).typo_fixes
    assert catalog.instantiate(45, "p=2", q=1).typo_fixes
    assert any("S^p" in fix for fix in catalog.instantiate(48, "p>=1", p=2).typo_fixes)
    assert any(
        "alpha'_{p+1-i}" in fix for fix in catalog.instantiate(49, p=3).typo_fixes
    )
    assert catalog.instantiate(46, "p=6", p=6).typo_fixes


def test_sweep_instances_filtering():
    only34 = catalog.sweep_instances(family=34)
    assert len(only34) == 1
    sub = catalog.sweep_instances(family=43, sub_case="p,q!=0,r=0")
    assert len(sub) == 25
    pinned = catalog.sweep_instances(family=31, overrides={"p": 4})
    assert len(pinned) == 1 and dict(pinned[0].params) == {"p": 4}
    ranged = catalog.sweep_instances(
        family=31, profile={"31": {"p": [2, 3]}}
    )
    assert [dict(i.params)["p"] for i in ranged] == [2, 3]
    # a repeated value would build its instance twice
    with pytest.raises(catalog.UsageError, match="'31': p lists 2 twice"):
        catalog.sweep_instances(family=31, profile={"31": {"p": [2, 3, 2]}})
    # a sub-case entry goes over a family entry, and a parameter it does not
    # name keeps its range
    profile = {"42": {"q": [2]}, "42/p>=1": {"p": [3, 4]}}
    layered = catalog.sweep_instances(family=42, profile=profile)
    assert [dict(i.params) for i in layered] == [
        {"p": 0, "q": 2}, {"p": 3, "q": 2}, {"p": 4, "q": 2},
    ]
    # a pin may leave the range; one on a fixed parameter selects the sub-case
    pinned = catalog.sweep_instances(family=42, sub_case="p>=1", overrides={"p": 9})
    assert [dict(i.params) for i in pinned] == [{"p": 9, "q": q} for q in range(1, 6)]
    assert [i.sub_case for i in catalog.sweep_instances(family=46, overrides={"p": 5})] == ["p=5"]


def test_smallest_instances_reproduce_expected_values():
    # the full sweep runs in the acceptance suite; spot the smallest ones here
    for inst in smallest_instances():
        for opt in inst.options:
            verdict = mukai.check_conjecture(inst.support_skeleton(opt))
            assert verdict.complete, (inst.label, opt.key)
            assert verdict.relation == opt.expected_relation, (inst.label, opt.key)
            if opt.expected_p is not None:
                assert verdict.p_value == opt.expected_p, (inst.label, opt.key)
            if opt.expected_theta is not None:
                assert verdict.theta == opt.expected_theta, (inst.label, opt.key)


def test_exportability_of_every_family(tmp_path):
    instances = smallest_instances()
    assert len(instances) == len(FAMILIES) == 31
    for inst in instances:
        path = tmp_path / f"{inst.family}_{abs(hash(inst.sub_case))}.json"
        sk.save(sk.SphericalSkeleton(inst.system, ()), str(path))
        loaded = sk.load(str(path))
        assert loaded.system.sigma == inst.system.sigma


def test_catalog_system_data_pinned():
    # every color's name, position, rho and moved_by, and every sigma
    # label, over the default and the deep sweep (family 50 up to q=15), over
    # families 43 at p=30 and 47 at q=40, past deep, where the A_1/C_{k+1}
    # block rule lays out every sub-case, and over every sub-case of 42, 44
    # and 45 past deep; P alone misses a changed name or mover
    blocks = catalog.sweep_instances(family=43, overrides={"p": 30})
    blocks += catalog.sweep_instances(family=47, overrides={"q": 40})
    small = catalog.sweep_instances(family=42, overrides={"q": 40})
    small += catalog.sweep_instances(family=44, overrides={"p": 48})
    small += catalog.sweep_instances(family=45, overrides={"q": 40})
    for label, instances, count, expected in [
        ("default", catalog.sweep_instances(profile=cli.load_sweep_profile("default")), 309,
         "090b58c9e9a7cb9a3a2bf326997c8a4d45c571bd10623fe586b5ad82e42c768b"),
        ("deep", catalog.sweep_instances(profile=cli.load_sweep_profile("deep")), 676,
         "6b949b687390b9c26d379fb1d742acb1f2a8a95ddc7311349a89a48eaf8a1a79"),
        ("43 p=30, 47 q=40", blocks, 37,
         "90a3723b0fd1e9399891c5c8c5002975d9f3a41c789eb4e6f7ea5db576a2a750"),
        ("42 q=40, 44 p=48, 45 q=40", small, 14,
         "2ca7e7903823eb28b909817c6feaba0c4420fd34fe8f919cad1fb5ca49404d07"),
    ]:
        digest = hashlib.sha256()
        for inst in instances:
            bare = sk.SphericalSkeleton(inst.system, ())
            digest.update(json.dumps(sk.to_dict(bare), sort_keys=True).encode())
            digest.update(json.dumps(inst.sigma_labels).encode())
        assert len(instances) == count, label
        assert digest.hexdigest() == expected, label


def test_span_bases_pinned():
    # the SpanBasis of every deep-profile system: the greedy colors, the
    # inverse read off the pivot columns, the other colors' coordinates and
    # den, pinned to the digest of the [V^T | I] elimination they replaced
    instances = catalog.sweep_instances(profile=cli.load_sweep_profile("deep"))
    digest = hashlib.sha256()
    for inst in instances:
        b = inst.system.basis
        digest.update(repr((b.indices, b.inverse, b.coords, b.den)).encode())
    assert len(instances) == 676
    assert digest.hexdigest() == "8ded64e31c4071bd8580b0279d63bffff66ce3d51faf4efd8f1909797904bc11"


def test_sigma_labels_derived():
    assert catalog.instantiate(43, "p=q=r=0").sigma_labels == (
        "alpha_1", "alpha'_1", "alpha''_1",
    )
    assert catalog.instantiate(46, "p=4").sigma_labels == (
        "alpha_1", "alpha_2", "alpha'_1", "alpha''_1",
    )
    assert catalog.instantiate(35).sigma_labels == ("gamma",)
    assert catalog.instantiate(33, p=3).sigma_labels == ("gamma_1", "gamma_2", "gamma_3")


# Luna's data of 43/p=q=r=0 (three type-a roots) and of 31/p=2 (four type-b roots)
A1_CUBED = (build_root_system([("A", 1)] * 3), (), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
COLORS_43 = [
    ("D", {0: 1, 1: 1, 2: -1}),
    ("D'", {0: 1, 1: -1, 2: 1}),
    ("D''", {0: -1, 1: 1, 2: 1}),
]
A4_CHAINS = (build_root_system([("A", 4)]), (), [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
COLORS_31 = [(f"D{i + 1}", i) for i in range(4)]
A4_SIGMA2_BROKEN = (build_root_system([("A", 4)]), (), [(1, 0, 1, 0), (0, 0, 0, 1)])
COLORS_SIGMA2_BROKEN = [("D1", 0), ("D2", 1), ("D4+", {1: 1}), ("D4-", {0: -1, 1: 1})]
# Sigma1 broken: alpha_1^vee is 1 on alpha_1 + alpha_2, so the color of the
# type-2a alpha_1 would take half of it, (2, 1/2)
A3_SIGMA1_BROKEN = (build_root_system([("A", 3)]), (), [(2, 0, 0), (1, 1, 0)])
COLORS_SIGMA1_BROKEN = [("D", 0), ("D'", 1), ("D''", 2)]
CASE_39 = (build_root_system([("D", 5)]), (2,), [
    (1, 0, 0, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1), (0, 0, 1, 1, 1),
])
COLORS_39 = [
    ("D1+", {0: 1, 1: -1}), ("D1-", {0: 1, 2: -1}), ("D2", 1), ("D4", 3), ("D5", 4),
]


def test_spherical_system_reproduces_the_catalog():
    assert catalog._spherical_system(*A1_CUBED, COLORS_43) == catalog.instantiate(
        43, "p=q=r=0"
    ).system
    assert catalog._spherical_system(*A4_CHAINS, COLORS_31) == catalog.instantiate(
        31, p=2
    ).system
    assert catalog._spherical_system(*CASE_39, COLORS_39) == catalog.instantiate(39).system


@pytest.mark.parametrize(
    "data,colors,invariant",
    [
        # one type-a value misprinted: D + D' is no longer alpha_1^vee on Sigma
        (A1_CUBED, [("D", {0: 1, 1: 1, 2: 0})] + COLORS_43[1:], "spherical-system-a2"),
        # a type-a color takes 2 on a spherical root
        (A1_CUBED, [("D", {0: 1, 1: 2, 2: -1})] + COLORS_43[1:], "spherical-system-a1"),
        # a type-a color that takes 1 on no root of Sigma is moved by none
        (A1_CUBED, [("D", {0: -1})] + COLORS_43[1:], "spherical-system-a1"),
        # D1+ of case 39 takes 1 on gamma_2, which is not a simple root
        (CASE_39, [("D1+", {0: 1, 1: 1})] + COLORS_39[1:], "spherical-system-a1"),
        # a color dropped
        (A1_CUBED, COLORS_43[1:], "spherical-system-a2"),
        (A4_CHAINS, COLORS_31[1:], "spherical-system-movers"),
        # a color listed twice
        (A1_CUBED, COLORS_43 + COLORS_43[:1], "spherical-system-a2"),
        (A4_CHAINS, COLORS_31 + COLORS_31[:1], "spherical-system-movers"),
        # a forced color of a root in S^p
        ((A4_CHAINS[0], (3,), A4_CHAINS[2]), COLORS_31, "spherical-system-movers"),
        # Sigma2 broken: D1, shared by the orthogonal alpha_1 and alpha_3 of type
        # b, stores alpha_1^vee = (2, 0), where alpha_3^vee is (2, -1)
        (A4_SIGMA2_BROKEN, COLORS_SIGMA2_BROKEN, "color-forced"),
        (A3_SIGMA1_BROKEN, COLORS_SIGMA1_BROKEN, "color-rho-integer"),
    ],
)
def test_spherical_system_rejects_what_luna_forbids(data, colors, invariant):
    with pytest.raises(sk.SkeletonInvariantError) as err:
        catalog._spherical_system(*data, colors)
    assert err.value.invariant == invariant
    if invariant == "color-rho-integer":
        assert "Sigma1" in str(err.value)


def test_luna_identification_of_shared_colors():
    # orthogonal alpha, beta of type b with alpha + beta in Sigma share one color
    for q in range(1, 6):
        first = catalog.instantiate(42, "p=0", q=q).system.colors[0]
        assert (first.name, first.moved_by) == ("D'1", (0, 1))
        for p in range(1, 6):
            first = catalog.instantiate(42, "p>=1", p=p, q=q).system.colors[0]
            assert (first.name, first.moved_by) == ("D1", (0, p + 1))
    rs = build_root_system([("A", 1), ("A", 1)])
    shared = catalog._spherical_system(rs, (), [(1, 1)], [("D", 0)])
    assert shared.colors[0].moved_by == (0, 1)
    with pytest.raises(sk.SkeletonInvariantError) as err:
        catalog._spherical_system(rs, (), [(1, 1)], [("D", 0), ("D'", 1)])
    assert err.value.invariant == "spherical-system-movers"


# The parameters each sub-case key states, at its free parameters' least
# values: free and fixed sorted by name, then derived.
STATED_AT_LEAST = {
    (31, ""): (("p", 2),),
    (32, ""): (("p", 2),),
    (33, ""): (("p", 2),),
    (34, ""): (),
    (35, ""): (),
    (36, ""): (("p", 2),),
    (37, ""): (("p", 2),),
    (38, ""): (),
    (39, ""): (),
    (41, ""): (),
    (42, "p=0"): (("p", 0), ("q", 1)),
    (42, "p>=1"): (("p", 1), ("q", 1)),
    (43, "p!=0,q=r=0"): (("p", 1), ("q", 0), ("r", 0)),
    (43, "p,q!=0,r=0"): (("p", 1), ("q", 1), ("r", 0)),
    (43, "p,q,r!=0"): (("p", 1), ("q", 1), ("r", 1)),
    (43, "p=q=r=0"): (("p", 0), ("q", 0), ("r", 0)),
    (44, "p=2"): (("p", 2),),
    (44, "p>=3"): (("p", 3),),
    (45, "p=1"): (("p", 1), ("q", 1)),
    (45, "p=2"): (("p", 2), ("q", 1)),
    (45, "p>=3"): (("p", 3), ("q", 1)),
    (46, "p=4"): (("p", 4),),
    (46, "p=5"): (("p", 5),),
    (46, "p=6"): (("p", 6),),
    (47, "p=0"): (("p", 0), ("q", 1)),
    (47, "p>=1"): (("p", 1), ("q", 1)),
    (48, "p=1"): (("p", 1),),
    (48, "p>=1"): (("p", 2),),
    (49, ""): (("p", 2),),
    (50, "p=2q"): (("q", 4), ("p", 8)),
    (50, "p=2q-1"): (("q", 4), ("p", 7)),
}


def test_key_states_the_parameters():
    assert STATED_AT_LEAST.keys() == FAMILIES.keys()
    for key, expected in STATED_AT_LEAST.items():
        spec = FAMILIES[key]
        least = {name: values.start for name, values in spec.ranges.items()}
        assert tuple(spec.stated(least).items()) == expected, key
        assert spec.build(least).params == expected, key
    # a caller's value for a stated parameter is not read
    assert FAMILIES[(45, "p=1")].stated({"p": 9, "q": 1}) == {"p": 1, "q": 1}
    # p>=1 and p,q,r!=0 fix nothing: the stated parameters are the free ones
    assert FAMILIES[(48, "p>=1")].stated({"p": 2}) == {"p": 2}
    free = {"p": 1, "q": 2, "r": 3}
    assert FAMILIES[(43, "p,q,r!=0")].stated(free) == free


@pytest.mark.parametrize(
    "key", ["p<3", "p=q", "p=2q-", "p=", "p=-1", "p=2*q", "P=1", "p=1,", "p,,q"]
)
def test_key_outside_the_grammar_is_rejected(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        catalog.FamilySpec(99, key, {}, dict).stated({})


@pytest.fixture
def builds(monkeypatch):
    """The keys of the specs ``FamilySpec.build`` is called on, in order."""
    calls = []
    build = catalog.FamilySpec.build

    def counted(spec, params):
        calls.append(spec.key)
        return build(spec, params)

    monkeypatch.setattr(catalog.FamilySpec, "build", counted)
    return calls


# (label, params) of sweep_instances(overrides={"p": 30}), as kept when every
# combination was built and the ones a pin contradicts were dropped
PINNED_P30 = [
    ("31", (("p", 30),)), ("32", (("p", 30),)), ("33", (("p", 30),)), ("34", ()), ("35", ()),
    ("36", (("p", 30),)), ("37", (("p", 30),)), ("38", ()), ("39", ()), ("41", ()),
    *[("42/p>=1", (("p", 30), ("q", q))) for q in range(1, 6)],
    ("43/p!=0,q=r=0", (("p", 30), ("q", 0), ("r", 0))),
    *[("43/p,q!=0,r=0", (("p", 30), ("q", q), ("r", 0))) for q in range(1, 6)],
    *[("43/p,q,r!=0", (("p", 30), ("q", q), ("r", r))) for q in range(1, 6) for r in range(1, 6)],
    ("44/p>=3", (("p", 30),)),
    *[("45/p>=3", (("p", 30), ("q", q))) for q in range(1, 6)],
    *[("47/p>=1", (("p", 30), ("q", q))) for q in range(1, 6)],
    ("48/p>=1", (("p", 30),)), ("49", (("p", 30),)),
]


def test_a_pin_builds_only_what_it_keeps(builds):
    kept = catalog.sweep_instances(overrides={"p": 30})
    assert [(inst.label, inst.params) for inst in kept] == PINNED_P30
    assert len(builds) == len(kept) == 59
    # a pin on a parameter a key derives or fixes skips the other values unbuilt
    for overrides, count in (({"p": 5}, 60), ({"q": 3}, 99), ({"p": 7}, 60)):
        builds.clear()
        kept = catalog.sweep_instances(overrides=overrides)
        assert len(builds) == len(kept) == count, overrides
    builds.clear()
    only = catalog.sweep_instances(family=50, overrides={"p": 9})
    assert [(i.label, i.params) for i in only] == [("50/p=2q-1", (("q", 5), ("p", 9)))]
    assert builds == [(50, "p=2q-1")]


def test_rejected_instantiate_builds_nothing(builds):
    for family, sub_case, params, error in [
        (31, "", {"p": 1}, ValueError),
        (48, "p>=1", {"p": 1}, ValueError),
        (40, "", {}, KeyError),
        (43, "bogus", {}, KeyError),
        (31, "", {"p": 2, "q": 9}, ValueError),
        (34, "", {"p": 5}, ValueError),
        (44, "p=2", {"p": 3}, ValueError),
        (50, "p=2q-1", {"q": 4, "p": 8}, ValueError),
        (31, "", {}, ValueError),
        (43, "p!=0,q=r=0", {"p": True}, ValueError),
        (31, "", {"p": 3.0}, ValueError),
        (43, "p!=0,q=r=0", {"p": 1, "q": 3}, ValueError),
        (43, "p=q=r=0", {"r": 2}, ValueError),
        (47, "p=0", {"q": 1, "p": 2}, ValueError),
        (42, "p=0", {"q": 1, "p": 1}, ValueError),
        (45, "p=2", {"q": 1, "p": 3}, ValueError),
    ]:
        with pytest.raises(error):
            catalog.instantiate(family, sub_case, **params)
    assert builds == []
    catalog.instantiate(50, "p=2q-1", q=4, p=7)
    assert builds == [(50, "p=2q-1")]


def test_unknown_param_name_builds_nothing(builds, capsys):
    # the names come from the selected specs, so the CLI rejects a name no
    # selected case takes before it builds a single instance
    for case, name, where in (("all", "x", "the catalog"), ("31", "q", "case 31")):
        assert cli.main(["verify", "--case", case, "--param", f"{name}=3"]) == 2
        assert capsys.readouterr().err == f"error: {where} takes no parameter {name!r}\n"
        assert builds == []

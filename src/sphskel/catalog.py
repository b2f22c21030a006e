"""Parametrized generators for the non-symmetric case families 31-50.

Each family builds the spherical system (S^p, Sigma, Delta), the boundary
support options the case analysis computes (with the expected invariant
value, relation and maximizer where one is stated), and the
distinguished-subset data (Delta', Sigma') used to rule out non-complete
supports.  Data entry follows the printed tables; the few readings that
had to be corrected are flagged per entry in ``typo_fixes`` and asserted
by the test suite.

A builder returns only its case data, and its system states only Luna's data
(S^p, Sigma, the color names in order and the type-a values), from which
``_spherical_system`` derives the rest.  Family 50 states its colors by one
chain rule for both parities (see ``_build_50``): p = 2q - 1 takes the
colors of p = 2q from D2 on, renumbered down by one, with the chain one node
later on the B side and the end colors' signs on alpha'_{q-1}, alpha'_q
flipped.  Families 43 and 47, and 45 at p = 1, lay out their systems by one
block rule (see ``_c_blocks``): a parameter k is a block A_1 when k = 0 and
C_{k+1} otherwise, so one builder serves all sub-cases of 43 and of 47.
Families 42, 44 and 45 (p >= 2) have one builder each too, the small
sub-case being the general rule at its least p: 42 at p = 0 has A_1 for
C_{p+1}, and 44 and 45 at p = 2 only trade the chain's two forced colors for
the type-a pair on alpha_2 (see ``_chain_colors``).  The registry
``FAMILIES`` states each family's number, sub-case and sweep ranges, whose
starts are the free parameters' least values; the sub-case key states the
others (see ``_key_clauses``).  ``FamilySpec.build`` hands the builder the
free values and the key's, never a caller's value for a stated one, and sets
``params``; ``instantiate`` and ``sweep_instances`` check a caller's values
before building.  The sigma labels are read off the system, every option's
key off its indices and those labels, and its minimal flag off the indices
of the case's other options.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable

from sphskel import skeleton as sk_mod
from sphskel.mukai import EQUAL, STRICTLY_LESS
from sphskel.rootsys import build_root_system
from sphskel.skeleton import Color, SkeletonInvariantError, SphericalSkeleton, SphericalSystem

F = Fraction


class UsageError(ValueError):
    """Input a user has to correct, such as a selection or sweep profile that
    names no catalog case or parameter; the command line exits 2 on it."""


@dataclass(frozen=True)
class SupportOption:
    """One boundary-support choice of a case, with its expected outcome; the
    builders state neither ``minimal`` nor ``key``, CaseInstance derives both."""

    indices: tuple[int, ...]
    expected_p: Fraction | None
    expected_relation: str
    expected_theta: tuple[Fraction, ...] | None = None
    combined: bool = False  # one divisor hitting all roots vs one per root
    minimal: bool = True  # not combined, and no plain support strictly inside it
    key: str = ""  # the support in sigma labels


@dataclass(frozen=True)
class Certificate:
    delta_prime: tuple[str, ...]
    sigma_prime: tuple[int, ...]


@dataclass(frozen=True)
class CaseInstance:
    family: int
    sub_case: str
    params: tuple[tuple[str, int], ...]
    system: SphericalSystem
    sigma_labels: tuple[str, ...]
    options: tuple[SupportOption, ...]
    certificates: tuple[Certificate, ...]
    expected_budget: int | None = None
    typo_fixes: tuple[str, ...] = ()

    def __post_init__(self):
        # the one place an option's key and minimal flag are stated
        plain = [set(opt.indices) for opt in self.options if not opt.combined]
        derived = tuple([
            replace(opt, key=self.support_key(opt.indices, opt.combined),
                    minimal=not opt.combined and not any(s < {*opt.indices} for s in plain))
            for opt in self.options
        ])
        object.__setattr__(self, "options", derived)

    def support_skeleton(self, option: SupportOption) -> SphericalSkeleton:
        return sk_mod.with_boundary_support(
            self.system, option.indices, combined=option.combined
        )

    def support_key(self, indices: Iterable[int], combined: bool = False) -> str:
        inner = ",".join(self.sigma_labels[j] for j in sorted(indices))
        return f"combined({inner})" if combined else inner

    def option(self, key: str) -> SupportOption:
        for opt in self.options:
            if opt.key == key:
                return opt
        raise KeyError(f"case {self.family}/{self.sub_case}: no support {key!r}")

    @property
    def label(self) -> str:
        sub = f"/{self.sub_case}" if self.sub_case else ""
        return f"{self.family}{sub}"


@cache
def _key_clauses(sub_case: str) -> tuple[tuple, tuple]:
    """((name, N), ...) fixed and ((a, k, b, c), ...) derived by a sub-case
    key's clauses: a=N or a=b=...=N fixes each name to N, a=kb or a=kb+-c
    derives a = k b + c, and a, a!=N or a>=N fix nothing."""
    fixed, derived = [], []
    for clause in sub_case.split(",") if sub_case else ():
        if m := re.fullmatch(r"((?:[a-z]=)+)(\d+)", clause):
            fixed += [(name, int(m[2])) for name in m[1].split("=")[:-1]]
        elif m := re.fullmatch(r"([a-z])=(\d+)([a-z])([+-]\d+)?", clause):
            derived.append((m[1], int(m[2]), m[3], int(m[4] or 0)))
        elif not re.fullmatch(r"[a-z]([!>]=\d+)?", clause):
            raise ValueError(f"sub-case key {sub_case!r}: {clause!r} is not a parameter clause")
    return tuple(fixed), tuple(derived)


@dataclass(frozen=True)
class FamilySpec:
    family: int
    sub_case: str  # its clauses state the fixed and derived parameters
    ranges: dict[str, range]  # default sweep; the keys are the free parameters
    builder: Callable[[dict], dict]  # the CaseInstance fields after params

    @property
    def key(self) -> tuple[int, str]:
        return (self.family, self.sub_case)

    def stated(self, params: dict) -> dict[str, int]:
        """Free (read from ``params``) and fixed values by name, then derived."""
        fixed, derived = _key_clauses(self.sub_case)
        out = dict(sorted([*((name, params[name]) for name in self.ranges), *fixed]))
        return out | {a: k * out[b] + c for a, k, b, c in derived}

    def build(self, params: dict) -> CaseInstance:
        # the builder reads the key's fixed and derived values, never a caller's
        stated = self.stated(params)
        fields = {"params": tuple(stated.items()), **self.builder(stated)}
        labels = _sigma_labels(fields["system"])
        return CaseInstance(self.family, self.sub_case, sigma_labels=labels, **fields)

    def below_least(self, params: dict) -> str | None:
        """Which free parameter ``params`` set below its least value, the start
        of its range, as a message; None when none is."""
        for name, values in self.ranges.items():
            if name in params and params[name] < values.start:
                return (
                    f"case {self.family}/{self.sub_case or '-'}: {name} = {params[name]}"
                    f" is below its least value {values.start}"
                )
        return None


# ---------------------------------------------------------------------------
# small vector helpers


def _unit(rank: int, idx: int) -> tuple[int, ...]:
    return tuple([1 if j == idx else 0 for j in range(rank)])


def _chain(rank: int, lo: int, hi: int) -> tuple[int, ...]:
    """alpha_lo + ... + alpha_hi over global 0-based indices, inclusive."""
    return tuple([1 if lo <= j <= hi else 0 for j in range(rank)])


def _ctype(rank: int, lo: int, hi: int) -> tuple[int, ...]:
    """alpha_lo + 2 alpha_{lo+1} + ... + 2 alpha_{hi-1} + alpha_hi."""
    out = [0] * rank
    out[lo] = out[hi] = 1
    for j in range(lo + 1, hi):
        out[j] = 2
    return tuple(out)


def _c_blocks(components, ks):
    """The fixed ``components``, their simple roots in Sigma, then one block
    per k in ``ks``: A_1 when k = 0, else C_{k+1}.  A block puts its first
    simple root in Sigma; a C_{k+1} block also its C-type root, its roots from
    the third on in S^p, and a forced color on its second root.  Returns
    (rs, sigma, sp, firsts, forced): ``firsts`` the Sigma positions of the
    blocks' first roots, ``forced`` the roots of the forced colors."""
    rs = build_root_system([*components, *(("C", k + 1) if k else ("A", 1) for k in ks)])
    off = sum(rank for _, rank in components)
    sigma = [_unit(rs.rank, j) for j in range(off)]
    sp, firsts, forced = [], [], []
    for k in ks:
        firsts.append(len(sigma))
        sigma.append(_unit(rs.rank, off))
        if k:
            sigma.append(_ctype(rs.rank, off, off + k))
            sp += range(off + 2, off + k + 1)
            forced.append(off + 1)
        off += k + 1
    return rs, sigma, sp, firsts, forced


def _a_values(name: str, entries) -> tuple[str, dict[int, int]]:
    """A type-a color from (sigma position or None, value) pairs; None drops."""
    return name, {pos: val for pos, val in entries if pos is not None}


def _spherical_system(rs, sp, sigma, colors) -> SphericalSystem:
    """The bare system (S^p, Sigma) with the colors Luna's axioms give it.

    ``colors`` lists (name, data) in LP-row order.  ``data`` is either a
    simple root, whose color the axioms force: alpha^vee on Sigma for alpha
    of type b, also moved by an orthogonal beta of type b with alpha + beta
    in Sigma, and half of it for type 2a and for the two equal colors of a
    type-a root.  Or it maps sigma positions to the values of a type-a
    color, which the simple roots of Sigma where it takes 1 move.  Raises
    SkeletonInvariantError unless every halved alpha^vee is integral on
    Sigma (Sigma1), every type-a color takes 1 on some root of Sigma and,
    past those simple roots, less than 1 (A1), every type-a root has two
    movers summing to alpha^vee on Sigma (A2), and every other simple root
    outside S^p has one.
    """
    sp, sigma, rank = frozenset(sp), tuple(sigma), rs.rank
    nsig = len(sigma)
    # a_pos: the sigma position of each type-a root; halved: the roots whose
    # forced color is half of alpha^vee; pairs: orthogonal alpha, beta with
    # alpha + beta in Sigma
    a_pos, halved, pairs = {}, set(), []
    for j, g in enumerate(sigma):
        support = [k for k, v in enumerate(g) if v]
        values = [g[k] for k in support]
        if values == [1]:
            a_pos[support[0]] = j
        elif values == [2]:
            halved.add(support[0])
        elif values == [1, 1] and not rs.cartan[support[0]][support[1]]:
            pairs.append(support)
    halved |= set(a_pos)
    shared = {}  # Luna's identification of orthogonal type-b roots
    for i, k in pairs:
        if not {i, k} & (sp | halved):
            shared[i], shared[k] = k, i
    alpha_vee = {  # on Sigma, once for each root that needs it
        i: sk_mod.coroot_rho(rs, sigma, i)
        for i in set(a_pos).union(data for _, data in colors if type(data) is int)
    }
    built, twice = [], []  # the colors, and each 2 rho(D) in integers
    for name, data in colors:
        forced = type(data) is int
        if not forced:
            rho2 = tuple([2 * data.get(j, 0) for j in range(nsig)])
        elif data in halved:
            rho2 = alpha_vee[data]
        else:
            rho2 = tuple([2 * v for v in alpha_vee[data]])
        if any(v % 2 for v in rho2):
            raise SkeletonInvariantError(
                "color-rho-integer",
                f"{name}: half of alpha_{data}^vee takes ({', '.join(map(str, rho2))})/2"
                " on Sigma, which is not integral as Luna's axiom Sigma1 requires",
            )
        rho = tuple([v // 2 for v in rho2])
        if not forced or data in a_pos:
            moved = tuple([i for i, j in sorted(a_pos.items()) if rho2[j] == 2])
            if not moved or max(rho2) > 2 or rho2.count(2) != len(moved):
                raise SkeletonInvariantError(
                    "spherical-system-a1",
                    f"{name}: a type-a color takes 1 on the simple roots of Sigma"
                    f" that move it and less elsewhere, got ({', '.join(map(str, rho))})",
                )
        else:
            moved = tuple(sorted({data, shared.get(data, data)}))
        built.append(Color(name, rho, moved))
        twice.append(rho2)
    movers: dict[int, list[int]] = {i: [] for i in range(rank) if i not in sp}
    for k, color in enumerate(built):
        for i in color.moved_by:
            if i not in movers:
                raise SkeletonInvariantError(
                    "spherical-system-movers",
                    f"{color.name}: alpha_{i} is no simple root outside S^p",
                )
            movers[i].append(k)
    for i, ks in movers.items():
        names = [built[k].name for k in ks]
        if i in a_pos:
            total = [sum(twice[k][j] for k in ks) for j in range(nsig)]
            if len(ks) != 2 or total != [2 * v for v in alpha_vee[i]]:
                raise SkeletonInvariantError(
                    "spherical-system-a2",
                    f"type-a alpha_{i} moves {names}; it takes two colors whose"
                    f" functionals sum to alpha_{i}^vee {alpha_vee[i]} on Sigma",
                )
        elif len(ks) != 1:
            raise SkeletonInvariantError(
                "spherical-system-movers", f"alpha_{i} moves {names}, not one color"
            )
    return SphericalSystem(root_system=rs, sp=sp, sigma=sigma, colors=tuple(built))


def _sigma_labels(system: SphericalSystem) -> tuple[str, ...]:
    """alpha_i, alpha'_i, ... (one prime per root-system component) when every
    spherical root is simple; otherwise gamma_1, gamma_2, ..., or gamma alone."""
    sigma, offsets = system.sigma, system.root_system.offsets
    if all(g.count(1) == 1 and g.count(0) == len(g) - 1 for g in sigma):
        labels = []
        for g in sigma:
            k = g.index(1)
            c = bisect_right(offsets, k) - 1
            labels.append("alpha" + "'" * c + f"_{k - offsets[c] + 1}")
        return tuple(labels)
    if len(sigma) == 1:
        return ("gamma",)
    return tuple([f"gamma_{j}" for j in range(1, len(sigma) + 1)])


# ---------------------------------------------------------------------------
# family builders


def _build_31(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("A", 2 * p)])
    n = rs.rank
    sigma = [_chain(n, i, i + 1) for i in range(0, 2 * p - 1)]
    system = _spherical_system(rs, (), sigma, [(f"D{i + 1}", i) for i in range(2 * p)])
    top = F(2 * p * p + p)
    options = []
    for k in range(1, p + 1):
        idx = 2 * k - 2
        if k in (1, p):
            theta = None
            if k == p:
                theta = tuple([
                    F((2 * p - j) * (2 * p - j + 1), 2) for j in range(1, 2 * p)
                ])
            options.append(
                SupportOption(
                    indices=(idx,),
                    expected_p=top,
                    expected_relation=EQUAL,
                    expected_theta=theta,
                )
            )
        else:
            if 2 * k <= p:
                exp = top - 2 * (k - 1) * (2 * p - 2 * k + 3)
            else:
                exp = top - 2 * (p - k) * (2 * k + 1)
            options.append(
                SupportOption(
                    indices=(idx,), expected_p=exp,
                    expected_relation=STRICTLY_LESS,
                )
            )
    options.append(
        SupportOption(
            indices=(0, 2 * p - 2),
            expected_p=F(2 * p),
            expected_relation=STRICTLY_LESS,
        )
    )
    cert = Certificate(
        delta_prime=tuple([f"D{i}" for i in range(2, 2 * p)]),
        sigma_prime=tuple([2 * k - 1 for k in range(1, p)]),
    )
    return dict(
        system=system,
        options=tuple(options),
        certificates=(cert,),
        expected_budget=2 * p * p + p,
    )


def _build_32(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("B", p)])
    sigma = [_chain(p, i, i + 1) for i in range(p - 1)] + [_unit(p, p - 1)]
    colors = [(f"D{i + 1}", i) for i in range(p - 1)] + [("Dp+", p - 1), ("Dp-", p - 1)]
    system = _spherical_system(rs, (), sigma, colors)
    options = []
    for ell in range(1, p + 1, 2):
        if ell == 1:
            equal = p == 2
            options.append(
                SupportOption(
                    indices=(0,),
                    expected_p=F(3 * p - 2),
                    expected_relation=EQUAL if equal else STRICTLY_LESS,
                    expected_theta=(F(1), F(3)) if equal else None,
                )
            )
        else:
            options.append(
                SupportOption(
                    indices=(ell - 1,),
                    expected_p=None,
                    expected_relation=STRICTLY_LESS,
                )
            )
    cert = Certificate(
        delta_prime=tuple([f"D{i}" for i in range(2, p)]) + ("Dp+",),
        sigma_prime=tuple([2 * k - 1 for k in range(1, p // 2 + 1)]),
    )
    return dict(
        system=system,
        options=tuple(options),
        certificates=(cert,),
        expected_budget=p * p,
    )


def _build_33(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("B", p)])
    sigma = [_chain(p, i, i + 1) for i in range(p - 1)]
    sigma.append(tuple([2 if j == p - 1 else 0 for j in range(p)]))
    system = _spherical_system(rs, (), sigma, [(f"D{i + 1}", i) for i in range(p)])
    options = [
        SupportOption(
            indices=(0,),
            expected_p=F(p - 1),
            expected_relation=STRICTLY_LESS,
        )
    ]
    for ell in range(3, p + 1, 2):
        options.append(
            SupportOption(
                indices=(ell - 1,),
                expected_p=None,
                expected_relation=STRICTLY_LESS,
            )
        )
    cert = Certificate(
        delta_prime=tuple([f"D{i}" for i in range(2, p + 1)]),
        sigma_prime=tuple([2 * k - 1 for k in range(1, p // 2 + 1)]),
    )
    return dict(
        system=system,
        options=tuple(options),
        certificates=(cert,),
        expected_budget=p * p,
    )


def _build_34(params: dict) -> dict:
    rs = build_root_system([("B", 4)])
    sigma = [(1, 1, 1, 1), (0, 1, 2, 3)]
    system = _spherical_system(rs, (1, 2), sigma, [("D1", 0), ("D4", 3)])
    options = (
        SupportOption(
            indices=(0,),
            expected_p=F(13),
            expected_relation=EQUAL,
            expected_theta=(F(1), F(5)),
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D4",), (1,)),),
        expected_budget=13,
    )


def _build_35(params: dict) -> dict:
    rs = build_root_system([("B", 3)])
    sigma = [(1, 2, 3)]
    system = _spherical_system(rs, (0, 1), sigma, [("D3", 2)])
    options = (
        SupportOption(
            indices=(0,),
            expected_p=F(6),
            expected_relation=EQUAL,
            expected_theta=(F(1),),
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(),
        expected_budget=6,
    )


def _build_36(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("C", p + 1)])
    sigma = [_unit(p + 1, 0), _ctype(p + 1, 0, p)]
    colors = [("D1+", 0), ("D1-", 0), ("D2", 1)]
    system = _spherical_system(rs, range(2, p + 1), sigma, colors)
    options = (
        SupportOption(
            indices=(1,),
            expected_p=F(4 * p),
            expected_relation=EQUAL,
            expected_theta=(F(2 * p + 1), F(1)),
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1+", "D1-"), (0,)),),
        expected_budget=4 * p,
    )


def _build_37(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("C", p + 1)])
    sigma = [tuple([2 if j == 0 else 0 for j in range(p + 1)]), _ctype(p + 1, 0, p)]
    system = _spherical_system(rs, range(2, p + 1), sigma, [("D1", 0), ("D2", 1)])
    options = (
        SupportOption(
            indices=(1,),
            expected_p=F(2 * p - 1),
            expected_relation=STRICTLY_LESS,
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1",), (0,)),),
        typo_fixes=(
            "printed value 2p is inconsistent with the stated multiplicity rule "
            "(m_D = 1 for the color of a doubled simple root); the engine asserts 2p-1",
        ),
    )


def _build_38(params: dict) -> dict:
    rs = build_root_system([("D", 4)])
    sigma = [(1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1)]
    system = _spherical_system(rs, (1,), sigma, [("D1", 0), ("D3", 2), ("D4", 3)])
    options = []
    for pair, bullet_theta in (((0, 1), (F(1), F(1), F(5))), ((0, 2), None), ((1, 2), None)):
        options.append(
            SupportOption(
                indices=pair,
                expected_p=F(11),
                expected_relation=EQUAL,
                expected_theta=bullet_theta,
            )
        )
    options.append(
        SupportOption(
            indices=(0, 1, 2),
            expected_p=F(6),
            expected_relation=STRICTLY_LESS,
        )
    )
    options.append(
        SupportOption(
            indices=(0, 1),
            expected_p=F(10),
            expected_relation=STRICTLY_LESS,
            combined=True,
        )
    )
    certs = (
        Certificate(("D3", "D4"), (2,)),
        Certificate(("D1", "D4"), (1,)),
        Certificate(("D1", "D3"), (0,)),
    )
    return dict(
        system=system,
        options=tuple(options),
        certificates=certs,
        expected_budget=11,
    )


def _build_39(params: dict) -> dict:
    rs = build_root_system([("D", 5)])
    sigma = [
        (1, 0, 0, 0, 0),
        (0, 1, 1, 1, 0),
        (0, 1, 1, 0, 1),
        (0, 0, 1, 1, 1),
    ]
    colors = [
        ("D1+", {0: 1, 1: -1}),
        ("D1-", {0: 1, 2: -1}),
        ("D2", 1),
        ("D4", 3),
        ("D5", 4),
    ]
    system = _spherical_system(rs, (2,), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((0, 12), (1, 18), (2, 18))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D4", "D5"), (3,)),),
        expected_budget=19,
    )


def _build_41(params: dict) -> dict:
    rs = build_root_system([("G", 2)])
    sigma = [(4, 2)]
    system = _spherical_system(rs, (1,), sigma, [("D1", 0)])
    options = (
        SupportOption(
            indices=(0,),
            expected_p=F(5),
            expected_relation=EQUAL,
            expected_theta=(F(1),),
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(),
        expected_budget=5,
    )


def _build_42(params: dict) -> dict:
    p, q = params["p"], params["q"]
    # at p = 0 the first component is A_1, with no C-type root and no D2, and
    # the color alpha_1 shares with alpha'_1 is named D'1
    rs = build_root_system([("A", 1) if p == 0 else ("C", p + 1), ("C", q + 1)])
    n = rs.rank
    off = p + 1
    sigma = [tuple([1 if j in (0, off) else 0 for j in range(n)])]
    if p > 0:
        sigma.append(_ctype(n, 0, p))
    sigma.append(_ctype(n, off, off + q))
    sp = [*range(2, p + 1), *range(off + 2, off + q + 1)]
    colors = [("D'1", off)] if p == 0 else [("D1", 0), ("D2", 1)]
    system = _spherical_system(rs, sp, sigma, [*colors, ("D'2", off + 1)])
    if p == 0:
        option = SupportOption(
            indices=(1,),
            expected_p=F(4 * q + 1),
            expected_relation=EQUAL,
            expected_theta=(F(2 * q + 1), F(1)),
        )
        certs = (Certificate(("D'1",), (0,)),)
        budget, typo_fixes = 4 * q + 1, ()
    else:
        option = SupportOption(
            indices=(1, 2),
            expected_p=F(2 * p + 2 * q - 1),
            expected_relation=STRICTLY_LESS,
        )
        certs = (
            Certificate(("D1", "D2"), (0, 1)),
            Certificate(("D1", "D'2"), (0, 2)),
        )
        budget = None
        typo_fixes = (
            "printed value 2(p+q-1) implies m_D = 1 for the color of the joined "
            "root gamma_1, but the p=0 sub-case (an equality case) forces m_D = 2; "
            "the engine asserts 2p+2q-1",
        )
    return dict(
        system=system,
        options=(option,),
        certificates=certs,
        expected_budget=budget,
        typo_fixes=typo_fixes,
    )


def _build_43(params: dict) -> dict:
    p, q, r = params["p"], params["q"], params["r"]
    rs, sigma, sp, firsts, forced = _c_blocks([], sorted((p, q, r), key=bool))
    colors = [
        (name, dict(zip(firsts, signs)))
        for name, signs in (("D", (1, 1, -1)), ("D'", (1, -1, 1)), ("D''", (-1, 1, 1)))
    ]
    # the blocks C_{k+1} come last, and each forces its color on its second root
    colors += zip(("D2", "D'2", "D''2")[3 - len(forced):], forced)
    system = _spherical_system(rs, sp, sigma, colors)
    zeros = (p, q, r).count(0)
    if zeros == 3:
        options = [
            SupportOption(
                indices=pair,
                expected_p=F(3),
                expected_relation=EQUAL,
                expected_theta=theta,
            )
            for pair, theta in (((0, 1), (F(1), F(1), F(3))), ((0, 2), None), ((1, 2), None))
        ]
        options += [
            SupportOption(indices=(0, 1, 2), expected_p=F(0), expected_relation=STRICTLY_LESS),
            SupportOption(
                indices=(0, 1), expected_p=F(2), expected_relation=STRICTLY_LESS, combined=True
            ),
        ]
        certs = (
            Certificate(("D'", "D''"), (2,)),
            Certificate(("D", "D''"), (1,)),
            Certificate(("D", "D'"), (0,)),
        )
        budget = 3
    elif zeros == 2:
        options = [
            SupportOption(
                indices=(0, 3),
                expected_p=F(4 * p + 2),
                expected_relation=EQUAL,
                expected_theta=(F(1), F(2 * p + 3), F(2 * p + 1), F(1)),
            ),
            SupportOption(
                indices=(1, 3),
                expected_p=F(4 * p + 2),
                expected_relation=EQUAL,
            ),
            SupportOption(
                indices=(0, 1, 3),
                expected_p=F(2 * p - 1),
                expected_relation=STRICTLY_LESS,
            ),
            SupportOption(
                indices=(0, 3),
                expected_p=F(4 * p + 1),
                expected_relation=STRICTLY_LESS,
                combined=True,
            ),
        ]
        certs = (
            Certificate(("D'", "D''", "D''2"), (2, 3)),
            Certificate(("D", "D'", "D''"), (0, 1, 2)),
        )
        budget = 4 * p + 2
    elif zeros == 1:
        options = [
            SupportOption(
                indices=(2, 4),
                expected_p=F(4 * p + 4 * q + 1),
                expected_relation=EQUAL,
                expected_theta=(
                    F(2 * p + 2 * q + 3),
                    F(2 * p + 1),
                    F(1),
                    F(2 * q + 1),
                    F(1),
                ),
            ),
            SupportOption(
                indices=(2, 4),
                expected_p=F(4 * p + 4 * q),
                expected_relation=STRICTLY_LESS,
                combined=True,
            ),
        ]
        certs = (
            Certificate(("D", "D'", "D''", "D''2"), (0, 1, 3, 4)),
            Certificate(("D", "D'", "D''", "D'2"), (0, 1, 2, 3)),
        )
        budget = 4 * p + 4 * q + 1
    else:
        options = [
            SupportOption(
                indices=(1, 3, 5),
                expected_p=F(2 * (p + q + r) - 3),
                expected_relation=STRICTLY_LESS,
            ),
        ]
        certs = (
            Certificate(("D", "D'", "D''", "D'2", "D''2"), (0, 2, 3, 4, 5)),
            Certificate(("D", "D'", "D''", "D2", "D''2"), (0, 1, 2, 4, 5)),
            Certificate(("D", "D'", "D''", "D2", "D'2"), (0, 1, 2, 3, 4)),
        )
        budget = None
    return dict(
        system=system,
        options=tuple(options),
        certificates=certs,
        expected_budget=budget,
    )


def _chain_colors(p: int) -> list:
    """The colors of 44 and 45 on the chain alpha_2 + ... + alpha_{p-1}, the
    second root of Sigma: a forced one on each end root, or at p = 2, where
    the chain is the simple root alpha_2 of type a, its two colors."""
    if p == 2:
        return [("D2+", {0: -1, 1: 1}), ("D2-", {1: 1, 2: -1})]
    return [("D2", 1), ("Dp", p - 1)]


def _build_44(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("A", p + 1), ("A", 1)])
    n = rs.rank
    sigma = [_unit(n, 0), _chain(n, 1, p - 1), _unit(n, p), _unit(n, p + 1)]
    colors = [
        ("D+", {0: 1, 1: -1, 2: 1, 3: -1}),
        *_chain_colors(p),
        ("D'", {0: 1, 2: -1, 3: 1}),
        ("D''", {0: -1, 2: 1, 3: 1}),
    ]
    system = _spherical_system(rs, range(2, p - 1), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((0, 3 * p), (1, 4 * (p - 1)), (2, 3 * p))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D'", "D''"), (3,)),),
        expected_budget=4 * p - 1,
    )


def _build_45_p1(params: dict) -> dict:
    q = params["q"]
    rs, sigma, sp, _, (forced,) = _c_blocks([("A", 2)], (q,))
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1}),
        ("D1-", {0: 1, 2: -1}),
        ("D2+", {1: 1, 2: -1}),
        ("D2-", {0: -1, 1: 1, 2: 1}),
        ("D'", forced),
    ]
    system = _spherical_system(rs, sp, sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j, 3),
            expected_p=F(2 * q + 1),
            expected_relation=STRICTLY_LESS,
        )
        for j in (0, 1)
    ])
    certs = (
        Certificate(("D1+", "D2-", "D'"), (2, 3)),
        Certificate(("D1+", "D1-", "D2+", "D2-"), (0, 1, 2)),
    )
    return dict(
        system=system,
        options=options,
        certificates=certs,
    )


def _build_45(params: dict) -> dict:
    p, q = params["p"], params["q"]
    rs = build_root_system([("A", p + 1), ("C", q + 1)])
    n = rs.rank
    off = p + 1
    sigma = [
        _unit(n, 0),
        _chain(n, 1, p - 1),
        _unit(n, p),
        _unit(n, off),
        _ctype(n, off, off + q),
    ]
    chain = _chain_colors(p)
    last = "D3-" if p == 2 else "Dp1-"
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1, 3: -1}),
        ("D1-", {0: 1, 2: -1, 3: 1}),
        *chain,
        (last, {0: -1, 2: 1, 3: 1}),
        ("D'", off + 1),
    ]
    sp = list(range(2, p - 1)) + list(range(off + 2, off + q + 1))
    system = _spherical_system(rs, sp, sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j, 4),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in (
            (0, 2 * (p + q - 1)),
            (1, 2 * p + 2 * q - 5),
            (2, 2 * (p + q - 1)),
        )
    ])
    certs = (
        Certificate(("D1-", last, "D'"), (3, 4)),
        Certificate(("D1+", "D1-", *(name for name, _ in chain), last), (0, 1, 2, 3)),
    )
    alpha = "alpha_3" if p == 2 else "alpha_{p+1}"
    return dict(
        system=system,
        options=options,
        certificates=certs,
        expected_budget=4 * p + 4 * q - 2,
        typo_fixes=(f"gamma_3 printed as '{alpha}' without the Greek letter; read {alpha}",),
    )


def _build_46_p4(params: dict) -> dict:
    rs = build_root_system([("B", 2), ("A", 1), ("A", 1)])
    sigma = [_unit(4, j) for j in range(4)]
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1, 3: 1}),
        ("D1-", {0: 1, 2: -1, 3: -1}),
        ("D2+", {0: -1, 1: 1, 2: 1, 3: -1}),
        ("D2-", {0: -1, 1: 1, 2: -1, 3: 1}),
    ]
    system = _spherical_system(rs, (), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((0, 3), (1, 0))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1+", "D2+", "D2-"), (2, 3)),),
        expected_budget=6,
    )


def _build_46_p5(params: dict) -> dict:
    rs = build_root_system([("B", 2), ("A", 3)])
    sigma = [_unit(5, j) for j in range(5)]
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}),
        ("D1-", {0: 1, 2: -1, 3: 1, 4: -1}),
        ("D2+", {0: -1, 1: 1, 2: 1, 4: -1}),
        ("D2-", {0: -1, 1: 1, 2: -1, 4: 1}),
        ("D'2+", {0: -1, 3: 1}),
    ]
    system = _spherical_system(rs, (), sigma, colors)
    options = (
        SupportOption(
            indices=(2,),
            expected_p=F(10),
            expected_relation=EQUAL,
            expected_theta=(F(5), F(12), F(1), F(4), F(9)),
        ),
        SupportOption(
            indices=(3,),
            expected_p=F(4),
            expected_relation=STRICTLY_LESS,
        ),
        SupportOption(
            indices=(4,),
            expected_p=F(10),
            expected_relation=EQUAL,
        ),
        SupportOption(
            indices=(2, 4),
            expected_p=F(1),
            expected_relation=STRICTLY_LESS,
        ),
    )
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1+", "D1-", "D2+", "D2-"), (0, 1)),),
        expected_budget=10,
    )


def _build_46_p6(params: dict) -> dict:
    rs = build_root_system([("B", 3), ("A", 3)])
    sigma = [_unit(6, j) for j in range(6)]
    colors = [
        ("D1+", {0: 1, 1: -1, 4: 1}),
        ("D1-", {0: 1, 4: -1}),
        ("D2+", {1: 1, 2: -1, 3: 1, 4: -1, 5: 1}),
        ("D2-", {0: -1, 1: 1, 3: -1, 4: 1, 5: -1}),
        ("D3+", {1: -1, 2: 1, 3: 1, 5: -1}),
        ("D3-", {1: -1, 2: 1, 3: -1, 5: 1}),
    ]
    system = _spherical_system(rs, (), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((0, 5), (1, 2), (2, 3))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(
            Certificate(("D1+", "D2+", "D2-", "D3+", "D3-"), (3, 4, 5)),
        ),
        expected_budget=15,
        typo_fixes=(
            "Delta printed with five names but six functionals; D2- is included",
        ),
    )


def _build_47(params: dict) -> dict:
    p, q = params["p"], params["q"]
    rs, sigma, sp, (f1, f2), forced = _c_blocks([("B", 2)], (p, q))
    colors = [
        ("D1+", {0: 1, 1: -1, f1: 1, f2: 1}),
        ("D1-", {0: 1, f1: -1, f2: -1}),
        ("D2+", {0: -1, 1: 1, f1: 1, f2: -1}),
        ("D2-", {0: -1, 1: 1, f1: -1, f2: 1}),
        *zip(("D'", "D''")[2 - len(forced):], forced),
    ]
    system = _spherical_system(rs, sp, sigma, colors)
    # the budgets differ at p = 0: A_1 adds one positive root, C_{p+1} over
    # its S^p adds 4p
    if p == 0:
        ctypes, values = (4,), ((0, 2 * (q + 1)), (1, 2 * q - 1))
        certs = (
            Certificate(("D1+", "D2+", "D2-", "D''"), (2, 3, 4)),
            Certificate(("D1+", "D1-", "D2+", "D2-"), (0, 1, 2, 3)),
        )
        budget = 4 * q + 5
    else:
        ctypes, values = (3, 5), ((0, 2 * p + 2 * q - 1), (1, 2 * (p + q - 1)))
        certs = (
            Certificate(("D1+", "D2+", "D2-", "D'", "D''"), (2, 3, 4, 5)),
            Certificate(("D1+", "D1-", "D2+", "D2-", "D''"), (0, 1, 2, 4, 5)),
            Certificate(("D1+", "D1-", "D2+", "D2-", "D'"), (0, 1, 2, 3, 4)),
        )
        budget = 4 * (p + q + 1)
    options = tuple([
        SupportOption(
            indices=(j, *ctypes),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in values
    ])
    return dict(
        system=system,
        options=options,
        certificates=certs,
        expected_budget=budget,
    )


def _build_48_p1(params: dict) -> dict:
    rs = build_root_system([("B", 2), ("C", 3)])
    sigma = [_unit(5, j) for j in range(5)]
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}),
        ("D1-", {0: 1, 2: -1, 3: 1, 4: -1}),
        ("D2+", {0: -1, 1: 1, 2: 1, 4: -1}),
        ("D2-", {0: -1, 1: 1, 2: -1, 4: 1}),
        ("D'2+", {0: -1, 3: 1, 4: -1}),
    ]
    system = _spherical_system(rs, (), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((2, 1), (3, 4), (4, 8))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1+", "D1-", "D2+", "D2-"), (0, 1)),),
        expected_budget=13,
    )


def _build_48_pge1(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("B", 2), ("C", p + 2)])
    n = rs.rank
    sigma = [
        _unit(n, 0),
        _unit(n, 1),
        _unit(n, 2),
        _unit(n, 3),
        _unit(n, 4),
        _ctype(n, 4, p + 3),
    ]
    colors = [
        ("D1+", {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}),
        ("D1-", {0: 1, 2: -1, 3: 1, 4: -1}),
        ("D2+", {0: -1, 1: 1, 2: 1, 4: -1}),
        ("D2-", {0: -1, 1: 1, 2: -1, 4: 1}),
        ("D'2+", {0: -1, 3: 1, 5: -1}),
        ("D'4", 5),
    ]
    system = _spherical_system(rs, range(6, p + 4), sigma, colors)
    options = tuple([
        SupportOption(
            indices=(j,),
            expected_p=F(v),
            expected_relation=STRICTLY_LESS,
        )
        for j, v in ((2, 2 * p - 2), (3, 2 * p + 1), (4, 2 * p + 6), (5, 8 * p - 1))
    ])
    return dict(
        system=system,
        options=options,
        certificates=(Certificate(("D1+", "D1-", "D2+", "D2-"), (0, 1)),),
        expected_budget=8 * p + 4,
        typo_fixes=(
            "S^p printed as {alpha'_5..alpha'_{p+1}}; the budget 8p+4 forces "
            "{alpha'_5..alpha'_{p+2}}",
            "the printed header p>=1 degenerates at p=1 (gamma_6 collapses onto "
            "gamma_5); the sweep starts at p=2",
        ),
    )


def _build_49(params: dict) -> dict:
    p = params["p"]
    rs = build_root_system([("A", p - 1), ("A", p)])
    n = rs.rank  # 2p - 1
    sigma = [_unit(n, j) for j in range(n)]

    def unprimed(i: int) -> int | None:
        return i - 1 if 1 <= i <= p - 1 else None

    def primed(i: int) -> int | None:
        return p - 1 + i - 1 if 1 <= i <= p else None

    colors = []
    for i in range(1, p + 1):
        colors.append(_a_values(f"D{i}+", [
            (unprimed(p - i), -1),
            (unprimed(p - i + 1), 1),
            (primed(i - 1), -1),
            (primed(i), 1),
        ]))
        colors.append(_a_values(f"D{i}-", [
            (unprimed(p - i), 1),
            (unprimed(p - i + 1), -1),
            (primed(i), 1),
            (primed(i + 1), -1),
        ]))
    system = _spherical_system(rs, (), sigma, colors)
    options = []
    theta_last = tuple([F(i * (i + 1)) for i in range(1, p)]) + tuple([
        F((p + 1 - j) ** 2) for j in range(1, p + 1)
    ])
    for k in range(1, p + 1):
        idx = p - 1 + k - 1
        if k in (1, p):
            options.append(
                SupportOption(
                    indices=(idx,),
                    expected_p=F(p * p),
                    expected_relation=EQUAL,
                    expected_theta=theta_last if k == p else None,
                )
            )
        else:
            if 2 * k <= p:
                exp = F(p * p - 2 * (k - 1) * (p - k + 2))
            else:
                exp = F(p * p - 2 * (p - k) * (k + 1))
            options.append(
                SupportOption(
                    indices=(idx,),
                    expected_p=exp,
                    expected_relation=STRICTLY_LESS,
                )
            )
    options.append(
        SupportOption(
            indices=(p - 1, 2 * p - 2),
            expected_p=F(0),
            expected_relation=STRICTLY_LESS,
        )
    )
    cert_colors = tuple([
        name
        for i in range(1, p + 1)
        for name in (f"D{i}+", f"D{i}-")
        if name not in ("D1+", f"D{p}-")
    ])
    return dict(
        system=system,
        options=tuple(options),
        certificates=(Certificate(cert_colors, tuple(range(p - 1))),),
        expected_budget=p * p,
        typo_fixes=(
            "the printed maximizer indexes alpha'_{p+i-1}, which leaves the rank "
            "for i >= 2; the LP confirms the reading alpha'_{p+1-i}",
        ),
    )


def _build_50(params: dict) -> dict:
    q, p = params["q"], params["p"]
    even = p == 2 * q
    nb = q if even else q - 1  # rank of the B component (the unprimed side)
    rs = build_root_system([("B", nb), ("D", q)])
    n = rs.rank

    def unprimed(i: int) -> int | None:
        return i - 1 if 1 <= i <= nb else None

    def primed(i: int) -> int | None:
        return nb + i - 1 if 1 <= i <= q else None

    sigma = [_unit(n, j) for j in range(n)]
    # One chain rule for both parities, with the colors numbered as for p = 2q:
    # D_k takes s, -s on alpha_h, alpha_{h+1} (h = k // 2) and -s, s on
    # alpha'_{c-1}, alpha'_c (c = (k + 1) // 2), where s = (-1)^k.  The color on
    # the fork node alpha'_{q-1} also pairs with alpha'_q, with the same sign.
    # The end colors D_{p-1} and D_p both take D_{2q-1}'s values on the B side
    # and flip their signs on alpha'_{q-1} and alpha'_q between the two
    # parities: p = 2q - 1 keeps the chain's, p = 2q flips them.  For
    # p = 2q - 1 the B side has rank q - 1, so the chain starts one node
    # later: the colors are those of p = 2q from D2 on, renumbered down by one.
    shift = q - nb
    colors = []
    for k in range(1 + shift, 2 * q + 1):
        kb = min(k, 2 * q - 1)
        sb = (-1) ** kb
        sd = -((-1) ** k) if even and k >= 2 * q - 1 else (-1) ** k
        h, c = kb // 2, (k + 1) // 2
        values = [
            (unprimed(h - shift), sb),
            (unprimed(h + 1 - shift), -sb),
            (primed(c - 1), -sd),
            (primed(c), sd),
        ]
        if c == q - 1:  # the fork
            values.append((primed(q), sd))
        colors.append(_a_values(f"D{k - shift}", values))
    system = _spherical_system(rs, (), sigma, colors)

    options = []
    pos = unprimed if even else primed  # the supports lie on the B side when p is even
    for k in range(1, q + 1):
        if k == 1:
            exp = F(p - 1)
        elif k <= q - 2:
            exp = F(p + (k - 1) ** 2 - 5)
        elif k == q - 1:
            exp = F(p * p - 4 * p - 4, 4) if even else F((p - 1) * (p - 3), 4)
        else:  # k == q
            exp = F(p * (p - 4), 4) if even else F((p - 1) * (p - 3), 4)
        options.append(
            SupportOption(
                indices=(pos(k),),
                expected_p=exp,
                expected_relation=STRICTLY_LESS,
            )
        )
    cert = Certificate(  # Sigma' is the D side when p is even, else the B side
        delta_prime=tuple([f"D{i}" for i in range(2, p + 1)]),
        sigma_prime=tuple(range(nb, n) if even else range(nb)),
    )
    return dict(
        system=system,
        options=tuple(options),
        certificates=(cert,),
        expected_budget=p * (p - 1) // 2,
    )


# ---------------------------------------------------------------------------
# family registry


FAMILIES: dict[tuple[int, str], FamilySpec] = {
    spec.key: spec
    for spec in (
        FamilySpec(31, "", {"p": range(2, 7)}, _build_31),
        FamilySpec(32, "", {"p": range(2, 7)}, _build_32),
        FamilySpec(33, "", {"p": range(2, 7)}, _build_33),
        FamilySpec(34, "", {}, _build_34),
        FamilySpec(35, "", {}, _build_35),
        FamilySpec(36, "", {"p": range(2, 7)}, _build_36),
        FamilySpec(37, "", {"p": range(2, 7)}, _build_37),
        FamilySpec(38, "", {}, _build_38),
        FamilySpec(39, "", {}, _build_39),
        FamilySpec(41, "", {}, _build_41),
        FamilySpec(42, "p=0", {"q": range(1, 6)}, _build_42),
        FamilySpec(42, "p>=1", {"p": range(1, 6), "q": range(1, 6)}, _build_42),
        FamilySpec(43, "p=q=r=0", {}, _build_43),
        FamilySpec(43, "p!=0,q=r=0", {"p": range(1, 6)}, _build_43),
        FamilySpec(43, "p,q!=0,r=0", {"p": range(1, 6), "q": range(1, 6)}, _build_43),
        FamilySpec(
            43, "p,q,r!=0", {"p": range(1, 6), "q": range(1, 6), "r": range(1, 6)}, _build_43
        ),
        FamilySpec(44, "p=2", {}, _build_44),
        FamilySpec(44, "p>=3", {"p": range(3, 8)}, _build_44),
        FamilySpec(45, "p=1", {"q": range(1, 6)}, _build_45_p1),
        FamilySpec(45, "p=2", {"q": range(1, 6)}, _build_45),
        FamilySpec(45, "p>=3", {"p": range(3, 8), "q": range(1, 6)}, _build_45),
        FamilySpec(46, "p=4", {}, _build_46_p4),
        FamilySpec(46, "p=5", {}, _build_46_p5),
        FamilySpec(46, "p=6", {}, _build_46_p6),
        FamilySpec(47, "p=0", {"q": range(1, 6)}, _build_47),
        FamilySpec(47, "p>=1", {"p": range(1, 6), "q": range(1, 6)}, _build_47),
        FamilySpec(48, "p=1", {}, _build_48_p1),
        # printed p >= 1; the data degenerates below p = 2
        FamilySpec(48, "p>=1", {"p": range(2, 7)}, _build_48_pge1),
        FamilySpec(49, "", {"p": range(2, 7)}, _build_49),
        FamilySpec(50, "p=2q-1", {"q": range(4, 8)}, _build_50),
        FamilySpec(50, "p=2q", {"q": range(4, 8)}, _build_50),
    )
}


def family_keys() -> list[tuple[int, str]]:
    return sorted(FAMILIES)


def named(family: int | None, sub_case: str | None) -> list[FamilySpec]:
    """The families a selection names, in key order; None names every one."""
    return [
        FAMILIES[key] for key in family_keys()
        if family in (None, key[0]) and sub_case in (None, key[1])
    ]


def instantiate(family: int, sub_case: str = "", **params: int) -> CaseInstance:
    """Build one case instance.  Raises ``KeyError`` for an unknown case and
    ``ValueError`` for a free parameter missing or below its least value, a
    parameter the case does not take, or a fixed or derived parameter given a
    value other than the one the case states."""
    where = f"case {family}/{sub_case or '-'}"
    spec = FAMILIES.get((family, sub_case))
    if spec is None:
        raise KeyError(f"unknown {where}")
    if any(type(v) is not int for v in params.values()):
        raise ValueError(f"{where}: parameter values must be integers, got {params}")
    if not params.keys() >= spec.ranges.keys():
        raise ValueError(f"{where}: needs the parameters {sorted(spec.ranges)}, got {params}")
    problem = spec.below_least(params)
    if problem:
        raise ValueError(problem)
    stated = spec.stated(params)
    if params.items() - stated.items():
        raise ValueError(f"{where}: parameters {params}, but the case states {stated}")
    return spec.build(params)


def parse_case_key(text: str) -> tuple[int, str | None]:
    """'34' | '43/p,q!=0,r=0' -> (family, sub_case), sub_case None when the key
    names every sub-case.  The printed signs ≠ and ≥ stand for != and >=, and
    spaces are ignored."""
    key = text.replace("≠", "!=").replace("≥", ">=").replace(" ", "")
    family, slash, sub_case = key.partition("/")
    known = sorted(s for f, s in FAMILIES if str(f) == family)
    if not known:
        raise UsageError(f"unknown case {text!r}")
    if slash and sub_case not in known:
        raise UsageError(f"unknown sub-case {sub_case!r} for case {family}; known: {known}")
    return int(family), sub_case if slash else None


def _profile_ranges(profile: dict) -> dict[tuple[int, str], dict[str, list[int]]]:
    """Check a sweep profile and resolve it into the values each family sweeps
    in place of its ranges: a non-empty list of distinct integers per
    parameter that every sub-case its key names sweeps, none below the least
    value there.  Two spellings of one key are an error; a sub-case key layers
    over its family's key."""
    if not isinstance(profile, dict):
        raise UsageError(f"a sweep profile maps case keys to ranges, got {profile!r}")
    resolved: dict[tuple[int, str], dict[str, list[int]]] = {key: {} for key in FAMILIES}
    names: dict[tuple[int, str | None], str] = {}
    for name, entry in profile.items():
        try:
            family, sub_case = parse_case_key(name)
        except UsageError as exc:
            raise UsageError(f"sweep profile: {exc}") from None
        if (first := names.setdefault((family, sub_case), name)) != name:
            raise UsageError(f"sweep profile: {first!r} and {name!r} name the same case")
        if not isinstance(entry, dict):
            raise UsageError(f"sweep profile {name!r}: expected {{parameter: [values]}}")
        specs = named(family, sub_case)
        for param, values in entry.items():
            if not (isinstance(values, list) and values
                    and all(type(v) is int for v in values)):
                raise UsageError(
                    f"sweep profile {name!r}: {param} needs a non-empty list of "
                    f"integers, got {values!r}"
                )
            if len(set(values)) < len(values):
                repeated = next(v for v in values if values.count(v) > 1)
                raise UsageError(f"sweep profile {name!r}: {param} lists {repeated} twice")
            for spec in specs:
                if param not in spec.ranges:
                    raise UsageError(
                        f"sweep profile {name!r}: case {spec.family}/{spec.sub_case or '-'} "
                        f"sweeps no parameter {param!r} (it sweeps {sorted(spec.ranges)})"
                    )
                problem = spec.below_least({param: min(values)})
                if problem:
                    raise UsageError(f"sweep profile {name!r}: {problem}")
        for spec in specs:
            # a sub-case entry goes over a family entry, whichever comes first
            layered = resolved[spec.key]
            resolved[spec.key] = {**entry, **layered} if sub_case is None else {**layered, **entry}
    return resolved


def sweep_instances(
    family: int | None = None,
    sub_case: str | None = None,
    overrides: dict[str, int] | None = None,
    profile: dict | None = None,
) -> list[CaseInstance]:
    """The catalog instances of a sweep, optionally filtered by case.

    Each family sweeps the product of its ``ranges``.  ``profile`` maps
    "family" or "family/sub_case" keys to {param: [values]} that replace
    those ranges (a sub-case entry over a family entry); ``overrides`` pin
    named parameters to one value each, inside the ranges or not, and skip
    unbuilt the instances whose fixed or derived parameters differ.  A pin
    below a free parameter's least value skips the family.
    """
    overrides = overrides or {}
    swept_by = _profile_ranges({} if profile is None else profile)
    out: list[CaseInstance] = []
    for spec in named(family, sub_case):
        if spec.below_least(overrides):
            continue
        swept = {
            **spec.ranges,
            **swept_by[spec.key],
            **{name: [v] for name, v in overrides.items() if name in spec.ranges},
        }
        for values in product(*swept.values()):
            stated = spec.stated(dict(zip(swept, values)))
            if all(stated.get(k, v) == v for k, v in overrides.items()):
                out.append(spec.build(stated))
    return out

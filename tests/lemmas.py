"""The paper's reduction, duplication and product lemmas on sphskel's types.

``check_conjecture`` solves any Gamma directly, so the package never runs
these steps.  The tests use them to check that P(R) behaves as the lemmas
say: it does not fall along the reduction of Gamma to a reduced elementary
one, it drops by <rho(D), theta> when a boundary divisor D is duplicated,
and it adds over a product.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from sphskel import build_root_system, check_conjecture
from sphskel.mukai import EQUAL
from sphskel.skeleton import (
    BoundaryDivisor,
    Color,
    SphericalSkeleton,
    SphericalSystem,
    with_boundary_support,
)


def support(sk: SphericalSkeleton) -> frozenset[int]:
    """Indices of the spherical roots hit by some boundary divisor."""
    out = set()
    for div in sk.boundary:
        for j, v in enumerate(div.rho):
            if v < 0:
                out.add(j)
    return frozenset(out)


def is_elementary(sk: SphericalSkeleton) -> bool:
    for div in sk.boundary:
        if any(v not in (0, -1) for v in div.rho):
            return False
        if sum(1 for v in div.rho if v == -1) > 1:
            return False
    return True


def is_reduced(sk: SphericalSkeleton) -> bool:
    if not is_elementary(sk):
        return False
    for j in range(len(sk.system.sigma)):
        if sum(1 for div in sk.boundary if div.rho[j] == -1) > 1:
            return False
    return True


def to_elementary(sk: SphericalSkeleton) -> SphericalSkeleton:
    """Split Gamma into unit divisors, one per unit of -<rho(D), gamma>."""
    nsig = len(sk.system.sigma)
    gamma = []
    for j in range(nsig):
        total = -sum(div.rho[j] for div in sk.boundary)
        unit = tuple([-1 if t == j else 0 for t in range(nsig)])
        gamma += [BoundaryDivisor(f"E{j + 1}.{t + 1}", unit) for t in range(total)]
    return replace(sk, boundary=tuple(gamma))


def to_reduced(sk: SphericalSkeleton) -> SphericalSkeleton:
    """Keep one unit divisor per supported spherical root (elementary input)."""
    if not is_elementary(sk):
        raise ValueError("to_reduced requires an elementary skeleton")
    return with_boundary_support(sk.system, support(sk))


def product(sk1: SphericalSkeleton, sk2: SphericalSkeleton) -> SphericalSkeleton:
    """Direct product: block-diagonal root systems, pairings and Gamma."""
    sys1, sys2 = sk1.system, sk2.system
    rs = build_root_system(sys1.root_system.components + sys2.root_system.components)
    r1 = sys1.root_system.rank
    n1, n2 = len(sys1.sigma), len(sys2.sigma)
    pad1 = (0,) * sys2.root_system.rank
    sigma = tuple([g + pad1 for g in sys1.sigma] + [(0,) * r1 + g for g in sys2.sigma])
    sp = frozenset(sys1.sp) | frozenset(r1 + j for j in sys2.sp)
    used = {div.name for div in sk1.divisors}

    def rename(name: str) -> str:
        while name in used:
            name += "'"
        used.add(name)
        return name

    colors = [replace(c, rho=tuple(c.rho) + (0,) * n2) for c in sys1.colors]
    for c in sys2.colors:
        colors.append(
            Color(
                name=rename(c.name),
                rho=(0,) * n1 + tuple(c.rho),
                moved_by=tuple([r1 + j for j in c.moved_by]),
            )
        )
    boundary = [replace(d, rho=tuple(d.rho) + (0,) * n2) for d in sk1.boundary]
    boundary += [
        BoundaryDivisor(name=rename(d.name), rho=(0,) * n1 + tuple(d.rho))
        for d in sk2.boundary
    ]
    return SphericalSkeleton(
        SphericalSystem(root_system=rs, sp=sp, sigma=sigma, colors=tuple(colors)),
        tuple(boundary),
    )


def duplicate_boundary(sk: SphericalSkeleton, name: str) -> SphericalSkeleton:
    """Gamma gains one copy of the named boundary divisor."""
    for div in sk.boundary:
        if div.name == name:
            copy = BoundaryDivisor(name=f"{name}*", rho=div.rho)
            return replace(sk, boundary=sk.boundary + (copy,))
    raise ValueError(f"no boundary divisor named {name!r}")


def duplicate_shift_check(
    sk: SphericalSkeleton, boundary_name: str
) -> tuple[Fraction, Fraction, Fraction]:
    """(P before, P after, shift) when duplicating a boundary divisor.

    Requires an equality case with a unique maximizer; asserts the exact
    drop P(R') = P(R) + <rho(D), theta> with <rho(D), theta> < 0.
    """
    verdict = check_conjecture(sk)
    if verdict.relation != EQUAL or not verdict.theta_unique:
        raise ValueError("duplicate_shift_check needs an equality case with unique theta")
    div = next((d for d in sk.boundary if d.name == boundary_name), None)
    if div is None:
        raise ValueError(f"no boundary divisor named {boundary_name!r}")
    shift = sum(Fraction(v) * t for v, t in zip(div.rho, verdict.theta))
    doubled = duplicate_boundary(sk, boundary_name)
    after = check_conjecture(doubled).p_value
    if after is None or after != verdict.p_value + shift or not after < verdict.p_value:
        raise AssertionError(
            f"duplication shift mismatch: {verdict.p_value} -> {after}, shift {shift}"
        )
    return verdict.p_value, after, shift

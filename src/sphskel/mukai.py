"""The invariant P(R), the budget |R+| - |R+_{S^p}| and the verdict.

P(R) is the supremum of sum_D (m_D - 1 + <rho(D), theta>) over theta in
cone(Sigma) with <rho(D), theta> >= -m_D.  In Sigma-coordinates x that is
the LP  max c.x, Ax <= b, x >= 0  with A[D][gamma] = -<rho(D), gamma>,
b_D = m_D and c = -(column sums of A), shifted by sum_D (m_D - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from sphskel import exactlp, skeleton as sk_mod
from sphskel.exactlp import LpProblem
from sphskel.skeleton import SphericalSkeleton, SphericalSystem

STRICTLY_LESS = "StrictlyLess"
EQUAL = "Equal"
VIOLATION = "Violation"


@dataclass(frozen=True)
class MukaiVerdict:
    complete: bool
    p_value: Fraction | None  # None encodes an infinite supremum
    budget: int
    relation: str | None  # None when p_value is infinite
    theta: tuple[Fraction, ...] | None
    theta_unique: bool | None  # decided only when relation is Equal
    pivots: int  # simplex pivots of the main LP


def skeleton_lp(sk: SphericalSkeleton) -> tuple[LpProblem, int]:
    """The LP of a skeleton plus the additive constant sum_D (m_D - 1)."""
    a = sk_mod.pairing_matrix(sk)
    b = sk_mod.multiplicities(sk)
    c = [-t for t in map(sum, zip(*a))] if a else [0] * len(sk.system.sigma)
    return LpProblem.make(a, b, c), sum(b) - len(b)


def check_conjecture(sk: SphericalSkeleton) -> MukaiVerdict:
    """Assemble completeness, P(R), budget, relation and the maximizer.

    The uniqueness probe runs exactly when the relation is Equal, where the
    theory asserts a unique maximizer; otherwise ``theta_unique`` is None.
    """
    return _verdict(sk, sk_mod.is_complete(sk))


def _verdict(sk: SphericalSkeleton, complete: bool) -> MukaiVerdict:
    """check_conjecture for a skeleton whose completeness is already known."""
    problem, constant = skeleton_lp(sk)
    sol = exactlp.solve_max(problem)
    bud = sk.system.budget
    if sol.status != "optimal":
        return MukaiVerdict(complete, None, bud, None, None, None, sol.pivots)
    value = sol.value + constant
    if value < bud:
        relation = STRICTLY_LESS
    elif value == bud:
        relation = EQUAL
    else:
        relation = VIOLATION
    unique = exactlp.unique_optimum(problem, sol) if relation == EQUAL else None
    return MukaiVerdict(complete, value, bud, relation, sol.primal, unique, sol.pivots)


def enumerate_minimal_complete_supports(
    system: SphericalSystem, max_card: int = 3
) -> list[tuple[tuple[int, ...], MukaiVerdict]]:
    """Inclusion-minimal supports T (|T| <= max_card) whose reduced
    elementary skeleton is complete, each with its verdict.

    Candidates go by size, so a complete one is minimal unless it contains a
    support already found.  A y that pairs nonnegatively with the colors
    pairs so with -e_j for every j where y_j <= 0; any T inside that set is
    not complete (Stiemke 1915) and is skipped unsolved.  The search starts
    from the sets of ``skeleton.basis_separations``, the columns of the
    colors' basis inverse that separate the colors, and adds the set of each
    failed candidate's y.  ``skeleton.support_separation`` decides each
    candidate left, in the system's basis alone; only a complete candidate
    is built as a skeleton, for its verdict.
    """
    # max_card stays only because perfbench/workloads.py passes 3 positionally
    if max_card < 1:
        raise ValueError("max_card must be >= 1")
    nsig = len(system.sigma)
    found: list[tuple[tuple[int, ...], MukaiVerdict]] = []
    minimal: list[frozenset[int]] = []
    # {j : y_j <= 0} per separating y: the basis columns', then failed candidates'
    separated = sk_mod.basis_separations(system)
    for card in range(1, max_card + 1):
        for combo in combinations(range(nsig), card):
            t = frozenset(combo)
            if any(map(t.issuperset, minimal)) or any(map(t.issubset, separated)):
                continue
            sep = sk_mod.support_separation(system, combo)
            if sep is None:
                minimal.append(t)
                candidate = sk_mod.with_boundary_support(system, combo)
                found.append((combo, _verdict(candidate, True)))
            else:
                separated.append(sep)
    return found

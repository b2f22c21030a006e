"""Finite root systems of types A, B, C, D, G2 and products thereof.

Everything lives in root-lattice coordinates: a root is a tuple of integer
coefficients over the simple roots, and all pairings go through the Cartan
matrix ``C[i][j] = <alpha_i^vee, alpha_j>``.  Simple roots are numbered as in
Bourbaki inside each component (B_n has alpha_n short, C_n has alpha_n long)
and concatenated to a single 0-based global index across product components.
For G2 the orientation is fixed with alpha_1 short, i.e.
``<alpha_1^vee, alpha_2> = -3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Sequence

RootVector = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# the Cartan matrix is total x total; A_100 takes seconds to build, and the
# catalog's largest rank is 18
_MAX_TOTAL_RANK = 100


class RootSystemError(ValueError):
    """Invalid (series, rank) specification."""


def _cartan_block(series: str, n: int) -> list[list[int]]:
    if series == "G":
        return [[2, -3], [-1, 2]]
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    if series == "D":
        # chain 0..n-2 plus the fork edge (n-3)--(n-1)
        for i in range(n - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        return c
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if series == "B" and n >= 2:
        c[n - 1][n - 2] = -2  # alpha_n short
    elif series == "C" and n >= 2:
        c[n - 2][n - 1] = -2  # alpha_n long
    return c


def _enumerate_positive(cartan: Sequence[Sequence[int]]) -> list[RootVector]:
    """Closure algorithm: grow root strings upward from the simple roots."""
    rank = len(cartan)
    simple = [tuple([1 if j == i else 0 for j in range(rank)]) for i in range(rank)]
    known: set[RootVector] = set(simple)
    level = list(simple)
    out = list(simple)
    while level:
        nxt: list[RootVector] = []
        for beta in level:
            for i in range(rank):
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        p += 1
                    else:
                        break
                pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
                        out.append(cand)
        level = nxt
    return out


# a sweep builds a few hundred systems from a few dozen components
@lru_cache(maxsize=128)
def _positive_roots(series: str, n: int) -> tuple[RootVector, ...]:
    return tuple(_enumerate_positive(_cartan_block(series, n)))


@dataclass(frozen=True)
class RootSystem:
    """A product of irreducible root systems with a global simple-root index."""

    components: tuple[tuple[str, int], ...]
    cartan: tuple[tuple[int, ...], ...]
    positive: tuple[RootVector, ...]
    offsets: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)


def build_root_system(spec: Iterable[tuple[str, int]]) -> RootSystem:
    components = tuple([(series, rank) for series, rank in spec])
    if not components:
        raise RootSystemError("empty root-system specification")
    for series, rank in components:
        # a float or a bool must not read as the integer it rounds to
        if type(rank) is not int:
            raise RootSystemError(f"{series} rank must be an int, got {rank!r}")
        if series == "G":
            if rank != 2:
                raise RootSystemError(f"G requires rank 2, got {rank}")
        elif series in _MIN_RANK:
            if rank < _MIN_RANK[series]:
                raise RootSystemError(f"{series} requires rank >= {_MIN_RANK[series]}, got {rank}")
        else:
            raise RootSystemError(f"unknown series {series!r}")

    total = sum(rank for _, rank in components)
    if total > _MAX_TOTAL_RANK:
        raise RootSystemError(f"total rank {total} exceeds {_MAX_TOTAL_RANK}")
    cartan = [[0] * total for _ in range(total)]
    offsets = []
    pos = 0
    positive: list[RootVector] = []
    for series, rank in components:
        offsets.append(pos)
        block = _cartan_block(series, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[pos + i][pos + j] = block[i][j]
        for root in _positive_roots(series, rank):
            padded = (0,) * pos + root + (0,) * (total - pos - rank)
            positive.append(padded)
        pos += rank
    return RootSystem(
        components=components,
        cartan=tuple([tuple(row) for row in cartan]),
        positive=tuple(positive),
        offsets=tuple(offsets),
    )


def coroot_pairing(rs: RootSystem, i: int, v: Sequence[int | Fraction]):
    """<alpha_i^vee, v> for v in root-lattice coordinates."""
    row = rs.cartan[i]
    return sum(row[j] * v[j] for j in range(rs.rank))


def positive_in_span(rs: RootSystem, subset: Iterable[int]) -> tuple[RootVector, int]:
    """``(2rho_subset, |R+_subset|)``: the sum and the number of the positive
    roots whose support lies inside ``subset``, in one pass."""
    inside = frozenset(subset)
    total = [0] * rs.rank
    count = 0
    for root in rs.positive:
        if all(j in inside for j, x in enumerate(root) if x):
            count += 1
            for j, x in enumerate(root):
                total[j] += x
    return tuple(total), count

"""Finite root systems of types A, B, C, D, G2 and products thereof.

A system stores only Cartan data, and |R+| comes from the component types.
A root is a tuple of integer coefficients over the simple roots, and all
pairings go through the Cartan matrix ``C[i][j] = <alpha_i^vee, alpha_j>``.
Simple roots are numbered as in Bourbaki inside each component (B_n has
alpha_n short, C_n has alpha_n long) and concatenated to a single 0-based
global index across product components.  For G2 the orientation is fixed
with alpha_1 short, i.e. ``<alpha_1^vee, alpha_2> = -3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

RootVector = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# bounds the total x total Cartan matrix a system allocates
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
    """Closure algorithm: grow root strings upward from the simple roots.
    beta + alpha_i is a root iff the alpha_i-string through beta reaches
    p > <alpha_i^vee, beta> steps down."""
    rank = len(cartan)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    simple = [tuple([1 if j == i else 0 for j in range(rank)]) for i in range(rank)]
    known: set[RootVector] = set(simple)
    level = list(simple)
    while level:
        nxt: list[RootVector] = []
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


@dataclass(frozen=True)
class RootSystem:
    """A product of irreducible root systems: component types, Cartan matrix, offsets."""

    components: tuple[tuple[str, int], ...]
    cartan: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def positive_count(self) -> int:
        """|R+| from the component types (Bourbaki, Lie Groups, ch. VI, Plates I-IX)."""
        return sum(
            {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "G": 6}[series]
            for series, n in self.components
        )


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
    for series, rank in components:
        offsets.append(pos)
        block = _cartan_block(series, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[pos + i][pos + j] = block[i][j]
        pos += rank
    return RootSystem(
        components=components,
        cartan=tuple([tuple(row) for row in cartan]),
        offsets=tuple(offsets),
    )


def coroot_pairing(rs: RootSystem, i: int, v: Sequence[int | Fraction]):
    """<alpha_i^vee, v> for v in root-lattice coordinates; ValueError unless v
    has one coordinate per simple root."""
    if len(v) != rs.rank:
        raise ValueError(f"{len(v)} coordinates for a system of rank {rs.rank}")
    return sum(map(mul, rs.cartan[i], v))


def positive_in_span(rs: RootSystem, subset: Iterable[int]) -> tuple[RootVector, int]:
    """``(2rho_subset, |R+_subset|)``: the sum and the number of the positive
    roots supported in ``subset``, closed over the principal Cartan submatrix
    on ``subset`` alone (Humphreys, Introduction to Lie Algebras, section 10)."""
    inside = set(subset)
    for i in inside:
        if type(i) is not int or not 0 <= i < rs.rank:
            raise ValueError(f"simple-root index {i!r} is not in range({rs.rank})")
    idx = sorted(inside)
    roots = _enumerate_positive([[rs.cartan[i][j] for j in idx] for i in idx])
    total = [0] * rs.rank
    for root in roots:
        for j, x in zip(idx, root):
            total[j] += x
    return tuple(total), len(roots)

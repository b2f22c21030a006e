"""Finite root systems of types A, B, C, D, G2 and products thereof.

A system stores only Cartan data.  |R+|, and the sum 2rho and the number of
the positive roots of a Levi subsystem, come from the component types
(Bourbaki, Lie Groups, ch. VI, Plates I-IX); no root is enumerated.  A root
is a tuple of integer coefficients over the simple roots, and all pairings
go through the Cartan matrix ``C[i][j] = <alpha_i^vee, alpha_j>``.  Simple
roots are numbered as in Bourbaki inside each component (B_n has alpha_n
short, C_n has alpha_n long) and concatenated to a single 0-based global
index across product components.  For G2 the orientation is fixed with
alpha_1 short, i.e. ``<alpha_1^vee, alpha_2> = -3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RootVector = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# bounds the total x total Cartan matrix a system allocates
_MAX_TOTAL_RANK = 100

# |R+| and the coefficient of alpha_i (i = 1..k) in 2rho of an irreducible
# system of rank k, in Bourbaki's numbering (Lie Groups, ch. VI, Plates I-IX)
_COUNT = {"A": lambda k: k * (k + 1) // 2, "B": lambda k: k * k, "C": lambda k: k * k,
          "D": lambda k: k * (k - 1), "G": lambda k: 6}
_TWO_RHO = {
    "A": lambda k, i: i * (k + 1 - i),
    "B": lambda k, i: i * (2 * k - i),
    "C": lambda k, i: i * (2 * k - i + 1) if i < k else k * (k + 1) // 2,
    "D": lambda k, i: 2 * k * i - i * (i + 1) if i <= k - 2 else k * (k - 1) // 2,
    "G": lambda k, i: (10, 6)[i - 1],
}


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
        return sum([_COUNT[series](n) for series, n in self.components])


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


def cartan_row(rs: RootSystem, i: int) -> list[tuple[int, int]]:
    """The non-zero entries ``(j, C[i][j])`` of Cartan row ``i``.
    ``build_root_system`` lays every edge of the Dynkin diagram between
    indices at most two apart (the D fork edge spans two), so only those
    five entries are read."""
    row = rs.cartan[i]
    return [(j, row[j]) for j in range(max(i - 2, 0), min(i + 3, len(row))) if row[j]]


def coroot_pairing(rs: RootSystem, i: int, v: Sequence[int | Fraction]):
    """<alpha_i^vee, v> for v in root-lattice coordinates; ValueError unless v
    has one coordinate per simple root."""
    if len(v) != rs.rank:
        raise ValueError(f"{len(v)} coordinates for a system of rank {rs.rank}")
    return sum([c * v[j] for j, c in cartan_row(rs, i)])


def _walk(nbrs: dict[int, list[int]], start: int, skip: Sequence[int] = ()) -> list[int]:
    """The nodes of a path from its end ``start``, not entering ``skip``."""
    order, prev = [start], None
    while step := [j for j in nbrs[order[-1]] if j != prev and j not in skip]:
        prev = order[-1]
        order.append(step[0])
    return order


def _bourbaki_order(
    cartan: Sequence[Sequence[int]], comp: list[int], nbrs: dict[int, list[int]]
) -> tuple[str, list[int]]:
    """The type of the connected Dynkin subdiagram ``comp`` and its nodes as
    alpha_1, ..., alpha_k in Bourbaki's numbering.  ``C[u][v] = -2`` marks u
    as short: B_k when u ends the path, else C_k with v at the long end
    (B_2 = C_2 and D_3 = A_3 agree with either reading)."""
    ends = [i for i in comp if len(nbrs[i]) < 2]
    fork = [i for i in comp if len(nbrs[i]) == 3]
    if fork:
        # the path to the fork, then two of its leaves (D_4: any two)
        tips = [j for j in nbrs[fork[0]] if len(nbrs[j]) == 1][:2]
        return "D", _walk(nbrs, next(i for i in ends if i not in tips), tips) + tips
    edge = next(((u, v) for u in comp for v in nbrs[u] if cartan[u][v] < -1), None)
    if edge is None:
        return "A", _walk(nbrs, ends[0])
    u, v = edge
    if cartan[u][v] == -3:
        return "G", [u, v]
    if u in ends:
        return "B", _walk(nbrs, next(i for i in ends if i != u))
    return "C", _walk(nbrs, next(i for i in ends if i != v))


def positive_in_span(rs: RootSystem, subset: Iterable[int]) -> tuple[RootVector, int]:
    """``(2rho_subset, |R+_subset|)``: the sum and the number of the positive
    roots supported in ``subset``.  Each connected component of the subdiagram
    on ``subset``, found through the non-zeros of its Cartan rows, is typed
    and numbered as in Bourbaki, and contributes its closed-form 2rho and
    |R+| (Lie Groups, ch. VI, Plates I-IX), in time linear in ``subset``."""
    inside = set(subset)
    for i in inside:
        if type(i) is not int or not 0 <= i < rs.rank:
            raise ValueError(f"simple-root index {i!r} is not in range({rs.rank})")
    nbrs = {i: [j for j, _ in cartan_row(rs, i) if j != i and j in inside] for i in inside}
    total = [0] * rs.rank
    count = 0
    seen: set[int] = set()
    for start in inside:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [], [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        series, order = _bourbaki_order(rs.cartan, comp, nbrs)
        k = len(order)
        for n, j in enumerate(order, 1):
            total[j] = _TWO_RHO[series](k, n)
        count += _COUNT[series](k)
    return tuple(total), count

"""Spherical skeletons (Delta, S^p, Sigma, Gamma) and their combinatorics.

A spherical system bundles a root system, the parabolic subset S^p, the
linearly independent spherically closed spherical roots Sigma and the colors
Delta (each with its functional rho restricted to Sigma).  A skeleton is a
system plus the boundary divisors Gamma (nonpositive integer pairings), so
every Gamma over one system shares the system's checks.  Every pairing is
an int; the functional of a color is stored explicitly, and a color moved
by a simple root of type b or 2a must store the one Sigma forces.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import countOf
from typing import Iterable, Sequence

from sphskel import exactlp, rootsys
from sphskel.rootsys import RootSystem


class SkeletonInvariantError(ValueError):
    """A skeleton invariant is violated; .invariant names which one."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


@dataclass(frozen=True)
class Color:
    """A color D with its functional rho(D) restricted to Sigma.

    ``moved_by`` lists the simple roots alpha with D in Delta(alpha); it
    drives the anticanonical multiplicity m_D.  In a ``SphericalSystem``
    every value of ``rho`` is an ``int`` (a color's functional is integral
    on the lattice of Sigma, Luna 2001), no mover lies in S^p, and a mover
    alpha outside Sigma forces rho(D) = alpha^vee on Sigma (half of it when
    2 alpha is in Sigma, which Luna's axiom Sigma1 makes integral).
    """

    name: str
    rho: tuple[int, ...]
    moved_by: tuple[int, ...]


@dataclass(frozen=True)
class BoundaryDivisor:
    name: str
    rho: tuple[int, ...]


@dataclass(frozen=True)
class SphericalSystem:
    """A spherical system (S^p, Sigma, Delta) on a root system (Luna 2001).

    Construction checks every invariant that does not involve Gamma, among
    them that every value of a color's rho is an ``int``, so every LP built
    on the system is an int LP, that no simple root of S^p moves a color,
    and that each color stores the rho its movers force.  It also stores
    m_D over the colors as ``multiplicities``: m_D is 1 when some moving
    simple root lies in Sigma or (1/2)Sigma, otherwise
    <alpha^vee, 2rho_S - 2rho_{S^p}> = 2 - <alpha^vee, 2rho_{S^p}> for the
    moving root alpha (several movers must agree); and the budget |R+| minus
    |R+_{S^p}|.  2rho_{S^p} and |R+_{S^p}| come from the types of the S^p
    components (``rootsys.positive_in_span``).
    It stores the ``exactlp.SpanBasis`` of the colors' rho as ``basis``, in
    whose coordinates completeness is decided.
    """

    root_system: RootSystem
    sp: frozenset[int]
    sigma: tuple[tuple[int, ...], ...]
    colors: tuple[Color, ...]
    multiplicities: tuple[int, ...] = field(init=False, compare=False, repr=False)
    budget: int = field(init=False, compare=False, repr=False)
    basis: exactlp.SpanBasis = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rs, sigma, colors = self.root_system, self.sigma, self.colors
        if any(type(idx) is not int for idx in self.sp):
            raise SkeletonInvariantError("sp-integer", "S^p indices must be int")
        for g in sigma:
            if any(type(v) is not int for v in g):
                raise SkeletonInvariantError("sigma-integer", f"{g}: entries must be int")
        for color in colors:
            bad = [v for v in color.rho if type(v) is not int]
            if bad:
                raise SkeletonInvariantError(
                    "color-rho-integer", f"{color.name}: values must be int, not {bad[0]!r}"
                )
            if any(type(idx) is not int for idx in color.moved_by):
                raise SkeletonInvariantError(
                    "moved-by-integer", f"{color.name}: simple-root indices must be int"
                )
        names = [color.name for color in colors]
        if len(set(names)) != len(names):
            repeated = next(name for name in names if names.count(name) > 1)
            raise SkeletonInvariantError(
                "divisor-names-unique", f"{repeated!r} names two colors"
            )
        rank = rs.rank
        nsig = len(sigma)
        for idx in self.sp:
            if not 0 <= idx < rank:
                raise SkeletonInvariantError("sp-range", f"index {idx} out of range")
        for g in sigma:
            if len(g) != rank:
                raise SkeletonInvariantError("sigma-length", f"{g} has wrong length")
        if nsig and exactlp.matrix_rank(sigma) != nsig:
            raise SkeletonInvariantError("sigma-independent", "sigma is linearly dependent")
        # the simple roots alpha with alpha (type a) or 2 alpha (type 2a) in Sigma
        lone = [g for g in sigma if g.count(0) == rank - 1]
        type_a = {g.index(1) for g in lone if 1 in g}
        type_2a = {g.index(2) for g in lone if 2 in g}
        for color in colors:
            if len(color.rho) != nsig:
                raise SkeletonInvariantError(
                    "color-rho-length", f"{color.name}: expected {nsig} values"
                )
            if not color.moved_by:
                raise SkeletonInvariantError(
                    "color-moved-by", f"{color.name} is moved by no simple root"
                )
            if any(not 0 <= idx < rank for idx in color.moved_by):
                raise SkeletonInvariantError(
                    "moved-by-range", f"{color.name}: simple-root index out of range"
                )
            if len(set(color.moved_by)) != len(color.moved_by):
                raise SkeletonInvariantError(
                    "moved-by-distinct", f"{color.name}: a simple root is listed twice"
                )
            for idx in color.moved_by:
                if idx in self.sp:
                    raise SkeletonInvariantError(
                        "spherical-system-movers",
                        f"{color.name}: alpha_{idx} is no simple root outside S^p",
                    )
                if idx in type_a:
                    continue
                # a type-2a mover forces half of alpha^vee: 2 rho is compared with it
                twice = idx in type_2a
                got = tuple([2 * v for v in color.rho]) if twice else tuple(color.rho)
                expect = coroot_rho(rs, sigma, idx)
                if got != expect:
                    raise SkeletonInvariantError(
                        "color-forced",
                        f"{color.name}: {'2 ' * twice}rho ({', '.join(map(str, got))}),"
                        f" but its mover {idx} forces ({', '.join(map(str, expect))})",
                    )
        object.__setattr__(self, "basis", exactlp.span_basis([c.rho for c in colors], nsig))
        inside, count = rootsys.positive_in_span(rs, self.sp)
        object.__setattr__(self, "budget", rs.positive_count - count)
        in_sigma = type_a | type_2a
        ms = []
        for color in colors:
            if in_sigma.intersection(color.moved_by):
                ms.append(1)
                continue
            values = {2 - rootsys.coroot_pairing(rs, idx, inside) for idx in color.moved_by}
            if len(values) != 1:
                raise SkeletonInvariantError(
                    "multiplicity-well-defined",
                    f"{color.name}: movers disagree on m_D ({sorted(values)})",
                )
            m = values.pop()
            if m < 1:
                raise SkeletonInvariantError(
                    "multiplicity-positive", f"{color.name}: m_D = {m} < 1"
                )
            ms.append(m)
        object.__setattr__(self, "multiplicities", tuple(ms))


@dataclass(frozen=True)
class SphericalSkeleton:
    """A spherical system plus a set Gamma of boundary divisors
    (Gagliardi & Hofscheier 2017); construction checks Gamma only."""

    system: SphericalSystem
    boundary: tuple[BoundaryDivisor, ...]

    def __post_init__(self):
        nsig = len(self.system.sigma)
        for div in self.boundary:
            rho = div.rho
            if len(rho) != nsig:
                raise SkeletonInvariantError(
                    "boundary-rho-length", f"{div.name}: expected {nsig} values"
                )
            # type(True) is bool, so a bool is no int here
            if countOf(map(type, rho), int) != nsig:
                raise SkeletonInvariantError(
                    "boundary-rho-integer", f"{div.name}: pairings must be integers"
                )
            if max(rho, default=0) > 0:
                raise SkeletonInvariantError(
                    "boundary-nonpositive", f"{div.name}: pairing must be <= 0"
                )
            if nsig and min(rho) == 0:  # every entry is <= 0 here
                raise SkeletonInvariantError(
                    "boundary-rho-nonzero", f"{div.name}: rho vanishes on sigma"
                )
        names = [div.name for div in self.divisors]
        if len(set(names)) != len(names):
            twice = next(x for i, x in enumerate(names) if x in names[:i])
            raise SkeletonInvariantError("divisor-names-unique", f"{twice!r} names two divisors")

    @property
    def divisors(self) -> tuple:
        """The set D = Delta u Gamma, colors first."""
        return self.system.colors + self.boundary


def coroot_rho(rs: RootSystem, sigma: Sequence[tuple[int, ...]], index: int) -> tuple[int, ...]:
    """alpha_index^vee restricted to sigma, each pairing over the at most four
    non-zeros of Cartan row ``index``."""
    row = rootsys.cartan_row(rs, index)
    return tuple([sum([c * g[j] for j, c in row]) for g in sigma])


def pairing_matrix(sk: SphericalSkeleton) -> list[list[int]]:
    """A[D][gamma] = -<rho(D), gamma> over D in ``sk.divisors``."""
    return [[-v for v in div.rho] for div in sk.divisors]


def multiplicities(sk: SphericalSkeleton) -> tuple[int, ...]:
    """m_D over D in ``sk.divisors`` (boundary divisors get 1)."""
    return sk.system.multiplicities + (1,) * len(sk.boundary)


def _completeness_basis(system: SphericalSystem, rows: list) -> exactlp.SpanBasis | None:
    """The basis the completeness LP of the rho(D) ``rows`` over ``system``,
    colors first, is taken in; None when they do not span."""
    nsig, basis = len(system.sigma), system.basis
    if len(basis.indices) < nsig:
        basis = exactlp.span_basis(rows, nsig)
        if len(basis.indices) < nsig:
            return None
    return basis


def completeness_witness(
    sk: SphericalSkeleton,
) -> tuple[tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    """``(lam, None)`` with lam_D >= 1 and sum_D lam_D rho(D) = 0 over
    ``sk.divisors``, or ``(None, y)`` with y nonzero and <rho(D), y> >= 0 for
    every D, or ``(None, None)`` when the rho(D) do not span.

    The skeleton is complete iff lam is set: the functionals span, and a
    positive combination of them vanishes, so their cone is the whole space
    (Stiemke 1915).  A y also separates any subset of them.  The system's
    ``basis`` serves when its colors span; otherwise a basis of all the
    rho(D) does, if they span.
    """
    rows = [div.rho for div in sk.divisors]
    basis = _completeness_basis(sk.system, rows)
    if basis is None:
        return None, None
    return exactlp.positive_dependence(rows, basis)


def is_complete(sk: SphericalSkeleton) -> bool:
    """Whether the rho(D) positively span the dual of span(Sigma): whether
    ``completeness_witness`` sets lam, decided by the value of its LP alone."""
    rows = [div.rho for div in sk.divisors]
    basis = _completeness_basis(sk.system, rows)
    return basis is not None and exactlp.separator(rows, basis) is None


def support_separation(system: SphericalSystem, indices: Iterable[int]) -> frozenset[int] | None:
    """None when ``with_boundary_support(system, indices)`` is complete, else
    the set {j : y_j <= 0} of its ``completeness_witness`` y (empty when the
    rho(D) do not span), from the same LP on the same rows.  It builds no
    skeleton and no witness Fraction.  ValueError as ``with_boundary_support``.
    """
    units = _unit_rows(len(system.sigma), _support(system, indices))
    rows = [c.rho for c in system.colors] + units
    basis = _completeness_basis(system, rows)
    if basis is None:
        return frozenset()
    y = exactlp.separator(rows, basis)
    return None if y is None else frozenset([j for j, x in enumerate(y) if x <= 0])


def basis_separations(system: SphericalSystem) -> list[frozenset[int]]:
    """The set {j : y_j <= 0} of each column y of ``basis.inverse`` that
    separates the colors, with no LP; [] when the colors do not span.

    Column k is the y = den P^T e_k: the k-th basis color pairs with it to
    den, every other basis color to 0 and an off-basis color to its k-th
    coordinate.  So y separates the colors exactly when column k of
    ``coords`` is >= 0, and then y is nonzero and no support inside its set
    is complete (Stiemke 1915), as for a set of ``support_separation``.
    """
    basis, nsig = system.basis, len(system.sigma)
    if len(basis.indices) < nsig:
        return []
    return [
        frozenset([j for j, row in enumerate(basis.inverse) if row[k] <= 0])
        for k in range(nsig)
        if all(w[k] >= 0 for w in basis.coords)
    ]


def _support(system: SphericalSystem, indices: Iterable[int]) -> list[int]:
    """The support's indices, sorted and once each; ValueError names every
    index that is not an int naming a spherical root."""
    indices = list(indices)
    nsig = len(system.sigma)
    bad = [j for j in indices if type(j) is not int or not 0 <= j < nsig]
    if bad:
        raise ValueError(f"support indices {bad} name no spherical root of {nsig}")
    return sorted(set(indices))


def _unit_rows(nsig: int, idx: list[int]) -> list[tuple[int, ...]]:
    """rho = -e_j of the boundary divisor E_{j+1} for each j in ``idx``."""
    return [tuple([-1 if t == j else 0 for t in range(nsig)]) for j in idx]


def with_boundary_support(
    system: SphericalSystem, indices: Iterable[int], combined: bool = False
) -> SphericalSkeleton:
    """Reduced elementary Gamma over the given support (or one combined divisor).

    ValueError names every index that is not an int naming a spherical root.
    """
    idx = _support(system, indices)
    nsig = len(system.sigma)
    if combined:
        rho = tuple([-1 if j in idx else 0 for j in range(nsig)])
        gamma: tuple[BoundaryDivisor, ...] = (BoundaryDivisor(name="E", rho=rho),)
    else:
        units = _unit_rows(nsig, idx)
        gamma = tuple([BoundaryDivisor(name=f"E{j + 1}", rho=u) for j, u in zip(idx, units)])
    return SphericalSkeleton(system, gamma)


def _certificate_colors(
    system: SphericalSystem, delta_prime: Iterable[str], sigma_prime: Iterable[int]
) -> tuple[list[Color], frozenset[int]]:
    """The colors Delta' names and the set Sigma'; ValueError for an unknown
    or repeated color or an index that names no spherical root."""
    by_name = {color.name: color for color in system.colors}
    names = list(delta_prime)
    try:
        chosen = [by_name[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"unknown color {exc.args[0]!r}") from exc
    if len(set(names)) != len(names):
        raise ValueError(f"Delta' names a color twice: {names}")
    strict = frozenset(sigma_prime)
    bad = [j for j in strict if type(j) is not int or not 0 <= j < len(system.sigma)]
    if bad:
        raise ValueError(f"Sigma' indices {bad} name no spherical root")
    return chosen, strict


def check_distinguished_certificate(
    system: SphericalSystem,
    delta_prime: Iterable[str],
    sigma_prime: Iterable[int],
    c: Sequence[Fraction | int],
) -> bool:
    """Validate a distinguished-subset certificate (Delta', Sigma', c).

    True iff sum c_D rho(D) over Delta' is >= 0 on every spherical root and
    strictly positive exactly on Sigma'.  A valid certificate implies every
    reduced elementary skeleton with support inside Sigma' is not complete;
    the tests cross-check that against is_complete.
    """
    chosen, strict = _certificate_colors(system, delta_prime, sigma_prime)
    weights = list(c)
    if len(weights) != len(chosen):
        raise ValueError("one weight per color required")
    if any(type(w) not in (int, Fraction) for w in weights):
        raise ValueError(f"certificate weights must be int or Fraction: {weights}")
    if any(w <= 0 for w in weights):
        raise ValueError("certificate weights must be strictly positive")
    for j in range(len(system.sigma)):
        total = sum(w * color.rho[j] for w, color in zip(weights, chosen))
        if total < 0:
            return False
        if (total > 0) != (j in strict):
            return False
    return True


def find_certificate_multipliers(
    system: SphericalSystem, delta_prime: Iterable[str], sigma_prime: Iterable[int]
) -> tuple[Fraction, ...] | None:
    """Search c_D >= 1 making (Delta', Sigma') a valid certificate.

    One feasibility LP: sum c_D rho(D) - sum_j t_j e_j = 0 over Delta' and
    j in Sigma', with every c_D and t_j >= 1, so the sum is 0 off Sigma'
    and at least 1 on it.
    """
    names = list(delta_prime)
    chosen, strict = _certificate_colors(system, names, sigma_prime)
    surplus = [[-int(g == j) for g in range(len(system.sigma))] for j in sorted(strict)]
    lam = exactlp.positive_dependence([c.rho for c in chosen] + surplus)[0]
    if lam is None:
        return None
    c = lam[: len(chosen)]
    return c if check_distinguished_certificate(system, names, strict, c) else None


# ---------------------------------------------------------------------------
# skeleton file format (JSON; rationals as reduced fraction strings)


class SkeletonParseError(ValueError):
    """Malformed skeleton file."""


def frac_str(x: Fraction | int) -> str:
    """A rational as a reduced fraction string, "n" or "n/d"."""
    n, d = x.numerator, x.denominator  # an int or a Fraction is already reduced
    return str(n) if d == 1 else f"{n}/{d}"


def _object(data, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(data, dict):
        raise SkeletonParseError(f"{where}: expected an object")
    for key in data:
        if key not in required and key not in optional:
            raise SkeletonParseError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise SkeletonParseError(f"{where}: missing key {key!r}")
    return data


def _list(data, where: str) -> list:
    if not isinstance(data, list):
        raise SkeletonParseError(f"{where}: expected a list, got {data!r}")
    return data


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise SkeletonParseError(f"{where}: expected a string, got {value!r}")
    return value


def _int(value, where: str) -> int:
    # bool is a subclass of int, and JSON true must not read as 1
    if type(value) is not int:
        raise SkeletonParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _ints(values, where: str) -> tuple[int, ...]:
    return tuple([_int(v, where) for v in _list(values, where)])


def _frac(value, where: str) -> int | Fraction:
    """A fraction string or a JSON integer as an int when it is integral;
    otherwise as the Fraction, which ``SphericalSystem`` rejects
    (``color-rho-integer``)."""
    if type(value) is not int and not isinstance(value, str):
        raise SkeletonParseError(f"{where}: expected a fraction string, got {value!r}")
    try:
        # "n" or "n/d" in ASCII digits: Fraction alone reads "1_0" as 10,
        # "٣" as 3, "1.5" as 3/2 and " 1" as 1
        if isinstance(value, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value, re.ASCII):
            raise ValueError(value)
        x = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SkeletonParseError(f"{where}: bad rational {value!r}") from exc
    return x.numerator if x.denominator == 1 else x


def to_dict(sk: SphericalSkeleton) -> dict:
    system = sk.system
    data = {
        "root_system": [
            {"series": series, "rank": rank} for series, rank in system.root_system.components
        ],
        "sp": sorted(system.sp),
        "sigma": [list(g) for g in system.sigma],
        "colors": [
            {
                "name": c.name,
                "rho": [frac_str(v) for v in c.rho],
                "moved_by": list(c.moved_by),
            }
            for c in system.colors
        ],
        "boundary": [{"name": d.name, "rho": list(d.rho)} for d in sk.boundary],
    }
    return data


def from_dict(data: dict) -> SphericalSkeleton:
    """Build a skeleton from its file form; every value is type-checked and
    unknown keys are rejected, so a malformed file never reads as another
    skeleton."""
    data = _object(data, "top level", ("root_system",), ("sp", "sigma", "colors", "boundary"))
    spec = []
    for comp in _list(data["root_system"], "root_system"):
        comp = _object(comp, "root_system component", ("series", "rank"))
        spec.append((_str(comp["series"], "series"), _int(comp["rank"], "rank")))
    try:
        rs = rootsys.build_root_system(spec)
    except rootsys.RootSystemError as exc:
        raise SkeletonParseError(f"root_system: {exc}") from exc
    sigma = tuple([_ints(g, "sigma") for g in _list(data.get("sigma", []), "sigma")])
    sp_list = _ints(data.get("sp", []), "sp")
    if len(set(sp_list)) != len(sp_list):
        raise SkeletonParseError(f"sp: repeated index in {list(sp_list)}")
    sp = frozenset(sp_list)
    colors = []
    for c in _list(data.get("colors", []), "colors"):
        c = _object(c, "color", ("name", "rho", "moved_by"))
        where = f"color {_str(c['name'], 'color name')}"
        colors.append(
            Color(
                name=c["name"],
                rho=tuple([_frac(v, f"{where} rho") for v in _list(c["rho"], f"{where} rho")]),
                moved_by=_ints(c["moved_by"], f"{where} moved_by"),
            )
        )
    boundary = []
    for d in _list(data.get("boundary", []), "boundary"):
        d = _object(d, "boundary divisor", ("name", "rho"))
        where = f"boundary {_str(d['name'], 'boundary name')}"
        boundary.append(BoundaryDivisor(name=d["name"], rho=_ints(d["rho"], f"{where} rho")))
    system = SphericalSystem(root_system=rs, sp=sp, sigma=sigma, colors=tuple(colors))
    return SphericalSkeleton(system, tuple(boundary))


def save(sk: SphericalSkeleton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_dict(sk), handle, indent=2)
        handle.write("\n")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_json(handle) -> object:
    """``json.load``, but ValueError names a repeated key of an object, whose
    last value json alone would keep without a word."""
    return json.load(handle, object_pairs_hook=_unique_keys)


def load(path: str) -> SphericalSkeleton:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = read_json(handle)
        except ValueError as exc:  # bad JSON, a repeated key or bad UTF-8
            raise SkeletonParseError(f"invalid JSON: {exc}") from exc
    return from_dict(data)

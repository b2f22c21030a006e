"""Spherical skeletons (Delta, S^p, Sigma, Gamma) and their combinatorics.

A spherical system bundles a root system, the parabolic subset S^p, the
linearly independent spherically closed spherical roots Sigma and the colors
Delta (each with its functional rho restricted to Sigma).  A skeleton is a
system plus the boundary divisors Gamma (nonpositive integer pairings), so
every Gamma over one system shares the system's checks.  All values are
exact; the functional of a color is stored explicitly, with an optional
coroot reference kept purely as a consistency cross-check.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
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

    ``coroot`` optionally records that rho(D) = scale * alpha_idx^vee; the
    explicit ``rho`` vector stays authoritative and the reference is only
    validated against it.  ``moved_by`` lists the simple roots alpha with
    D in Delta(alpha); it drives the anticanonical multiplicity m_D.  In a
    ``SphericalSystem`` an integral value of ``rho`` is an ``int``.
    """

    name: str
    rho: tuple[int | Fraction, ...]
    moved_by: tuple[int, ...]
    coroot: tuple[int, Fraction] | None = None


@dataclass(frozen=True)
class BoundaryDivisor:
    name: str
    rho: tuple[int, ...]


@dataclass(frozen=True)
class SphericalSystem:
    """A spherical system (S^p, Sigma, Delta) on a root system (Luna 2001).

    Construction checks every invariant that does not involve Gamma and
    stores each color with the integral values of its rho as ``int``, so the
    LPs built on an integral system hold no ``Fraction``.  It also stores
    m_D over the colors as ``multiplicities``: m_D is 1 when some moving
    simple root lies in Sigma or (1/2)Sigma, otherwise
    <alpha^vee, 2rho_S - 2rho_{S^p}> = 2 - <alpha^vee, 2rho_{S^p}> for the
    moving root alpha (several movers must agree); and the budget |R+| minus
    |R+_{S^p}|, the count of the closure over S^p that sums 2rho_{S^p}.
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
            if any(type(v) not in (int, Fraction) for v in color.rho):
                raise SkeletonInvariantError(
                    "color-rho-rational", f"{color.name}: values must be int or Fraction"
                )
            if any(type(idx) is not int for idx in color.moved_by):
                raise SkeletonInvariantError(
                    "moved-by-integer", f"{color.name}: simple-root indices must be int"
                )
            if color.coroot is not None:
                idx, scale = color.coroot
                if type(idx) is not int or type(scale) not in (int, Fraction):
                    raise SkeletonInvariantError(
                        "coroot-exact",
                        f"{color.name}: coroot index must be int, scale int or Fraction",
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
        canonical = []
        for color in colors:
            if len(color.rho) != nsig:
                raise SkeletonInvariantError(
                    "color-rho-length", f"{color.name}: expected {nsig} values"
                )
            if any(v.denominator not in (1, 2) for v in color.rho):
                raise SkeletonInvariantError(
                    "color-rho-denominator",
                    f"{color.name}: values must be integral or half-integral",
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
            if color.coroot is not None:
                idx, scale = color.coroot
                if not 0 <= idx < rank:
                    raise SkeletonInvariantError(
                        "coroot-range", f"{color.name}: coroot index {idx} out of range"
                    )
                expect = coroot_rho(rs, sigma, idx, scale)
                if tuple(color.rho) != expect:
                    raise SkeletonInvariantError(
                        "color-coroot-consistent",
                        f"{color.name}: stored rho {color.rho}"
                        f" != {scale}*alpha_{idx}^vee {expect}",
                    )
            rho = tuple([v.numerator if v.denominator == 1 else v for v in color.rho])
            canonical.append(Color(color.name, rho, color.moved_by, color.coroot))
        object.__setattr__(self, "colors", tuple(canonical))
        object.__setattr__(self, "basis", exactlp.span_basis([c.rho for c in canonical], nsig))
        inside, count = rootsys.positive_in_span(rs, self.sp)
        object.__setattr__(self, "budget", rs.positive_count - count)
        sigma_set = set(sigma)
        ms = []
        for color in colors:
            alphas = [tuple([int(j == idx) for j in range(rank)]) for idx in color.moved_by]
            if any(a in sigma_set or tuple([2 * v for v in a]) in sigma_set for a in alphas):
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
            if len(div.rho) != nsig:
                raise SkeletonInvariantError(
                    "boundary-rho-length", f"{div.name}: expected {nsig} values"
                )
            if any(type(v) is not int for v in div.rho):
                raise SkeletonInvariantError(
                    "boundary-rho-integer", f"{div.name}: pairings must be integers"
                )
            if any(v > 0 for v in div.rho):
                raise SkeletonInvariantError(
                    "boundary-nonpositive", f"{div.name}: pairing must be <= 0"
                )
            if nsig and all(v == 0 for v in div.rho):
                raise SkeletonInvariantError(
                    "boundary-rho-nonzero", f"{div.name}: rho vanishes on sigma"
                )
        seen = set()
        for div in self.divisors:
            if div.name in seen:
                raise SkeletonInvariantError(
                    "divisor-names-unique", f"{div.name!r} names two divisors"
                )
            seen.add(div.name)

    @property
    def divisors(self) -> tuple:
        """The set D = Delta u Gamma, colors first."""
        return self.system.colors + self.boundary


def coroot_rho(
    rs: RootSystem, sigma: Sequence[tuple[int, ...]], index: int, scale: Fraction | int = 1
) -> tuple:
    """scale * alpha_index^vee restricted to sigma (integers for an int scale)."""
    return tuple([scale * rootsys.coroot_pairing(rs, index, g) for g in sigma])


def pairing_matrix(sk: SphericalSkeleton) -> list[list[int | Fraction]]:
    """A[D][gamma] = -<rho(D), gamma> over D in ``sk.divisors``."""
    return [[-v for v in div.rho] for div in sk.divisors]


def multiplicities(sk: SphericalSkeleton) -> tuple[int, ...]:
    """m_D over D in ``sk.divisors`` (boundary divisors get 1)."""
    return sk.system.multiplicities + (1,) * len(sk.boundary)


def _completeness_basis(sk: SphericalSkeleton) -> tuple[list, exactlp.SpanBasis | None]:
    """The rho(D) over ``sk.divisors`` and the basis their completeness LP
    is taken in, None when they do not span."""
    rows = [div.rho for div in sk.divisors]
    nsig, basis = len(sk.system.sigma), sk.system.basis
    if len(basis.indices) < nsig:
        basis = exactlp.span_basis(rows, nsig)
        if len(basis.indices) < nsig:
            return rows, None
    return rows, basis


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
    rows, basis = _completeness_basis(sk)
    if basis is None:
        return None, None
    return exactlp.positive_dependence(rows, basis)


def is_complete(sk: SphericalSkeleton) -> bool:
    """Whether the rho(D) positively span the dual of span(Sigma): whether
    ``completeness_witness`` sets lam, decided by the value of its LP alone."""
    rows, basis = _completeness_basis(sk)
    return basis is not None and exactlp.positively_dependent(rows, basis)


def with_boundary_support(
    system: SphericalSystem, indices: Iterable[int], combined: bool = False
) -> SphericalSkeleton:
    """Reduced elementary Gamma over the given support (or one combined divisor).

    ValueError names every index that is not an int naming a spherical root.
    """
    indices = list(indices)
    nsig = len(system.sigma)
    bad = [j for j in indices if type(j) is not int or not 0 <= j < nsig]
    if bad:
        raise ValueError(f"support indices {bad} name no spherical root of {nsig}")
    idx = sorted(set(indices))
    if combined:
        rho = tuple([-1 if j in idx else 0 for j in range(nsig)])
        gamma: tuple[BoundaryDivisor, ...] = (BoundaryDivisor(name="E", rho=rho),)
    else:
        units = [tuple([-1 if t == j else 0 for t in range(nsig)]) for j in idx]
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


def _frac(value, where: str) -> Fraction:
    if type(value) is not int and not isinstance(value, str):
        raise SkeletonParseError(f"{where}: expected a fraction string, got {value!r}")
    try:
        # "n" or "n/d" in ASCII digits: Fraction alone reads "1_0" as 10,
        # "٣" as 3, "1.5" as 3/2 and " 1" as 1
        if isinstance(value, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value, re.ASCII):
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SkeletonParseError(f"{where}: bad rational {value!r}") from exc


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
                **(
                    {"coroot": {"index": c.coroot[0], "scale": frac_str(c.coroot[1])}}
                    if c.coroot
                    else {}
                ),
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
        c = _object(c, "color", ("name", "rho", "moved_by"), ("coroot",))
        where = f"color {_str(c['name'], 'color name')}"
        coroot = None
        if "coroot" in c:
            ref = _object(c["coroot"], f"{where} coroot", ("index",), ("scale",))
            coroot = (
                _int(ref["index"], f"{where} coroot index"),
                _frac(ref.get("scale", "1"), f"{where} coroot scale"),
            )
        colors.append(
            Color(
                name=c["name"],
                rho=tuple([_frac(v, f"{where} rho") for v in _list(c["rho"], f"{where} rho")]),
                moved_by=_ints(c["moved_by"], f"{where} moved_by"),
                coroot=coroot,
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

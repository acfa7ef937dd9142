"""Problem instances: chord pairings on a half-disk with a reflecting boundary.

A lattice instance consists of N oriented chords (lines) attached to the
perimeter points 1..2N, a subset of lines that bounce off the reflecting
diameter, one rapidity per line and a boundary parameter q.  This module
owns validation, the lattice-to-chain dictionary (inhomogeneities), the
exactly-known Bethe roots and Q-function, and the magnon bookkeeping that
links external edge states to chain sites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import DegenerateSpecError, InvalidSpecError
from .exact import format_rational, parse_rational

_HALF = Fraction(1, 2)
_RATIONAL = (int, Fraction)


def _strict(value, kinds: tuple, what: str):
    """``value`` unchanged if its type is one of ``kinds``; a bool is not an int."""
    if type(value) not in kinds:
        raise ValueError(f"{what} must be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


@dataclass(frozen=True)
class Chord:
    """One line: perimeter start point (arrow tail) and end point (arrow head)."""

    start: int
    end: int

    def __post_init__(self):
        _strict(self.start, (int,), "chord start")
        _strict(self.end, (int,), "chord end")


@dataclass(frozen=True)
class ExternalConfig:
    """State labels (1 or 2) on the perimeter edges: alpha at starts, beta at ends."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        for s in self.alpha + self.beta:
            if type(s) is not int or s not in (1, 2):
                raise ValueError(f"state labels must be the int 1 or 2, got {s!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """A full problem instance: pairing, reflected set, rapidities, boundary q."""

    chords: tuple
    reflected: frozenset
    rapidities: tuple
    boundary_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "chords", tuple(self.chords))
        reflected = frozenset(_strict(k, (int,), "reflected line") for k in self.reflected)
        object.__setattr__(self, "reflected", reflected)
        rapidities = tuple(Fraction(_strict(t, _RATIONAL, "rapidity")) for t in self.rapidities)
        object.__setattr__(self, "rapidities", rapidities)
        object.__setattr__(self, "boundary_q", Fraction(_strict(self.boundary_q, _RATIONAL, "q")))

    @property
    def n(self) -> int:
        return len(self.chords)

    @property
    def length(self) -> int:
        """Number of chain sites, twice the number of lines."""
        return 2 * len(self.chords)

    def is_reflected(self, k: int) -> bool:
        """Whether line k (1-based) bounces off the diameter."""
        return k in self.reflected


@dataclass(frozen=True)
class BetheRootSet:
    roots: tuple

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(Fraction(z) for z in self.roots))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


def validate_spec(spec: LatticeSpec) -> ValidationReport:
    """Check the pairing/ordering invariants and the genericity conditions.

    Genericity keeps every weight normalization, commutation-relation
    denominator and Q-root distinct at once:
      theta_k +- theta_l not in {0, +-1, +-2} for k != l,
      theta_k not in {0, +-1/2, +-1},
      q +- theta_k not in {0, +-1},  q not in {0, +-1/2}.
    """
    violations = []
    n = spec.n
    if len(spec.rapidities) != n:
        violations.append(f"expected {n} rapidities, got {len(spec.rapidities)}")
    if not spec.reflected <= set(range(1, n + 1)):
        violations.append(f"reflected set {sorted(spec.reflected)} not within 1..{n}")

    endpoints = []
    for k, chord in enumerate(spec.chords, start=1):
        if not (1 <= chord.end < chord.start <= 2 * n):
            violations.append(f"line {k}: needs 2N >= start > end >= 1, got ({chord.start},{chord.end})")
        endpoints.extend((chord.start, chord.end))
    if sorted(endpoints) != list(range(1, 2 * n + 1)):
        violations.append("chord endpoints do not form a perfect matching of 1..2N")
    starts = [c.start for c in spec.chords]
    if any(a <= b for a, b in zip(starts, starts[1:])):
        violations.append("lines must be ordered by strictly descending start point")

    if len(spec.rapidities) == n:
        small = {Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}
        for k, t in enumerate(spec.rapidities, start=1):
            if t in {Fraction(0), _HALF, -_HALF, Fraction(1), Fraction(-1)}:
                violations.append(f"rapidity {k} = {t} is non-generic")
        for (k, tk), (l, tl) in itertools.combinations(enumerate(spec.rapidities, start=1), 2):
            if tk - tl in small or tk + tl in small:
                violations.append(f"rapidities {k},{l}: theta_{k} +- theta_{l} hits 0,+-1,+-2")
        q = spec.boundary_q
        if q in {Fraction(0), _HALF, -_HALF}:
            violations.append(f"boundary parameter q = {q} is non-generic")
        for k, t in enumerate(spec.rapidities, start=1):
            if q + t in {Fraction(0), Fraction(1), Fraction(-1)} or q - t in {
                Fraction(0),
                Fraction(1),
                Fraction(-1),
            }:
                violations.append(f"q +- theta_{k} hits 0 or +-1")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(spec: LatticeSpec) -> None:
    report = validate_spec(spec)
    if not report.ok:
        raise InvalidSpecError(report.violations)


def inhomogeneities(spec: LatticeSpec) -> tuple:
    """Chain inhomogeneities from the rapidities; entry s - 1 belongs to site s.

    Start site of line k gets theta_k; the end site gets -theta_k - 1 when
    the line is reflected and theta_k - 1 otherwise.
    """
    require_valid(spec)
    values = [None] * spec.length
    for k, chord in enumerate(spec.chords, start=1):
        t = spec.rapidities[k - 1]
        values[chord.start - 1] = t
        values[chord.end - 1] = -t - 1 if spec.is_reflected(k) else t - 1
    return tuple(values)


def canonical_bethe_roots(spec: LatticeSpec) -> BetheRootSet:
    """The one exact root per line: theta_k if reflected, -theta_k otherwise.

    The partner branch z -> -z - 1 yields the same state up to a scalar, so
    a single canonical branch keeps every downstream output deterministic.
    """
    require_valid(spec)
    return BetheRootSet(
        tuple(
            t if spec.is_reflected(k) else -t
            for k, t in enumerate(spec.rapidities, start=1)
        )
    )


def q_function(spec: LatticeSpec, z) -> Fraction:
    """Baxter Q at z, written directly in terms of the rapidities."""
    require_valid(spec)
    z = Fraction(z)
    out = Fraction(1)
    for k, t in enumerate(spec.rapidities, start=1):
        if spec.is_reflected(k):
            out *= (z - t) * (z + t + 1)
        else:
            out *= (z + t) * (z - t + 1)
    return out


def _check_config(spec: LatticeSpec, config: ExternalConfig) -> None:
    if len(config.alpha) != spec.n or len(config.beta) != spec.n:
        raise ValueError(f"config labels must have length {spec.n}")


def magnon_positions(spec: LatticeSpec, config: ExternalConfig) -> tuple:
    """Sites carrying a magnon: starts with alpha=2 plus ends with beta=1."""
    _check_config(spec, config)
    positions = {c.start for c, a in zip(spec.chords, config.alpha) if a == 2}
    positions |= {c.end for c, b in zip(spec.chords, config.beta) if b == 1}
    return tuple(sorted(positions))


def ice_rule_satisfied(spec: LatticeSpec, config: ExternalConfig) -> bool:
    """Charge conservation: the magnon count must equal the number of lines."""
    _check_config(spec, config)
    count = sum(1 for a in config.alpha if a == 2) + sum(1 for b in config.beta if b == 1)
    return count == spec.n


def reference_config(n: int) -> ExternalConfig:
    """All edge states 1; every method normalizes its output to 1 here."""
    return ExternalConfig((1,) * n, (1,) * n)


def sweep(
    spec: LatticeSpec,
    configs: Sequence[ExternalConfig],
    build_component: Callable[[LatticeSpec], Callable[[ExternalConfig], Fraction]],
) -> list:
    """Partition-function values of many configs from one route's component.

    ``build_component(spec)`` returns the route's unnormalized component as
    a function of the config; it is built once, and only when some config
    satisfies the ice rule.  Values are normalized to 1 at the reference
    config, and configs that break the ice rule get 0.
    """
    require_valid(spec)
    configs = list(configs)
    allowed = [ice_rule_satisfied(spec, config) for config in configs]
    if not any(allowed):
        return [Fraction(0)] * len(allowed)
    component = build_component(spec)
    norm = component(reference_config(spec.n))
    if norm == 0:
        raise DegenerateSpecError("reference component vanished")
    return [component(c) / norm if ok else Fraction(0) for c, ok in zip(configs, allowed)]


def all_configs(n: int) -> Iterator[ExternalConfig]:
    """All 4^N external configurations in lexicographic (alpha, beta) order."""
    for alpha in itertools.product((1, 2), repeat=n):
        for beta in itertools.product((1, 2), repeat=n):
            yield ExternalConfig(alpha, beta)


def initial_pairing(n: int) -> tuple:
    """The nested pairing ((2N,2N-1),(2N-2,2N-3),...,(2,1))."""
    return tuple(Chord(2 * n - 2 * k, 2 * n - 2 * k - 1) for k in range(n))


def initial_spec(spec: LatticeSpec) -> LatticeSpec:
    """The same lines, reflections and parameters on the nested pairing."""
    return LatticeSpec(
        chords=initial_pairing(spec.n),
        reflected=spec.reflected,
        rapidities=spec.rapidities,
        boundary_q=spec.boundary_q,
    )


def is_initial(spec: LatticeSpec) -> bool:
    return spec.chords == initial_pairing(spec.n)


# -- JSON forms (bit-exact: every rational travels as a "p/q" string) --------

def spec_to_dict(spec: LatticeSpec) -> dict:
    return {
        "n": spec.n,
        "lines": [
            {
                "start": c.start,
                "end": c.end,
                "reflected": spec.is_reflected(k),
                "rapidity": format_rational(t),
            }
            for k, (c, t) in enumerate(zip(spec.chords, spec.rapidities), start=1)
        ],
        "q": format_rational(spec.boundary_q),
    }


def spec_from_dict(data: dict) -> LatticeSpec:
    try:
        n = _strict(data["n"], (int,), "n")
        lines = data["lines"]
        chords = tuple(Chord(l["start"], l["end"]) for l in lines)
        reflected = frozenset(
            k for k, l in enumerate(lines, start=1) if _strict(l["reflected"], (bool,), "reflected")
        )
        rapidities = tuple(parse_rational(l["rapidity"]) for l in lines)
        q = parse_rational(data["q"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lattice description: {exc}") from exc
    if n != len(chords):
        raise ValueError(f"declared n={n} but {len(chords)} lines given")
    return LatticeSpec(chords=chords, reflected=reflected, rapidities=rapidities, boundary_q=q)


def config_to_dict(config: ExternalConfig) -> dict:
    return {"alpha": list(config.alpha), "beta": list(config.beta)}

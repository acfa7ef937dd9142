"""Problem instances: chord pairings on a half-disk with a reflecting boundary.

A lattice instance consists of N oriented chords (lines) attached to the
perimeter points 1..2N, a subset of lines that bounce off the reflecting
diameter, one rapidity per line and a boundary parameter q.  This module
owns validation (run once, when a ``LatticeSpec`` is made), the
lattice-to-chain dictionary (inhomogeneities), the exactly-known Bethe
roots and Q-function, and the one map from external edge states to the
chain: a config is read as the chain basis index of its labels placed at
the chord ends (``config_index``), and every route returns its chain
entries by that index (``sweep``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DegenerateSpecError, InvalidSpecError
from .exact import _strict, format_rational, parse_rational, rational

# Values that genericity forbids (see ``validate_spec``): for a rapidity,
# for a sum or difference of two, for q, and for q +- a rapidity.
_BAD_THETA = frozenset({Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)})
_BAD_PAIR = frozenset({Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)})
_BAD_Q = frozenset({Fraction(0), Fraction(1, 2), Fraction(-1, 2)})
_BAD_Q_THETA = frozenset({Fraction(0), Fraction(1), Fraction(-1)})


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
    """A full problem instance: pairing, reflected set, rapidities, boundary q.

    Construction checks the field types, then runs ``validate_spec`` and
    raises ``InvalidSpecError`` listing every violation, so every instance
    that exists is valid and generic.
    """

    chords: tuple
    reflected: frozenset
    rapidities: tuple
    boundary_q: Fraction

    def __post_init__(self):
        chords = tuple(_strict(chord, (Chord,), "chord") for chord in self.chords)
        object.__setattr__(self, "chords", chords)
        reflected = frozenset(_strict(k, (int,), "reflected line") for k in self.reflected)
        object.__setattr__(self, "reflected", reflected)
        rapidities = tuple(rational(t, "rapidity") for t in self.rapidities)
        object.__setattr__(self, "rapidities", rapidities)
        object.__setattr__(self, "boundary_q", rational(self.boundary_q, "q"))
        report = validate_spec(self)
        if not report.ok:
            raise InvalidSpecError(report.violations)

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
        object.__setattr__(self, "roots", tuple(rational(z, "root") for z in self.roots))


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
        for k, t in enumerate(spec.rapidities, start=1):
            if t in _BAD_THETA:
                violations.append(f"rapidity {k} = {t} is non-generic")
        for (k, tk), (l, tl) in itertools.combinations(enumerate(spec.rapidities, start=1), 2):
            if tk - tl in _BAD_PAIR or tk + tl in _BAD_PAIR:
                violations.append(f"rapidities {k},{l}: theta_{k} +- theta_{l} hits 0,+-1,+-2")
        q = spec.boundary_q
        if q in _BAD_Q:
            violations.append(f"boundary parameter q = {q} is non-generic")
        for k, t in enumerate(spec.rapidities, start=1):
            if q + t in _BAD_Q_THETA or q - t in _BAD_Q_THETA:
                violations.append(f"q +- theta_{k} hits 0 or +-1")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def inhomogeneities(spec: LatticeSpec) -> tuple:
    """Chain inhomogeneities from the rapidities; entry s - 1 belongs to site s.

    Start site of line k gets theta_k; the end site gets -theta_k - 1 when
    the line is reflected and theta_k - 1 otherwise.
    """
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
    return BetheRootSet(
        tuple(
            t if spec.is_reflected(k) else -t
            for k, t in enumerate(spec.rapidities, start=1)
        )
    )


def q_function(spec: LatticeSpec, z) -> Fraction:
    """Baxter Q at z, written directly in terms of the rapidities."""
    z = rational(z, "z")
    out = Fraction(1)
    for k, t in enumerate(spec.rapidities, start=1):
        if spec.is_reflected(k):
            out *= (z - t) * (z + t + 1)
        else:
            out *= (z + t) * (z - t + 1)
    return out


def _read_labels(labels: tuple, bits: list) -> tuple:
    """(index bits, count of label 2) of one side's labels; ``bits`` holds the
    chain bit of each line's site on that side, in line order."""
    if len(labels) != len(bits):
        raise ValueError(f"config labels must have length {len(bits)}")
    return sum((s - 1) << b for s, b in zip(labels, bits)), labels.count(2)


def _side_bits(spec: LatticeSpec) -> tuple:
    """The chain bits of the start sites and of the end sites, in line order."""
    length = spec.length
    return [length - c.start for c in spec.chords], [length - c.end for c in spec.chords]


def end_mask(spec: LatticeSpec) -> int:
    """Chain basis index bits of the end sites; site s is bit L - s."""
    return sum(1 << (spec.length - c.end) for c in spec.chords)


def config_index(spec: LatticeSpec, config: ExternalConfig) -> int:
    """Chain basis index of the perimeter labels: alpha at starts, beta at ends.

    Label 2 sets the site's bit, so the reference config has index 0 and the
    magnons of index k are the set bits of ``k ^ end_mask(spec)``.
    """
    start_bits, end_bits = _side_bits(spec)
    return _read_labels(config.alpha, start_bits)[0] | _read_labels(config.beta, end_bits)[0]


def magnon_sites(spec: LatticeSpec, index: int) -> tuple:
    """Sites carrying a magnon in a chain basis index, ascending: the set
    bits of ``index ^ end_mask(spec)``."""
    bits, length = index ^ end_mask(spec), spec.length
    return tuple(s for s in range(1, length + 1) if bits >> (length - s) & 1)


def ice_indices(spec: LatticeSpec) -> list:
    """Every chain basis index with N magnons, the C(2N, N) ice-rule configs."""
    mask = end_mask(spec)
    return [
        mask ^ sum(1 << b for b in bits)
        for bits in itertools.combinations(range(spec.length), spec.n)
    ]


def magnon_positions(spec: LatticeSpec, config: ExternalConfig) -> tuple:
    """Sites carrying a magnon: starts with alpha=2 plus ends with beta=1."""
    return magnon_sites(spec, config_index(spec, config))


def ice_rule_satisfied(spec: LatticeSpec, config: ExternalConfig) -> bool:
    """Charge conservation: the magnon count must equal the number of lines."""
    start_bits, end_bits = _side_bits(spec)
    return _read_labels(config.alpha, start_bits)[1] == _read_labels(config.beta, end_bits)[1]


def reference_config(n: int) -> ExternalConfig:
    """All edge states 1; every method normalizes its output to 1 here."""
    return ExternalConfig((1,) * n, (1,) * n)


def sweep(
    spec: LatticeSpec,
    configs: Sequence[ExternalConfig],
    route: Callable[[LatticeSpec, list], Mapping[int, int | Fraction]],
) -> list:
    """Partition-function values of many configs from one route's chain entries.

    Each config is read in one pass: every distinct alpha (or beta) tuple is
    looked up once for its bits of the ``config_index`` and its count of
    label 2, so a config obeys the ice rule iff its two counts are equal and
    its index is the or of its two bit sets.  A config whose labels do not
    have length N raises ``ValueError``.  ``route(spec, keys)`` is called
    once with the indices of the ice-rule configs, and only when there is
    one; it returns a mapping from chain index to component holding at least
    the nonzero components among ``keys`` and at index 0, the reference
    config.  A component may be any exact rational up to a factor common to
    all indices, such as the integer entry of a state without its scale:
    only its ratio to the reference component counts.  The result holds one
    ``Fraction`` per config, normalized to 1 at the reference config;
    configs whose component is 0, and configs that break the ice rule, share
    one ``Fraction(0)``.  The spec was validated when it was made, so nothing
    is checked again here.
    """
    start_bits, end_bits = _side_bits(spec)
    starts, ends = {}, {}  # labels -> _read_labels(labels, bits)
    keys = []
    for c in configs:
        a = starts.get(c.alpha) or starts.setdefault(c.alpha, _read_labels(c.alpha, start_bits))
        b = ends.get(c.beta) or ends.setdefault(c.beta, _read_labels(c.beta, end_bits))
        keys.append(a[0] | b[0] if a[1] == b[1] else None)
    zero = Fraction(0)
    allowed = [k for k in keys if k is not None]
    if not allowed:
        return [zero] * len(keys)
    table = route(spec, allowed)
    norm = table.get(0, 0)
    if norm == 0:
        raise DegenerateSpecError("reference component vanished")
    values = []
    for k in keys:
        x = 0 if k is None else table.get(k, 0)
        values.append(Fraction(x, norm) if x else zero)
    return values


def all_configs(n: int) -> Iterator[ExternalConfig]:
    """All 4^N external configurations in lexicographic (alpha, beta) order.

    The 2^N label tuples are built once and shared.  Every config is valid
    by construction, so the label check of ``ExternalConfig`` is skipped:
    its fields are set directly.
    """
    labels = list(itertools.product((1, 2), repeat=n))
    new = object.__new__
    for alpha in labels:
        for beta in labels:
            config = new(ExternalConfig)
            fields = config.__dict__
            fields["alpha"], fields["beta"] = alpha, beta
            yield config


def initial_pairing(n: int) -> tuple:
    """The nested pairing ((2N,2N-1),(2N-2,2N-3),...,(2,1))."""
    return tuple(Chord(2 * n - 2 * k, 2 * n - 2 * k - 1) for k in range(n))


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


"""Problem instances: chord pairings on a half-disk with a reflecting boundary.

A lattice instance consists of N oriented chords (lines) attached to the
perimeter points 1..2N, a subset of lines that bounce off the reflecting
diameter, one rapidity per line and a boundary parameter q.  This module
owns validation (run once, when a ``LatticeSpec`` is made), the
lattice-to-chain dictionary (``LatticeSpec.chain``, derived once per spec
and read by every kernel and route), the exactly-known Bethe roots and
Q-function, and the one map from external edge states to the chain: a
config is read as the chain basis index of its labels placed at the chord
ends (``config_index``), and every route returns its chain entries by that
index (``sweep``).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegenerateSpecError, InvalidSpecError
from .exact import _strict, format_rational, parse_rational, rational

# Values that genericity forbids (see ``validate_spec``): for a rapidity,
# for a sum or difference of two, for q, and for q +- a rapidity.
_BAD_THETA = frozenset({Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)})
_BAD_PAIR = frozenset({Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)})
_BAD_Q = frozenset({Fraction(0), Fraction(1, 2), Fraction(-1, 2)})
_BAD_Q_THETA = frozenset({Fraction(0), Fraction(1), Fraction(-1)})

# The value of every zero config: ``sweep`` shares it, ``pipeline.report_json``
# writes the rows where every value is it once per tuple of betas.
_ZERO = Fraction(0)


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
class Chain:
    """The chain of one lattice: ``v`` the inhomogeneities (entry s - 1 for
    site s), ``ends`` the index bits of the end sites (site s is bit
    length - s), ``start_bits`` and ``end_bits`` each line's start and end
    site bit in line order, ``roots`` the canonical Bethe roots, q, and
    ``d`` the lcm of the denominators of v and q."""

    length: int
    v: tuple
    ends: int
    start_bits: tuple
    end_bits: tuple
    roots: tuple
    q: Fraction
    d: int


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

    @functools.cached_property
    def chain(self) -> Chain:
        """The spec's ``Chain``, built on first use and kept; it is not a
        field, so it enters no repr, comparison or hash.  A line's root is
        theta_k if it is reflected and -theta_k otherwise."""
        v, length, q = inhomogeneities(self), self.length, self.boundary_q
        end_bits = tuple(length - c.end for c in self.chords)
        return Chain(
            length=length,
            v=v,
            ends=sum(1 << b for b in end_bits),
            start_bits=tuple(length - c.start for c in self.chords),
            end_bits=end_bits,
            roots=tuple(t if k in self.reflected else -t for k, t in enumerate(self.rapidities, 1)),
            q=q,
            d=lcm(q.denominator, *(x.denominator for x in v)),
        )


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
    return BetheRootSet(spec.chain.roots)


def _q_of_roots(roots: Sequence, z: Fraction) -> Fraction:
    """Baxter Q of a root tuple at z: prod_r (z - r)(z + r + 1)."""
    out = Fraction(1)
    for r in roots:
        out *= (z - r) * (z + r + 1)
    return out


def q_function(spec: LatticeSpec, z) -> Fraction:
    """Baxter Q at z: ``_q_of_roots`` at the canonical roots."""
    return _q_of_roots(spec.chain.roots, rational(z, "z"))


def _read_labels(labels: tuple, bits: tuple) -> tuple:
    """(index bits, count of label 2) of one side's labels; ``bits`` holds the
    chain bit of each line's site on that side, in line order."""
    if len(labels) != len(bits):
        raise ValueError(f"config labels must have length {len(bits)}")
    return sum((s - 1) << b for s, b in zip(labels, bits)), labels.count(2)


def config_index(spec: LatticeSpec, config: ExternalConfig) -> int:
    """Chain basis index of the perimeter labels: alpha at starts, beta at ends.

    Label 2 sets the site's bit, so the reference config has index 0 and the
    magnons of index k are the set bits of ``k ^ spec.chain.ends``.
    """
    starts, ends = spec.chain.start_bits, spec.chain.end_bits
    return _read_labels(config.alpha, starts)[0] | _read_labels(config.beta, ends)[0]


def magnon_sites(spec: LatticeSpec, index: int) -> tuple:
    """Sites carrying a magnon in a chain basis index, ascending: the set
    bits of ``index ^ spec.chain.ends``."""
    bits, length = index ^ spec.chain.ends, spec.length
    return tuple(s for s in range(1, length + 1) if bits >> (length - s) & 1)


def ice_indices(spec: LatticeSpec) -> list:
    """Every chain basis index with N magnons, the C(2N, N) ice-rule configs."""
    return [
        spec.chain.ends ^ sum(1 << b for b in bits)
        for bits in itertools.combinations(range(spec.length), spec.n)
    ]


def magnon_positions(spec: LatticeSpec, config: ExternalConfig) -> tuple:
    """Sites carrying a magnon: starts with alpha=2 plus ends with beta=1."""
    return magnon_sites(spec, config_index(spec, config))


def ice_rule_satisfied(spec: LatticeSpec, config: ExternalConfig) -> bool:
    """Charge conservation: the magnon count must equal the number of lines."""
    starts, ends = spec.chain.start_bits, spec.chain.end_bits
    return _read_labels(config.alpha, starts)[1] == _read_labels(config.beta, ends)[1]


def reference_config(n: int) -> ExternalConfig:
    """All edge states 1; every method normalizes its output to 1 here."""
    return ExternalConfig((1,) * n, (1,) * n)


def _config(alpha: tuple, beta: tuple) -> ExternalConfig:
    config = object.__new__(ExternalConfig)
    fields = config.__dict__
    fields["alpha"], fields["beta"] = alpha, beta
    return config


class ConfigGrid(Sequence):
    """All 4^N external configs, alphas x betas in lexicographic order.

    The 2^N label tuples are built once and shared.  A config is made only
    when it is read, and without the label check of ``ExternalConfig``,
    since each is valid by construction: its fields are set directly.
    ``sweep`` and ``pipeline.report_json`` read a grid by its blocks
    (``config_blocks``) and make no config at all.
    """

    __slots__ = ("labels",)

    def __init__(self, n: int):
        self.labels = tuple(itertools.product((1, 2), repeat=n))

    def __len__(self) -> int:
        return len(self.labels) ** 2

    def __getitem__(self, i: int) -> ExternalConfig:
        size = len(self)
        if not -size <= i < size:
            raise IndexError("config index out of range")
        a, b = divmod(i % size, len(self.labels))
        return _config(self.labels[a], self.labels[b])

    def __iter__(self) -> Iterator[ExternalConfig]:
        for alpha in self.labels:
            for beta in self.labels:
                yield _config(alpha, beta)


def all_configs(n: int) -> ConfigGrid:
    """All 4^N external configurations in lexicographic (alpha, beta) order."""
    return ConfigGrid(n)


def config_blocks(configs: Iterable[ExternalConfig]) -> list:
    """Configs in order as blocks (alpha, betas): one alpha and the run of
    betas that follows it.  The 2^N blocks of a ``ConfigGrid`` share its
    one tuple of betas; any other sequence is grouped by consecutive alpha."""
    if isinstance(configs, ConfigGrid):
        return [(alpha, configs.labels) for alpha in configs.labels]
    blocks = []
    for c in configs:
        if blocks and blocks[-1][0] == c.alpha:
            blocks[-1][1].append(c.beta)
        else:
            blocks.append((c.alpha, [c.beta]))
    return blocks


def sweep(
    spec: LatticeSpec,
    configs: Iterable[ExternalConfig],
    route: Callable[[LatticeSpec, list], Mapping[int, int | Fraction]],
) -> list:
    """Partition-function values of many configs from one route's chain entries.

    The configs are read as blocks (``config_blocks``).  Each distinct alpha
    or beta tuple is read once for its bits of the ``config_index`` and its
    count of label 2, and each block's betas are grouped by that count once
    (once for all blocks of a grid), so a block visits only the betas whose
    count equals its alpha's: the configs that obey the ice rule, whose
    index is the or of the two bit sets.  A config whose labels do not have
    length N raises ``ValueError``.  ``route(spec, keys)`` is called once
    with the indices of the ice-rule configs, and only when there is one; it
    returns a mapping from chain index to component holding at least the
    nonzero components among ``keys`` and at index 0, the reference config.
    A component may be any exact rational up to a factor common to all
    indices, such as the integer entry of a state without its scale: only
    its ratio to the reference component counts.  The result holds one
    ``Fraction`` per config, normalized to 1 at the reference config;
    configs whose component is 0, and configs that break the ice rule, share
    the one ``_ZERO``.  The spec was validated when it was made, so nothing
    is checked again here.
    """
    start_bits, end_bits = spec.chain.start_bits, spec.chain.end_bits
    starts, ends = {}, {}  # labels -> _read_labels(labels, bits)
    runs = {}  # id(betas) -> {count of label 2: [(position in betas, bits)]}
    at, keys, offset = [], [], 0
    for alpha, betas in config_blocks(configs):
        bits, count = starts.get(alpha) or starts.setdefault(alpha, _read_labels(alpha, start_bits))
        run = runs.get(id(betas))
        if run is None:
            run = runs[id(betas)] = {}
            for j, beta in enumerate(betas):
                b = ends.get(beta) or ends.setdefault(beta, _read_labels(beta, end_bits))
                run.setdefault(b[1], []).append((j, b[0]))
        for j, b in run.get(count, ()):
            at.append(offset + j)
            keys.append(bits | b)
        offset += len(betas)
    values = [_ZERO] * offset
    if not keys:
        return values
    table = route(spec, keys)
    norm = table.get(0, 0)
    if norm == 0:
        raise DegenerateSpecError("reference component vanished")
    for i, k in zip(at, keys):
        x = table.get(k)
        if x:
            values[i] = Fraction(x, norm)
    return values


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


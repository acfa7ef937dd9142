"""Seeded random draws of generic lattice instances and spectral parameters.

Rapidities are drawn with distinct prime denominators per line, which makes
the genericity conditions hold by construction: no signed sum of two values
with coprime denominators greater than 2 can be an integer or half-integer.
Every produced instance is validated by the constructor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .lattice import Chord, ExternalConfig, LatticeSpec, ice_rule_satisfied, initial_pairing

_THETA_DENOMS = (7, 11, 13, 17, 19, 23)
_Q_DENOM = 29
_Z_DENOM = 193


def random_theta(rng: random.Random, denom: int) -> Fraction:
    num = rng.choice([n for n in range(-(denom - 1), denom) if n != 0])
    return Fraction(num, denom)


def random_q(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-(_Q_DENOM - 1), _Q_DENOM) if n != 0])
    return Fraction(num, _Q_DENOM)


def random_z(rng: random.Random) -> Fraction:
    """Generic spectral point: never collides with rapidities, roots or poles."""
    num = rng.choice([n for n in range(-(_Z_DENOM - 1), _Z_DENOM) if n != 0])
    return Fraction(num, _Z_DENOM)


def random_positive_pair(rng: random.Random) -> tuple:
    """Distinct positive generic values (x, y); keeps x-y, x+y+1, 2x+1, 2y+1 nonzero."""
    a, b = rng.sample(range(1, _Z_DENOM), 2)
    return Fraction(a, _Z_DENOM), Fraction(b, _Z_DENOM)


def random_pairing(rng: random.Random, n: int) -> tuple:
    points = list(range(1, 2 * n + 1))
    rng.shuffle(points)
    chords = []
    for i in range(n):
        a, b = points[2 * i], points[2 * i + 1]
        chords.append(Chord(max(a, b), min(a, b)))
    chords.sort(key=lambda c: -c.start)
    return tuple(chords)


def random_spec(
    rng: random.Random,
    n: int,
    reflected: Optional[Sequence[int]] = None,
    initial: bool = False,
) -> LatticeSpec:
    """A valid generic instance with n lines and a random (or given) reflected set."""
    if n > len(_THETA_DENOMS):
        raise ValueError(f"at most {len(_THETA_DENOMS)} lines supported by the draw scheme")
    if reflected is None:
        reflected = [k for k in range(1, n + 1) if rng.random() < 0.5]
    chords = initial_pairing(n) if initial else random_pairing(rng, n)
    denoms = rng.sample(_THETA_DENOMS, n)
    return LatticeSpec(
        chords=chords,
        reflected=frozenset(reflected),
        rapidities=tuple(random_theta(rng, d) for d in denoms),
        boundary_q=random_q(rng),
    )


def random_config(rng: random.Random, n: int) -> ExternalConfig:
    return ExternalConfig(
        tuple(rng.choice((1, 2)) for _ in range(n)),
        tuple(rng.choice((1, 2)) for _ in range(n)),
    )


def random_ice_config(rng: random.Random, spec: LatticeSpec) -> ExternalConfig:
    """A random configuration with the conserved magnon count."""
    while True:
        config = random_config(rng, spec.n)
        if ice_rule_satisfied(spec, config):
            return config

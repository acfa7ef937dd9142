"""Direct construction of invariant states by weaving crossing weights.

The nested pairing admits an explicit invariant: a tensor product of
two-site line and reflected-line solutions.  Any other pairing is reached
by a planned sequence of adjacent endpoint swaps.  A swap at sites
(p, p+1) with argument theta = v_{p+1} - v_p applies
``swap . C R(theta) C^{-1}`` with R = (theta + P)/(theta + 1) and C the
rotation S at whichever sites hold an end point; in closed form that is
``(theta P + X)/(theta + 1)``, X = I when neither or both sites hold an
end point and X = S^{-1} (x) S otherwise.  The overall scalar picked up
along the way is irrelevant because the partition function is a ratio of
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .errors import PoleError
from .lattice import (
    ExternalConfig,
    LatticeSpec,
    inhomogeneities,
    initial_spec,
    is_initial,
    require_valid,
    sweep,
)
from .monodromy import QuantumState, external_component

_F0 = Fraction(0)
_F1 = Fraction(1)


def line_invariant() -> QuantumState:
    """Two-site invariant of a free line: components 1 at (1,1) and (2,2)."""
    return QuantumState(2, (_F1, _F0, _F0, _F1))


def boundary_line_invariant(theta, q) -> QuantumState:
    """Two-site invariant of a reflected line; the (2,2) component is the
    reflection weight (q-theta)/(q+theta)."""
    theta, q = Fraction(theta), Fraction(q)
    if q + theta == 0:
        raise PoleError("reflection weights have a pole at q + theta = 0")
    return QuantumState(2, (_F1, _F0, _F0, (q - theta) / (q + theta)))


def initial_invariant(spec: LatticeSpec) -> QuantumState:
    """Tensor product of two-site invariants for the nested pairing.

    Line k occupies sites (2(N-k)+1, 2(N-k)+2), so line N fills the most
    significant pair and line 1 the least significant one.
    """
    require_valid(spec)
    if not is_initial(spec):
        raise ValueError("initial invariant requires the nested pairing")
    amps = [_F1]
    for k in range(spec.n, 0, -1):
        local = (
            boundary_line_invariant(spec.rapidities[k - 1], spec.boundary_q)
            if spec.is_reflected(k)
            else line_invariant()
        )
        amps = [a * b for a in amps for b in local.amplitudes]
    return QuantumState(spec.length, tuple(amps))


@dataclass(frozen=True)
class Move:
    """Adjacent endpoint swap at (position, position+1) with the crossing
    argument actually applied."""

    position: int
    argument: Fraction


@dataclass(frozen=True)
class MoveSequence:
    moves: tuple
    source: LatticeSpec
    target: LatticeSpec


def _endpoint_layout(spec: LatticeSpec):
    """Per-position endpoint descriptors: (line, is_end), inhomogeneity value."""
    length = spec.length
    owner = [None] * length
    for k, chord in enumerate(spec.chords, start=1):
        owner[chord.start - 1] = (k, False)
        owner[chord.end - 1] = (k, True)
    v = inhomogeneities(spec)
    return owner, list(v)


def plan_moves(spec: LatticeSpec, lowest_first: bool = False) -> MoveSequence:
    """Deterministic adjacent-swap plan from the nested pairing to the target.

    The default strategy places the endpoint belonging to the highest
    position first; ``lowest_first`` gives an alternative plan used to
    exercise independence of the result from the route.  Neither strategy
    ever swaps the two endpoints of the same line, so no crossing factor is
    evaluated at its pole.
    """
    source = initial_spec(spec)
    target_owner, _ = _endpoint_layout(spec)
    owner, v = _endpoint_layout(source)
    owner = list(owner)
    moves = []

    def emit(p):  # swap positions p, p+1 (1-based p)
        moves.append(Move(position=p, argument=v[p] - v[p - 1]))
        owner[p - 1], owner[p] = owner[p], owner[p - 1]
        v[p - 1], v[p] = v[p], v[p - 1]

    length = spec.length
    if lowest_first:
        for pos in range(1, length + 1):
            cur = owner.index(target_owner[pos - 1]) + 1
            for p in range(cur - 1, pos - 1, -1):
                emit(p)
    else:
        for pos in range(length, 0, -1):
            cur = owner.index(target_owner[pos - 1]) + 1
            for p in range(cur, pos):
                emit(p)
    return MoveSequence(moves=tuple(moves), source=source, target=spec)


def _apply_move(amps, length, p, theta, one_end):
    """One endpoint swap ``(theta P + X)/(theta + 1)`` on sites (p, p+1), in place.

    X is the identity unless exactly one of the two sites holds an end point;
    then X = S^{-1} (x) S sends |11> -> -|22>, |22> -> -|11> and swaps |12>, |21>.
    """
    if theta == -1:
        raise PoleError("crossing factor evaluated at its pole theta = -1")
    d = theta + 1
    lo = 1 << (length - p - 1)
    hi = lo << 1
    for base in range(0, 1 << length, hi << 1):
        for i11 in range(base, base + lo):
            i12, i21, i22 = i11 | lo, i11 | hi, i11 | hi | lo
            a12, a21 = amps[i12], amps[i21]
            if one_end:
                a11, a22 = amps[i11], amps[i22]
                amps[i11] = (theta * a11 - a22) / d
                amps[i22] = (theta * a22 - a11) / d
                amps[i12], amps[i21] = a21, a12
            else:
                amps[i12] = (theta * a21 + a12) / d
                amps[i21] = (theta * a12 + a21) / d


def build_invariant(spec: LatticeSpec, plan: Optional[MoveSequence] = None) -> QuantumState:
    """Weave the nested-pairing invariant into the invariant of the target.

    Each move makes one pass over the state, applying at its position p
    ``(theta P + X)/(theta + 1)`` with theta = v_{p+1} - v_p, which equals
    ``swap . C R(theta) C^{-1}`` (X = S^{-1} (x) S when exactly one of the
    two sites holds an end point, else X = I); the inhomogeneity
    bookkeeping then travels with the endpoints.  The state is exact
    throughout; its overall normalization is arbitrary.
    """
    if plan is None:
        plan = plan_moves(spec)
    source = plan.source
    owner, v = _endpoint_layout(source)
    owner = list(owner)
    length = spec.length
    amps = list(initial_invariant(source).amplitudes)

    for move in plan.moves:
        p = move.position
        theta = v[p] - v[p - 1]
        if theta != move.argument:
            raise ValueError("move plan inconsistent with inhomogeneity bookkeeping")
        _apply_move(amps, length, p, theta, owner[p - 1][1] != owner[p][1])
        owner[p - 1], owner[p] = owner[p], owner[p - 1]
        v[p - 1], v[p] = v[p], v[p - 1]

    target_owner, target_v = _endpoint_layout(spec)
    if owner != list(target_owner) or v != list(target_v):
        raise ValueError("move plan did not reach the target pairing")
    return QuantumState(length, tuple(amps))


def z_direct(spec: LatticeSpec, config: ExternalConfig) -> Fraction:
    """Partition function read off the woven invariant state."""
    return z_direct_table(spec, [config])[0]


def z_direct_table(spec: LatticeSpec, configs: Sequence[ExternalConfig]) -> list:
    """Values for many configs from a single weave."""
    return sweep(spec, configs, lambda s: partial(external_component, build_invariant(s), s))

"""Direct construction of invariant states by weaving crossing weights.

The lines of a lattice placed on the nested pairing have an explicit
invariant: a tensor product of two-site line and reflected-line solutions.
The nested pairing is only a layout of the target's own endpoints, and the
target is reached from it by a planned sequence of adjacent endpoint swaps,
each endpoint carrying its inhomogeneity and end flag along (``_swaps``).
A swap at sites (p, p+1) with argument theta = v_{p+1} - v_p applies
``swap . C R(theta) C^{-1}`` with R = (theta + P)/(theta + 1) and C the
rotation S at whichever sites hold an end point; in closed form that is
``(theta P + X)/(theta + 1)``, X = I when neither or both sites hold an
end point and X = S^{-1} (x) S otherwise.  The numerator is P L(theta),
or P Lbar(theta) with an end point: the row kernels' site step
``monodromy._lax_column``, then the exchange of the two sites, so
``direct`` and ``aba`` apply one site kernel.  The overall scalar is
irrelevant because the partition function is a ratio of components.

The weave runs fraction-free on the entries of a
:class:`sixvb.monodromy.QuantumState`: a dict from index to nonzero
``int`` and one exact ``Fraction`` scale.  With D the lcm of the
denominators of the inhomogeneities, every theta is Theta/D for an integer
Theta, so a move applies ``Theta P + D X`` to the integers and multiplies
the scale by 1/(Theta + D), Theta and D first divided by their gcd.

The two local identities of the weights run on that move, and so on
``_lax_column``, as well: the braid (Yang-Baxter) relation of three
crossings, with end points (``check_ybe``, whose swaps come from the
planner's own ``_swaps``), and the reflection equation of two crossings and
two reflections (``check_bybe``), each compared as integer vectors on every
basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Optional

from .errors import PoleError
from .exact import rational
from .lattice import LatticeSpec, inhomogeneities
from .monodromy import QuantumState, _basis, _lax_column, _scaled


def line_invariant() -> QuantumState:
    """Two-site invariant of a free line: components 1 at (1,1) and (2,2)."""
    return QuantumState(2, {0: 1, 3: 1})


def boundary_line_invariant(theta, q) -> QuantumState:
    """Two-site invariant of a reflected line; the (2,2) component is the
    reflection weight (q-theta)/(q+theta)."""
    theta, q = rational(theta, "theta"), rational(q, "q")
    if q + theta == 0:
        raise PoleError("reflection weights have a pole at q + theta = 0")
    return QuantumState(2, {0: 1, 3: (q - theta) / (q + theta)})


def initial_invariant(spec: LatticeSpec) -> QuantumState:
    """The invariant of the lines of ``spec`` placed on the nested pairing:
    the tensor product of the two-site invariants, as one integer product.

    Line k occupies sites (2(N-k)+1, 2(N-k)+2), the bits ``3 << (2k-2)``,
    so line N fills the most significant pair and line 1 the least
    significant one.  With (b_k, a_k) = (1, 1) for a free line and the
    denominator and numerator of the reflection weight (q-theta_k)/(q+theta_k)
    for a reflected one, the entry of the lines S in state (2,2) is
    prod_{k in S} a_k prod_{k not in S} b_k and the scale is 1/prod b_k.
    Only the lines' rapidities, their reflections and q enter, not the
    pairing of ``spec``.
    """
    q = spec.boundary_q
    vec, den = {0: 1}, 1
    for k, theta in enumerate(spec.rapidities, start=1):
        a = b = 1
        if spec.is_reflected(k):  # a valid spec has q + theta != 0
            weight = (q - theta) / (q + theta)
            a, b = weight.numerator, weight.denominator
        pair = 3 << (2 * k - 2)
        vec = {**{i: x * b for i, x in vec.items()}, **{i | pair: x * a for i, x in vec.items()}}
        den *= b
    return QuantumState(spec.length, vec, Fraction(1, den))


@dataclass(frozen=True)
class Move:
    """Adjacent endpoint swap at (position, position+1) with the crossing
    argument actually applied; ``one_end`` when exactly one of the two sites
    holds an end point."""

    position: int
    argument: Fraction
    one_end: bool


@dataclass(frozen=True)
class MoveSequence:
    moves: tuple
    target: LatticeSpec


def _swaps(v: list, ends: list, positions):
    """Each swap of sites (p, p+1) in ``positions`` as (p, v[p] - v[p-1],
    one_end), with ``one_end`` set when exactly one of the two sites is an
    end point in ``ends``; values and end flags travel with the swaps, on
    copies of ``v`` and ``ends``."""
    v, ends = list(v), list(ends)
    for p in positions:
        yield p, v[p] - v[p - 1], ends[p - 1] != ends[p]
        v[p - 1], v[p] = v[p], v[p - 1]
        ends[p - 1], ends[p] = ends[p], ends[p - 1]


def plan_moves(spec: LatticeSpec, lowest_first: bool = False) -> MoveSequence:
    """Deterministic adjacent-swap plan from the nested pairing to the target.

    The target's endpoint table gives the (line, is_end) owner of each site;
    the nested layout is the same endpoints in the order
    (N, end), (N, start), ..., (1, end), (1, start), each keeping its
    inhomogeneity.  The default strategy places the endpoint belonging to
    the highest position first; ``lowest_first`` gives an alternative plan
    used to exercise independence of the result from the route.  Neither
    strategy ever swaps the two endpoints of the same line, so no crossing
    factor is evaluated at its pole.
    """
    length = spec.length
    target = [None] * length
    for k, chord in enumerate(spec.chords, start=1):
        target[chord.start - 1] = (k, False)
        target[chord.end - 1] = (k, True)
    value = dict(zip(target, inhomogeneities(spec)))
    nested = [(k, end) for k in range(spec.n, 0, -1) for end in (True, False)]
    owner, positions = list(nested), []
    # each target endpoint in turn is carried to its site by adjacent swaps
    for pos in range(1, length + 1) if lowest_first else range(length, 0, -1):
        cur = owner.index(target[pos - 1]) + 1
        positions.extend(range(cur - 1, pos - 1, -1) if lowest_first else range(cur, pos))
        owner.insert(pos - 1, owner.pop(cur - 1))
    v, ends = [value[o] for o in nested], [end for _, end in nested]
    return MoveSequence(moves=tuple(Move(*swap) for swap in _swaps(v, ends, positions)), target=spec)


def _apply_move(vec: dict, length: int, p: int, theta: int, d: int, one_end: bool) -> dict:
    """One endpoint swap on sites (p, p+1) of an integer vector, as a new vector.

    With theta the crossing argument scaled by d, the swap is
    ``(theta P + d X)/(theta + d)``; this applies its numerator, so the
    caller moves 1/(theta + d) into the scale.  X is the identity unless
    exactly one of the two sites holds an end point; then X = S^{-1} (x) S.
    Since theta P + d I = P L(theta) and theta P + d S^{-1} (x) S =
    P Lbar(theta), the numerator is the site step ``_lax_column`` with site
    p as its auxiliary leg, followed by the exchange of the two sites.
    """
    if theta + d == 0:
        raise PoleError("crossing factor evaluated at its pole theta = -1")
    lo = 1 << (length - p - 1)
    hi = lo << 1
    a, b = {}, {}
    for i, x in vec.items():
        if i & hi:
            b[i ^ hi] = x
        else:
            a[i] = x
    a, b = _lax_column(a, b, lo, theta, d, one_end)
    out = {}  # the exchange: site p takes site p+1's bit, site p+1 the row's
    for row, leg in ((a, 0), (b, lo)):
        for i, x in row.items():
            out[(i ^ hi ^ lo if i & lo else i) ^ leg] = x
    return out


def build_invariant(spec: LatticeSpec, plan: Optional[MoveSequence] = None) -> QuantumState:
    """Weave the nested-pairing invariant into the invariant of the target.

    Each move applies ``swap . C R(theta) C^{-1}`` at its position p, with
    theta its argument, through ``_apply_move``.  The state is exact
    throughout: an integer vector and one scale, with every theta scaled by
    d, the lcm of the denominators of the inhomogeneities, and each move's
    pair (theta d, d) divided by its gcd.  Its overall
    normalization is arbitrary.  A plan made for another lattice raises
    ``ValueError``.
    """
    if plan is None:
        plan = plan_moves(spec)
    elif plan.target != spec:
        raise ValueError("move plan was made for another lattice")
    d = lcm(*(x.denominator for x in inhomogeneities(spec)))
    initial = initial_invariant(spec)
    vec, den = initial.entries, 1
    for move in plan.moves:
        theta_d = _scaled(move.argument, d)
        g = gcd(theta_d, d)
        vec = _apply_move(vec, spec.length, move.position, theta_d // g, d // g, move.one_end)
        den *= (theta_d + d) // g
    return QuantumState(spec.length, vec, initial.scale / den)


# -- local identities on the move kernel ----------------------------------------

def check_ybe(theta1, theta2, theta3) -> bool:
    """Braid form of the crossing-exchange identity on a 3-site chain.

    The chain starts with the inhomogeneities (t3, t2, t1); the swaps at
    positions (1, 2, 1) and at (2, 1, 2) both reverse it.  Each weave takes
    its arguments and end patterns from ``_swaps``, the rule ``plan_moves``
    builds its moves with, so this check certifies the planner's
    bookkeeping as well as the move.  The two weaves must agree
    on every basis vector for every pattern of end points; site 3 is kept a
    non-end, since a pattern and its complement give the same flags.  The
    basis vectors are woven at once, as sum_j e_j (x) e_j with the copy on
    three spectator sites, whose columns are the single weaves.  Both apply
    the same three arguments, so their denominators cancel and the integer
    vectors are compared.  Raises PoleError when any difference is -1.
    """
    t1, t2, t3 = (rational(t, "theta") for t in (theta1, theta2, theta3))
    d = lcm(t1.denominator, t2.denominator, t3.denominator)
    basis = _basis(3)  # sum_j e_j (x) e_j, the same dict whichever half is the chain

    def weave(positions, ends):
        vec = basis
        for p, theta, one_end in _swaps([int(t * d) for t in (t3, t2, t1)], ends, positions):
            vec = _apply_move(vec, 6, p, theta, d, one_end)
        return vec

    return all(
        weave((1, 2, 1), ends) == weave((2, 1, 2), ends)
        for ends in product((False, True), (False, True), (False,))
    )


def check_bybe(theta1, theta2, q) -> bool:
    """Reflection-exchange identity on two sites, in braid form.

    Rc(a) K1(t1) Rc(b) K1(t2) = K1(t2) Rc(b) K1(t1) Rc(a) with a = t1 - t2,
    b = t1 + t2, Rc the swap of ``_apply_move`` without end points and K1
    the reflection weights on site 1 as the integers (Q + T, Q - T), q and t
    scaled by d as the boundary of the double row.  Each side holds each
    factor once, so the integer vectors are compared, on every basis vector
    at once as in ``check_ybe`` (two spectator sites).  Raises PoleError at
    q + t = 0, as ``boundary_line_invariant`` does, and where a or b is -1.
    """
    t1, t2, q = rational(theta1, "theta1"), rational(theta2, "theta2"), rational(q, "q")
    if q + t1 == 0 or q + t2 == 0:
        raise PoleError("reflection weights have a pole at q + theta = 0")
    d = lcm(t1.denominator, t2.denominator, q.denominator)
    a, b = int((t1 - t2) * d), int((t1 + t2) * d)

    def swap(vec, theta):
        return _apply_move(vec, 4, 1, theta, d, False)

    def reflect(vec, t):
        k = int((q + t) * d), int((q - t) * d)  # site 1 in state 1, 2
        out = {i: k[i >> 3] * x for i, x in vec.items()}
        return {i: x for i, x in out.items() if x}

    basis = _basis(2)
    return swap(reflect(swap(reflect(basis, t2), b), t1), a) == reflect(
        swap(reflect(swap(basis, a), t1), b), t2
    )

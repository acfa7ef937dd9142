"""Chain-space operators for the open chain with a reflecting end.

The chain has L = 2N sites; site 1 owns the most significant position, so a
product basis state (s_1, ..., s_L) with s_i in {1, 2} sits at index
``sum((s_i - 1) << (L - i))``.  An operator carrying an auxiliary leg is one
``ExactMatrix`` of size 2^(L+1) on (auxiliary leg, chain), the auxiliary leg
most significant as everywhere in the package; ``aux_block(op, r, c)``
slices out its chain block, (0,0) the A block, (0,1) the creation block B,
(1,0) the annihilation block C and (1,1) the D block.

Every local factor of a monodromy touches one site only, so one primitive,
a row product on one auxiliary column (a, b) of chain vectors (``_row``,
and ``_double_row`` for M K Mhat), carries every monodromy action: a
creation operator is the top slot of the column (0, v), the four blocks on
a state come from the columns (v, 0) and (0, v), and the dense
``single_row``/``double_row`` operators are assembled from one column per
basis vector.  ``lax_embed`` embeds the 4x4 local block of
:func:`sixvb.weights.lax_matrix` into the full space; it is kept only as an
independent reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import PoleError
from .exact import ExactMatrix
from .lattice import (
    _RATIONAL,
    ExternalConfig,
    LatticeSpec,
    _strict,
    canonical_bethe_roots,
    inhomogeneities,
    require_valid,
)
from .weights import PERMUTATION, embed_pair, lax_matrix, r_matrix

_F0 = Fraction(0)
_F1 = Fraction(1)


def basis_index(states: Sequence[int]) -> int:
    """Index of the product basis state (s_1, ..., s_L), site 1 most significant."""
    idx = 0
    for s in states:
        idx = (idx << 1) | (s - 1)
    return idx


@dataclass(frozen=True)
class QuantumState:
    """Exact vector over the 2^L chain space; amplitudes must be int or Fraction."""

    length: int
    amplitudes: tuple

    def __post_init__(self):
        amps = tuple(
            a if type(a) is Fraction else Fraction(_strict(a, _RATIONAL, "amplitude"))
            for a in self.amplitudes
        )
        if len(amps) != 1 << self.length:
            raise ValueError(f"state needs {1 << self.length} amplitudes, got {len(amps)}")
        object.__setattr__(self, "amplitudes", amps)

    def component(self, states: Sequence[int]) -> Fraction:
        return self.amplitudes[basis_index(states)]

    def scale(self, c) -> "QuantumState":
        c = Fraction(c)
        return QuantumState(self.length, tuple(c * a for a in self.amplitudes))

    def __add__(self, other: "QuantumState") -> "QuantumState":
        if self.length != other.length:
            raise ValueError("chain length mismatch")
        return QuantumState(
            self.length, tuple(a + b for a, b in zip(self.amplitudes, other.amplitudes))
        )

    def __sub__(self, other: "QuantumState") -> "QuantumState":
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.amplitudes)


def states_proportional(u: QuantumState, v: QuantumState) -> bool:
    """True when u and v span the same ray (either may be scaled arbitrarily)."""
    if u.length != v.length:
        return False
    ua, va = u.amplitudes, v.amplitudes
    pivot = next((i for i, a in enumerate(ua) if a != 0), None)
    if pivot is None:
        return v.is_zero()
    if va[pivot] == 0:
        return False
    c = va[pivot] / ua[pivot]
    return all(c * a == b for a, b in zip(ua, va))


@dataclass(frozen=True)
class VacuumEigenvalues:
    alpha_val: Fraction
    delta_tilde_val: Fraction
    xi_val: Fraction
    lambda_val: Fraction


@dataclass(frozen=True)
class ChainData:
    """Site data of the end-point-conjugated chain: inhomogeneity and block type."""

    length: int
    v: tuple
    conjugate: tuple
    q: Fraction


@lru_cache(maxsize=256)
def chain_data(spec: LatticeSpec) -> ChainData:
    v = inhomogeneities(spec)
    conj = [False] * spec.length
    for chord in spec.chords:
        conj[chord.end - 1] = True
    return ChainData(spec.length, v, tuple(conj), spec.boundary_q)


# -- eigenvalue functions -----------------------------------------------------

def f_factor(z, theta) -> Fraction:
    z, theta = Fraction(z), Fraction(theta)
    return (z - theta - 1) * (z - theta + 1) * (z + theta) * (z + theta + 2)


def g_factor(z, theta) -> Fraction:
    z, theta = Fraction(z), Fraction(theta)
    return (z - theta) * (z - theta + 1) * (z + theta + 1) * (z + theta + 2)


def xi_value(spec: LatticeSpec, z) -> Fraction:
    z = Fraction(z)
    out = _F1
    for t in canonical_bethe_roots(spec).roots:
        out *= g_factor(z, t)
    return out


def lambda_value(spec: LatticeSpec, z) -> Fraction:
    z = Fraction(z)
    out = _F1
    for t in canonical_bethe_roots(spec).roots:
        out *= f_factor(z, t)
    return out


def vacuum_eigenvalues(spec: LatticeSpec, z) -> VacuumEigenvalues:
    """Eigenvalues of the diagonal blocks on the reference state.

    alpha(z) = (q+z) Xi(z) and dtilde(z) = 2z/(2z+1) (q-z-1) Xi(z-1); the
    shifted D block has a pole at z = -1/2.
    """
    require_valid(spec)
    z = Fraction(z)
    if 2 * z + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    q = spec.boundary_q
    xi = xi_value(spec, z)
    return VacuumEigenvalues(
        alpha_val=(q + z) * xi,
        delta_tilde_val=Fraction(2 * z, 1) / (2 * z + 1) * (q - z - 1) * xi_value(spec, z - 1),
        xi_val=xi,
        lambda_val=lambda_value(spec, z),
    )


# -- reference state ----------------------------------------------------------

def reference_state(spec: LatticeSpec) -> QuantumState:
    """End-point-rotated all-1 product state: state 2 at every end site.

    Each end-site rotation sends |1> to -|2>, so the overall sign is (-1)^N.
    """
    require_valid(spec)
    length = spec.length
    states = [1] * length
    for chord in spec.chords:
        states[chord.end - 1] = 2
    amps = [_F0] * (1 << length)
    amps[basis_index(states)] = _F1 if spec.n % 2 == 0 else -_F1
    return QuantumState(length, tuple(amps))


# -- fast state-application engine --------------------------------------------

def _lax_column(a, b, length, site, w, conjugate):
    """Apply one local factor to an auxiliary column (a, b) of chain vectors."""
    size = 1 << length
    mask = 1 << (length - site)
    wp1 = w + 1
    a2 = [None] * size
    b2 = [None] * size
    for i0 in range(size):
        if i0 & mask:
            continue
        i1 = i0 | mask
        x0 = a[i0]
        x1 = a[i1]
        y0 = b[i0]
        y1 = b[i1]
        if conjugate:
            a2[i0] = w * x0 - y1
            a2[i1] = wp1 * x1
            b2[i0] = wp1 * y0
            b2[i1] = w * y1 - x0
        else:
            a2[i0] = wp1 * x0
            a2[i1] = w * x1 + y0
            b2[i0] = w * y0 + x1
            b2[i1] = wp1 * y1
    return a2, b2


def _row(a, b, chain: ChainData, z, hat: bool):
    """Left-multiply one auxiliary column (a, b) by a conjugated row product."""
    length = chain.length
    sites = range(1, length + 1) if hat else range(length, 0, -1)
    for site in sites:
        w = z + chain.v[site - 1] if hat else z - chain.v[site - 1]
        a, b = _lax_column(a, b, length, site, w, chain.conjugate[site - 1])
    return a, b


def _double_row(a, b, chain: ChainData, z):
    """Left-multiply one auxiliary column (a, b) by the double row M K Mhat."""
    a, b = _row(a, b, chain, z, hat=True)
    q = chain.q
    a = [(q + z) * x for x in a]
    b = [(q - z) * x for x in b]
    return _row(a, b, chain, z, hat=False)


def _blocks_on_state(length: int, apply, vec):
    """``[[A v, B v], [C v, D v]]`` from the two auxiliary columns (v, 0), (0, v)."""
    zero = [_F0] * len(vec)
    (av, cv), (bv, dv) = apply(vec, zero), apply(zero, vec)
    return [
        [QuantumState(length, tuple(av)), QuantumState(length, tuple(bv))],
        [QuantumState(length, tuple(cv)), QuantumState(length, tuple(dv))],
    ]


def single_row_on_state(spec: LatticeSpec, z, hat: bool, state: QuantumState):
    """Blocks of the conjugated single-row product applied to a state.

    Returns a 2x2 nested list ``phi`` with ``phi[r][c]`` the chain vector
    block(r+1, c+1) |state>.
    """
    chain, z = chain_data(spec), Fraction(z)
    return _blocks_on_state(chain.length, lambda a, b: _row(a, b, chain, z, hat), state.amplitudes)


def double_row_on_state(spec: LatticeSpec, z, state: QuantumState):
    """Blocks of the double-row monodromy applied to a state (2x2 nested list)."""
    chain, z = chain_data(spec), Fraction(z)
    return _blocks_on_state(chain.length, lambda a, b: _double_row(a, b, chain, z), state.amplitudes)


def apply_open_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the open-chain creation operator at parameter z to a state.

    Only the second auxiliary column feeds block (1, 2), so one column is
    tracked.
    """
    chain = chain_data(spec)
    zero = [_F0] * len(state.amplitudes)
    bv, _ = _double_row(zero, state.amplitudes, chain, Fraction(z))
    return QuantumState(chain.length, tuple(bv))


def apply_closed_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the closed-chain (single-row) creation block to a state."""
    chain = chain_data(spec)
    zero = [_F0] * len(state.amplitudes)
    bv, _ = _row(zero, state.amplitudes, chain, Fraction(z), hat=False)
    return QuantumState(chain.length, tuple(bv))


# -- dense operators ----------------------------------------------------------

def lax_embed(z, site: int, length: int, conjugate: bool = False) -> ExactMatrix:
    """One local factor on (auxiliary leg, chain), acting on the given site."""
    if not (1 <= site <= length):
        raise ValueError(f"site {site} out of range 1..{length}")
    return embed_pair(lax_matrix(z, conjugate), length + 1, (0, site))


def aux_block(op: ExactMatrix, r: int, c: int) -> ExactMatrix:
    """Chain block (r, c) of an operator on (auxiliary leg, chain)."""
    size = op.rows // 2
    return ExactMatrix(
        tuple(row[c * size : (c + 1) * size] for row in op.entries[r * size : (r + 1) * size])
    )


def _assemble(length: int, apply) -> ExactMatrix:
    """Dense operator on (auxiliary leg, chain) whose column (c, j) is
    ``apply`` on the auxiliary column holding e_j in slot c (0 top, 1 bottom)."""
    size = 1 << length
    zero = [_F0] * size
    cols = []
    for c in (0, 1):
        for j in range(size):
            e = [_F0] * size
            e[j] = _F1
            top, bottom = apply(e, zero) if c == 0 else apply(zero, e)
            cols.append(top + bottom)
    return ExactMatrix(tuple(zip(*cols)))


def single_row(spec: LatticeSpec, z, hat: bool = False) -> ExactMatrix:
    """Dense conjugated single-row monodromy (end sites carry conjugate blocks)."""
    chain, z = chain_data(spec), Fraction(z)
    return _assemble(chain.length, lambda a, b: _row(a, b, chain, z, hat))


def double_row(spec: LatticeSpec, z) -> ExactMatrix:
    """Dense double-row monodromy M K Mhat with the dressed boundary matrix."""
    chain, z = chain_data(spec), Fraction(z)
    return _assemble(chain.length, lambda a, b: _double_row(a, b, chain, z))


def shifted_d_block(u: ExactMatrix, z) -> ExactMatrix:
    """Dtilde(z) = D(z) - A(z)/(2z+1) from the double row ``u`` at z."""
    z = Fraction(z)
    if 2 * z + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    return aux_block(u, 1, 1) - aux_block(u, 0, 0).scale(_F1 / (2 * z + 1))


def check_crossing(spec: LatticeSpec, z) -> bool:
    """The two single-row products are auxiliary transposes of each other.

    Mhat(z)^{t_a} = (-1)^L S M(-z-1) S^{-1} with the transpose and the
    similarity both taken in the auxiliary space; S^{-1} = -S.  Block by
    block: Mhat_{rc} = +-(-1)^L M_{1-c,1-r}, + on the diagonal, - off it.
    """
    z = Fraction(z)
    hat, m = single_row(spec, z, hat=True), single_row(spec, -z - 1, hat=False)
    sign = 1 if spec.length % 2 == 0 else -1
    return all(
        aux_block(hat, r, c) == aux_block(m, 1 - c, 1 - r).scale(sign if r == c else -sign)
        for r in (0, 1)
        for c in (0, 1)
    )


def check_reflection_algebra(spec: LatticeSpec, x, y) -> bool:
    """Exchange identity of the double-row monodromy on two auxiliary legs.

    R(x-y) U1(x) R(x+y) U2(y) = U2(y) R(x+y) U1(x) R(x-y) on the space
    (aux leg 1, aux leg 2, chain).  Dense; intended for short chains.
    """
    x, y = Fraction(x), Fraction(y)
    eye = ExactMatrix.identity(1 << spec.length)
    i2 = ExactMatrix.identity(2)
    swap = PERMUTATION.tensor(eye)
    rm = r_matrix(x - y).tensor(eye)
    rp = r_matrix(x + y).tensor(eye)
    u1 = swap @ i2.tensor(double_row(spec, x)) @ swap
    u2 = i2.tensor(double_row(spec, y))
    return rm @ u1 @ rp @ u2 == u2 @ rp @ u1 @ rm


def external_component(state: QuantumState, spec: LatticeSpec, config: ExternalConfig) -> Fraction:
    """Contraction of a chain state with perimeter labels: alpha at starts, beta at ends."""
    if len(config.alpha) != spec.n or len(config.beta) != spec.n:
        raise ValueError(f"config labels must have length {spec.n}")
    states = [0] * spec.length
    for chord, a, b in zip(spec.chords, config.alpha, config.beta):
        states[chord.start - 1] = a
        states[chord.end - 1] = b
    return state.component(states)

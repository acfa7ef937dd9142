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
basis vector.

The primitive is fraction-free and sparse.  A chain vector is a pair: a
dict from index to nonzero ``int``, and one exact ``Fraction`` scale
(``_to_sparse`` and ``_from_sparse`` convert at the boundary).  With D the
lcm of the denominators of z, the inhomogeneities and q, a site factor with
weights w, w+1 and 1 enters as the integers D w, D w + D and D, and the
boundary as (D q + D z, D q - D z); each power of D goes into the scale.
The monodromy conserves the magnon count, so a column stays in few charge
sectors and only their amplitudes are ever stored.  ``lax_embed`` embeds
the 4x4 local block of :func:`sixvb.weights.lax_matrix` into the full
space; it is kept only as an independent reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import PoleError
from .exact import ExactMatrix, _strict, rational
from .lattice import (
    ExternalConfig,
    LatticeSpec,
    _check_config,
    canonical_bethe_roots,
    inhomogeneities,
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
        _strict(self.length, (int,), "chain length")
        amps = tuple(
            a if type(a) is Fraction else rational(a, "amplitude") for a in self.amplitudes
        )
        if len(amps) != 1 << self.length:
            raise ValueError(f"state needs {1 << self.length} amplitudes, got {len(amps)}")
        object.__setattr__(self, "amplitudes", amps)

    def component(self, states: Sequence[int]) -> Fraction:
        return self.amplitudes[basis_index(states)]

    def scale(self, c) -> "QuantumState":
        c = rational(c, "scale factor")
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


def _to_sparse(amplitudes) -> tuple:
    """Amplitudes as a pair (dict from index to nonzero int, Fraction scale).

    The scale is one over the lcm of the denominators, so the amplitudes
    are ``scale * vec[i]`` (0 where i is absent).
    """
    den = lcm(*(a.denominator for a in amplitudes if a))
    vec = {i: a.numerator * (den // a.denominator) for i, a in enumerate(amplitudes) if a}
    return vec, Fraction(1, den)


def _primitive(vec: dict, scale: Fraction) -> tuple:
    """The same pair with the content gcd of ``vec`` moved into the scale."""
    g = gcd(*vec.values())
    if g > 1:
        return {i: x // g for i, x in vec.items()}, scale * g
    return vec, scale


def _from_sparse(length: int, vec: dict, scale: Fraction) -> QuantumState:
    """The exact state ``scale * vec``: one Fraction per nonzero amplitude."""
    vec, scale = _primitive(vec, scale)
    amps = [_F0] * (1 << length)
    for i, x in vec.items():
        amps[i] = scale * x
    return QuantumState(length, tuple(amps))


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


@dataclass(frozen=True)
class ChainData:
    """Site data of the end-point-conjugated chain: inhomogeneity and block type."""

    length: int
    v: tuple
    conjugate: tuple
    q: Fraction
    denominator: int  # lcm of the denominators of v and q


def chain_data(spec: LatticeSpec) -> ChainData:
    v = inhomogeneities(spec)
    conj = [False] * spec.length
    for chord in spec.chords:
        conj[chord.end - 1] = True
    q = spec.boundary_q
    denominator = lcm(q.denominator, *(x.denominator for x in v))
    return ChainData(spec.length, v, tuple(conj), q, denominator)


# -- eigenvalue functions -----------------------------------------------------

def f_factor(z, theta) -> Fraction:
    z, theta = rational(z, "z"), rational(theta, "theta")
    return (z - theta - 1) * (z - theta + 1) * (z + theta) * (z + theta + 2)


def g_factor(z, theta) -> Fraction:
    z, theta = rational(z, "z"), rational(theta, "theta")
    return (z - theta) * (z - theta + 1) * (z + theta + 1) * (z + theta + 2)


def xi_value(spec: LatticeSpec, z) -> Fraction:
    z = rational(z, "z")
    out = _F1
    for t in canonical_bethe_roots(spec).roots:
        out *= g_factor(z, t)
    return out


def lambda_value(spec: LatticeSpec, z) -> Fraction:
    z = rational(z, "z")
    out = _F1
    for t in canonical_bethe_roots(spec).roots:
        out *= f_factor(z, t)
    return out


def vacuum_eigenvalues(spec: LatticeSpec, z) -> VacuumEigenvalues:
    """Eigenvalues of the diagonal blocks on the reference state.

    alpha(z) = (q+z) Xi(z) and dtilde(z) = 2z/(2z+1) (q-z-1) Xi(z-1); the
    shifted D block has a pole at z = -1/2.
    """
    z = rational(z, "z")
    if 2 * z + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    q = spec.boundary_q
    xi = xi_value(spec, z)
    return VacuumEigenvalues(
        alpha_val=(q + z) * xi,
        delta_tilde_val=2 * z / (2 * z + 1) * (q - z - 1) * xi_value(spec, z - 1),
        xi_val=xi,
    )


# -- reference state ----------------------------------------------------------

def reference_state(spec: LatticeSpec) -> QuantumState:
    """End-point-rotated all-1 product state: state 2 at every end site.

    Each end-site rotation sends |1> to -|2>, so the overall sign is (-1)^N.
    """
    length = spec.length
    states = [1] * length
    for chord in spec.chords:
        states[chord.end - 1] = 2
    amps = [_F0] * (1 << length)
    amps[basis_index(states)] = _F1 if spec.n % 2 == 0 else -_F1
    return QuantumState(length, tuple(amps))


# -- sparse integer kernel ----------------------------------------------------

def _lax_column(a, b, mask, w, d, conjugate):
    """Apply d times one local factor to an integer column (a, b).

    The factor's weights are w/d, w/d + 1 and 1, so its entries scaled by d
    are the integers w, w + d and d; ``mask`` is the bit of the site.  Zero
    entries are dropped.
    """
    wd = w + d
    if conjugate:
        a2 = {i: (wd if i & mask else w) * x for i, x in a.items()}
        b2 = {i: (w if i & mask else wd) * y for i, y in b.items()}
        for i, y in b.items():
            if i & mask:
                j = i ^ mask
                a2[j] = a2.get(j, 0) - d * y
        for i, x in a.items():
            if not i & mask:
                j = i | mask
                b2[j] = b2.get(j, 0) - d * x
    else:
        a2 = {i: (w if i & mask else wd) * x for i, x in a.items()}
        b2 = {i: (wd if i & mask else w) * y for i, y in b.items()}
        for i, y in b.items():
            if not i & mask:
                j = i | mask
                a2[j] = a2.get(j, 0) + d * y
        for i, x in a.items():
            if i & mask:
                j = i ^ mask
                b2[j] = b2.get(j, 0) + d * x
    return {i: x for i, x in a2.items() if x}, {i: y for i, y in b2.items() if y}


def _sites(a, b, chain: ChainData, z: Fraction, d: int, hat: bool):
    """d^L times a conjugated row product on an integer column; d z and d v are integers."""
    length = chain.length
    zd = int(z * d)
    for site in range(1, length + 1) if hat else range(length, 0, -1):
        vd = int(chain.v[site - 1] * d)
        a, b = _lax_column(
            a, b, 1 << (length - site), zd + vd if hat else zd - vd, d, chain.conjugate[site - 1]
        )
    return a, b


def _row(a, b, chain: ChainData, z: Fraction, hat: bool):
    """Left-multiply an integer column (a, b) by a conjugated row product.

    Returns (a', b', f): the product applied to (a, b) is f (a', b').
    """
    d = lcm(z.denominator, chain.denominator)
    a, b = _sites(a, b, chain, z, d, hat)
    return a, b, Fraction(1, d**chain.length)


def _double_row(a, b, chain: ChainData, z: Fraction):
    """Left-multiply an integer column (a, b) by the double row M K Mhat.

    Returns (a', b', f) as :func:`_row` does; the boundary enters as the
    integers (Q + Z, Q - Z), the boundary parameter and z scaled by d.
    """
    d = lcm(z.denominator, chain.denominator)
    a, b = _sites(a, b, chain, z, d, hat=True)
    qd, zd = int(chain.q * d), int(z * d)
    a = {i: (qd + zd) * x for i, x in a.items()} if qd + zd else {}
    b = {i: (qd - zd) * y for i, y in b.items()} if qd - zd else {}
    a, b = _sites(a, b, chain, z, d, hat=False)
    return a, b, Fraction(1, d ** (2 * chain.length + 1))


def _blocks_on_state(apply, state: QuantumState):
    """``[[A v, B v], [C v, D v]]`` from the two auxiliary columns (v, 0), (0, v)."""
    vec, scale = _to_sparse(state.amplitudes)
    (av, cv, f), (bv, dv, _) = apply(vec, {}), apply({}, vec)
    return [
        [_from_sparse(state.length, x, scale * f) for x in (av, bv)],
        [_from_sparse(state.length, x, scale * f) for x in (cv, dv)],
    ]


def single_row_on_state(spec: LatticeSpec, z, hat: bool, state: QuantumState):
    """Blocks of the conjugated single-row product applied to a state.

    Returns a 2x2 nested list ``phi`` with ``phi[r][c]`` the chain vector
    block(r+1, c+1) |state>.
    """
    chain, z = chain_data(spec), rational(z, "z")
    return _blocks_on_state(lambda a, b: _row(a, b, chain, z, hat), state)


def double_row_on_state(spec: LatticeSpec, z, state: QuantumState):
    """Blocks of the double-row monodromy applied to a state (2x2 nested list)."""
    chain, z = chain_data(spec), rational(z, "z")
    return _blocks_on_state(lambda a, b: _double_row(a, b, chain, z), state)


def _open_b(chain: ChainData, z: Fraction, vec: dict, scale: Fraction):
    """The creation operator B(z) on the state ``scale * vec``, as a new pair.

    Only the second auxiliary column feeds block (1, 2), so one column is
    tracked.  The content gcd of the result moves into its scale.
    """
    bv, _, f = _double_row({}, vec, chain, z)
    return _primitive(bv, scale * f)


def apply_open_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the open-chain creation operator at parameter z to a state."""
    chain = chain_data(spec)
    bv, scale = _open_b(chain, rational(z, "z"), *_to_sparse(state.amplitudes))
    return _from_sparse(chain.length, bv, scale)


def apply_closed_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the closed-chain (single-row) creation block to a state."""
    chain = chain_data(spec)
    vec, scale = _to_sparse(state.amplitudes)
    bv, _, f = _row({}, vec, chain, rational(z, "z"), hat=False)
    return _from_sparse(chain.length, bv, scale * f)


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
    cols = []
    for c in (0, 1):
        for j in range(size):
            top, bottom, f = apply({j: 1}, {}) if c == 0 else apply({}, {j: 1})
            column = {**top, **{size + i: y for i, y in bottom.items()}}
            cols.append(_from_sparse(length + 1, column, f).amplitudes)
    return ExactMatrix(tuple(zip(*cols)))


def single_row(spec: LatticeSpec, z, hat: bool = False) -> ExactMatrix:
    """Dense conjugated single-row monodromy (end sites carry conjugate blocks)."""
    chain, z = chain_data(spec), rational(z, "z")
    return _assemble(chain.length, lambda a, b: _row(a, b, chain, z, hat))


def double_row(spec: LatticeSpec, z) -> ExactMatrix:
    """Dense double-row monodromy M K Mhat with the dressed boundary matrix."""
    chain, z = chain_data(spec), rational(z, "z")
    return _assemble(chain.length, lambda a, b: _double_row(a, b, chain, z))


def shifted_d_block(u: ExactMatrix, z) -> ExactMatrix:
    """Dtilde(z) = D(z) - A(z)/(2z+1) from the double row ``u`` at z."""
    z = rational(z, "z")
    if 2 * z + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    return aux_block(u, 1, 1) - aux_block(u, 0, 0).scale(_F1 / (2 * z + 1))


def check_crossing(spec: LatticeSpec, z) -> bool:
    """The two single-row products are auxiliary transposes of each other.

    Mhat(z)^{t_a} = (-1)^L S M(-z-1) S^{-1} with the transpose and the
    similarity both taken in the auxiliary space; S^{-1} = -S.  Block by
    block: Mhat_{rc} = +-(-1)^L M_{1-c,1-r}, + on the diagonal, - off it.
    """
    z = rational(z, "z")
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
    x, y = rational(x, "x"), rational(y, "y")
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
    _check_config(spec, config)
    states = [0] * spec.length
    for chord, a, b in zip(spec.chords, config.alpha, config.beta):
        states[chord.start - 1] = a
        states[chord.end - 1] = b
    return state.component(states)

"""Algebraic Bethe ansatz for the open chain with a reflecting end.

States are built by acting with the creation block of the double-row
monodromy on the reference state; with the exactly-known roots the result
is an exact eigenstate of the diagonal blocks and is annihilated by the
off-diagonal ones.  This module also verifies the algebra it relies on:
the exchange relations of the double-row blocks, the closed forms of the
off-shell remainder terms, the functional equation satisfied by the
Q-function, and the length-reduction identity for nested end pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .contraction import boundary_line_invariant, line_invariant
from .errors import DegenerateSpecError, PoleError
from .lattice import (
    BetheRootSet,
    Chord,
    ExternalConfig,
    LatticeSpec,
    canonical_bethe_roots,
    inhomogeneities,
    q_function,
    require_valid,
    sweep,
)
from .monodromy import (
    QuantumState,
    apply_open_b,
    aux_block,
    double_row,
    double_row_on_state,
    external_component,
    lambda_value,
    reference_state,
    shifted_d_block,
    vacuum_eigenvalues,
    xi_value,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class AbaResult:
    """A Bethe state together with its roots."""

    bethe_state: QuantumState
    roots: BetheRootSet


def _root_tuple(roots) -> tuple:
    if isinstance(roots, BetheRootSet):
        return roots.roots
    return tuple(Fraction(z) for z in roots)


def bethe_state(spec: LatticeSpec, roots) -> QuantumState:
    """Creation-operator product on the reference state, one factor per root.

    The result does not depend on the order of the roots.  Raises
    DegenerateSpecError when the state vanishes identically.
    """
    state = reference_state(spec)
    for z in reversed(_root_tuple(roots)):
        state = apply_open_b(spec, z, state)
    if state.is_zero() and len(_root_tuple(roots)) > 0:
        raise DegenerateSpecError("creation-operator product annihilated the reference state")
    return state


def solve_aba(spec: LatticeSpec) -> AbaResult:
    """Half-filled Bethe state at the canonical roots."""
    roots = canonical_bethe_roots(spec)
    return AbaResult(bethe_state=bethe_state(spec, roots), roots=roots)


def z_aba(spec: LatticeSpec, config: ExternalConfig) -> Fraction:
    """Partition function from the creation-operator representation."""
    return z_aba_table(spec, [config])[0]


def z_aba_table(spec: LatticeSpec, configs: Sequence[ExternalConfig]) -> list:
    """Values for many configs from a single state construction."""
    return sweep(spec, configs, lambda s: partial(external_component, solve_aba(s).bethe_state, s))


def check_invariance(spec: LatticeSpec, state: QuantumState, z) -> bool:
    """Eigen-relations of the double-row monodromy on an invariant state.

    The off-diagonal blocks must annihilate the state while the diagonal
    blocks act with eigenvalue Lambda(z) times (q+z) and (q-z).
    """
    z = Fraction(z)
    q = spec.boundary_q
    lam = lambda_value(spec, z)
    blocks = double_row_on_state(spec, z, state)
    if not blocks[0][1].is_zero() or not blocks[1][0].is_zero():
        return False
    if blocks[0][0] != state.scale(lam * (q + z)):
        return False
    return blocks[1][1] == state.scale(lam * (q - z))


def check_baxter(spec: LatticeSpec, z) -> bool:
    """Both functional equations tying Xi, Lambda and the canonical Q.

    Xi(z) Q(z-1) = Lambda(z) Q(z)  and  Xi(z-1) Q(z+1) = Lambda(z) Q(z).
    """
    require_valid(spec)
    z = Fraction(z)
    qz = q_function(spec, z)
    if qz == 0:
        raise PoleError(f"Q({z}) = 0; functional equation undefined at a root")
    lam = lambda_value(spec, z)
    first = xi_value(spec, z) * q_function(spec, z - 1) == lam * qz
    second = xi_value(spec, z - 1) * q_function(spec, z + 1) == lam * qz
    return first and second


# -- exchange-relation coefficients -------------------------------------------

def _nonzero(value: Fraction, what: str) -> Fraction:
    if value == 0:
        raise PoleError(f"coefficient pole: {what} vanished")
    return value


def h_a_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return (x + y) * (x - y - 1) / _nonzero((x - y) * (x + y + 1), "(x-y)(x+y+1)")


def g_a_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return 2 * y / _nonzero((x - y) * (2 * y + 1), "(x-y)(2y+1)")


def g_dt_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return -_F1 / _nonzero(x + y + 1, "x+y+1")


def h_dt_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return (x - y + 1) * (x + y + 2) / _nonzero((x - y) * (x + y + 1), "(x-y)(x+y+1)")


def k_a_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return (
        4 * y * (x + 1)
        / _nonzero((2 * x + 1) * (2 * y + 1) * (x + y + 1), "(2x+1)(2y+1)(x+y+1)")
    )


def k_dt_coeff(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    return -2 * (x + 1) / _nonzero((x - y) * (2 * x + 1), "(x-y)(2x+1)")


def _roots_q(roots: tuple, z: Fraction) -> Fraction:
    out = _F1
    for zi in roots:
        out *= (z - zi) * (z + zi + 1)
    return out


def unwanted_terms(spec: LatticeSpec, z, k: int, roots: Optional[Sequence] = None) -> tuple:
    """Closed-form remainder coefficients (M_k, N_k) of the diagonal actions.

    Both vanish exactly at the canonical roots; with any off-shell root set
    they are generically nonzero.  ``k`` is 1-based.
    """
    require_valid(spec)
    z = Fraction(z)
    zs = _root_tuple(roots) if roots is not None else canonical_bethe_roots(spec).roots
    if not (1 <= k <= len(zs)):
        raise ValueError(f"k must lie in 1..{len(zs)}")
    zk = zs[k - 1]
    ev = vacuum_eigenvalues(spec, zk)
    alpha_k, delta_k = ev.alpha_val, ev.delta_tilde_val
    q_down = _roots_q(zs, zk - 1)
    q_up = _roots_q(zs, zk + 1)
    pref = _F1
    for i, zi in enumerate(zs):
        if i != k - 1:
            pref /= _nonzero((zk - zi) * (zk + zi + 1), "(z_k-z_i)(z_k+z_i+1)")
    denom1 = _nonzero((z - zk) * (2 * zk + 1), "(z-z_k)(2z_k+1)")
    denom2 = _nonzero(2 * (z + zk + 1) * (zk + 1), "(z+z_k+1)(z_k+1)")
    m_k = -(alpha_k * q_down / denom1 + delta_k * q_up / denom2) * pref
    denom3 = _nonzero((z + zk + 1) * (2 * zk + 1), "(z+z_k+1)(2z_k+1)")
    denom4 = _nonzero(2 * (z - zk) * (zk + 1), "(z-z_k)(z_k+1)")
    outer = (2 * z + 2) / _nonzero(2 * z + 1, "2z+1")
    n_k = -outer * (alpha_k * q_down / denom3 + delta_k * q_up / denom4) * pref
    return m_k, n_k


def unwanted_terms_from_fcr(
    spec: LatticeSpec, z, k: int, roots: Optional[Sequence] = None
) -> tuple:
    """The same remainder coefficients assembled from the exchange coefficients."""
    require_valid(spec)
    z = Fraction(z)
    zs = _root_tuple(roots) if roots is not None else canonical_bethe_roots(spec).roots
    if not (1 <= k <= len(zs)):
        raise ValueError(f"k must lie in 1..{len(zs)}")
    zk = zs[k - 1]
    ev = vacuum_eigenvalues(spec, zk)
    prod_a = _F1
    prod_d = _F1
    for i, zi in enumerate(zs):
        if i != k - 1:
            prod_a *= h_a_coeff(zk, zi)
            prod_d *= h_dt_coeff(zk, zi)
    m_k = g_a_coeff(z, zk) * prod_a * ev.alpha_val + g_dt_coeff(z, zk) * prod_d * ev.delta_tilde_val
    n_k = k_a_coeff(z, zk) * prod_a * ev.alpha_val + k_dt_coeff(z, zk) * prod_d * ev.delta_tilde_val
    return m_k, n_k


def check_fcr_open(spec: LatticeSpec, x, y) -> bool:
    """Exchange relations of the double-row blocks as exact operator identities.

    [B(x), B(y)] = 0,
    A(x)B(y)  = h_A B(y)A(x)  + g_A B(x)A(y) + g_D B(x)Dt(y),
    Dt(x)B(y) = h_D B(y)Dt(x) + k_A B(x)A(y) + k_D B(x)Dt(y).

    Dense block products; intended for short chains.
    """
    x, y = Fraction(x), Fraction(y)
    ux = double_row(spec, x)
    uy = double_row(spec, y)
    bx, by = aux_block(ux, 0, 1), aux_block(uy, 0, 1)
    if bx @ by != by @ bx:
        return False
    ax, ay = aux_block(ux, 0, 0), aux_block(uy, 0, 0)
    dtx = shifted_d_block(ux, x)
    dty = shifted_d_block(uy, y)
    bx_ay = bx @ ay
    bx_dty = bx @ dty
    rel_a = (
        ax @ by
        == (by @ ax).scale(h_a_coeff(x, y))
        + bx_ay.scale(g_a_coeff(x, y))
        + bx_dty.scale(g_dt_coeff(x, y))
    )
    if not rel_a:
        return False
    return (
        dtx @ by
        == (by @ dtx).scale(h_dt_coeff(x, y))
        + bx_ay.scale(k_a_coeff(x, y))
        + bx_dty.scale(k_dt_coeff(x, y))
    )


def check_b_reflection(spec: LatticeSpec, z) -> bool:
    """Creation-block reflection symmetry B(z) = -(z/(z+1)) B(-z-1), exactly."""
    z = Fraction(z)
    if z == 0 or z == -1:
        raise PoleError("reflection factor z/(z+1) degenerates at z in {0, -1}")
    lhs = aux_block(double_row(spec, z), 0, 1)
    rhs = aux_block(double_row(spec, -z - 1), 0, 1).scale(-z / (z + 1))
    return lhs == rhs


def reduction_factor(spec: LatticeSpec, t, extra_roots: Sequence) -> Fraction:
    """Scalar tying a nested end pair to the shorter chain's Bethe state.

    h(t) = 4t(t+1)(q+t) prod_i (t+z_i+2)(t-z_i-1)(t+z_i)(t-z_i+1)
                        prod_k (t+v_k)(t-v_k+1)
    with the product over the remaining roots and remaining sites.
    """
    t = Fraction(t)
    q = spec.boundary_q
    out = 4 * t * (t + 1) * (q + t)
    for zi in extra_roots:
        zi = Fraction(zi)
        out *= (t + zi + 2) * (t - zi - 1) * (t + zi) * (t - zi + 1)
    v = inhomogeneities(spec)
    for vk in v[: spec.length - 2]:
        out *= (t + vk) * (t - vk + 1)
    return out


def reduced_spec(spec: LatticeSpec) -> LatticeSpec:
    """Drop line 1 when it occupies the two highest sites as a nested pair."""
    length = spec.length
    if spec.chords[0] != Chord(length, length - 1):
        raise ValueError("line 1 must occupy the nested pair (2N, 2N-1)")
    return LatticeSpec(
        chords=spec.chords[1:],
        reflected=frozenset(k - 1 for k in spec.reflected if k >= 2),
        rapidities=spec.rapidities[1:],
        boundary_q=spec.boundary_q,
    )


def check_reduction(spec: LatticeSpec, m: int, extra_roots: Sequence) -> bool:
    """Length-reduction identity for a nested end pair, off-shell in the rest.

    With line 1 on sites (2N, 2N-1) and its root fixed to the canonical
    branch, the m-magnon state factorizes as (shorter-chain state with the
    remaining m-1 roots) tensor (two-site invariant scaled by h).  Also
    verifies that components with unequal labels on the pair vanish.
    """
    if len(extra_roots) != m - 1:
        raise ValueError(f"need {m - 1} extra roots for magnon number {m}")
    extra = tuple(Fraction(z) for z in extra_roots)
    theta1 = spec.rapidities[0]
    t = theta1 if spec.is_reflected(1) else -theta1
    full = bethe_state(spec, extra + (t,))

    length = spec.length
    for idx, amp in enumerate(full.amplitudes):
        pair_hi = (idx >> 1) & 1  # site 2N-1
        pair_lo = idx & 1  # site 2N
        if pair_hi != pair_lo and amp != 0:
            return False

    sub = reduced_spec(spec)
    small = bethe_state(sub, extra) if m > 1 else reference_state(sub)
    local = (
        boundary_line_invariant(theta1, spec.boundary_q)
        if spec.is_reflected(1)
        else line_invariant()
    )
    phi = local.scale(reduction_factor(spec, t, extra))

    expected = [_F0] * (1 << length)
    for i, a in enumerate(small.amplitudes):
        if a:
            for j, b in enumerate(phi.amplitudes):
                if b:
                    expected[(i << 2) | j] = a * b
    return full.amplitudes == tuple(expected)

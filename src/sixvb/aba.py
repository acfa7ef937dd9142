"""Algebraic Bethe ansatz for the open chain with a reflecting end.

States are built by acting with the creation block of the double-row
monodromy on the reference state; with the exactly-known roots the result
is an exact eigenstate of the diagonal blocks and is annihilated by the
off-diagonal ones.  The creation operators commute, so the order of the
roots does not change the state, but it changes the work: ``solve_aba``
applies them in descending order of their line's end site, which keeps the
partial states small (its site steps visit 0.70 times the entries of the
line order on 20 seeded N=6 lattices).

This module also verifies the algebra it relies on: the exchange
relations of the double-row blocks, the closed forms of the off-shell
remainder terms, Baxter's functional equations with the reference state's
eigenvalue read from the double-row kernel, and the length-reduction
identity for nested end pairs.  The state identities, as the operator ones,
compare integer vectors, every scale folded into their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .contraction import initial_invariant
from .errors import DegenerateSpecError, PoleError
from .exact import _strict, rational
from .lattice import (
    BetheRootSet,
    Chord,
    LatticeSpec,
    _q_of_roots,
    canonical_bethe_roots,
    q_function,
)
from .monodromy import (
    QuantumState,
    _basis,
    _combine,
    _double_row_kernel,
    _integer_coefficients,
    apply_open_b,
    lambda_value,
    reference_state,
    vacuum_eigenvalues,
)

_F1 = Fraction(1)


@dataclass(frozen=True)
class AbaResult:
    """A Bethe state together with its roots."""

    bethe_state: QuantumState
    roots: BetheRootSet


def bethe_state(spec: LatticeSpec, roots: Sequence) -> QuantumState:
    """Creation-operator product on the reference state, one factor per root.

    The result does not depend on the order of the roots.  Raises
    DegenerateSpecError when the state vanishes identically.
    """
    zs = tuple(rational(z, "root") for z in roots)
    state = reference_state(spec)
    for z in reversed(zs):
        state = apply_open_b(spec, z, state)
    if state.is_zero():
        raise DegenerateSpecError("creation-operator product annihilated the reference state")
    return state


def solve_aba(spec: LatticeSpec) -> AbaResult:
    """Half-filled Bethe state at the canonical roots.

    The roots act in descending order of their line's end site (the line
    ending highest acts first), which keeps the partial states small;
    ``roots`` stays in line order.
    """
    roots = canonical_bethe_roots(spec)
    by_end = sorted(range(spec.n), key=lambda k: spec.chords[k].end)  # applied last-first
    return AbaResult(bethe_state=bethe_state(spec, [roots.roots[k] for k in by_end]), roots=roots)


def check_invariance(spec: LatticeSpec, state: QuantumState, z) -> bool:
    """Eigen-relations of the double-row monodromy on an invariant state.

    The off-diagonal blocks must annihilate the state while the diagonal
    blocks act with eigenvalue Lambda(z) times (q+z) and (q-z): the kernel's
    columns (v, 0) and (0, v) of the state's integer vector v against v, the
    state's scale on both sides.
    """
    z = rational(z, "z")
    q, lam, v = spec.boundary_q, lambda_value(spec, z), state.entries
    apply, scale = _double_row_kernel(spec.chain, z)
    (av, cv), (bv, dv) = apply(v, {}), apply({}, v)
    if bv or cv:
        return False
    c_f, c_a, c_d = _integer_coefficients(scale, lam * (q + z), lam * (q - z))
    return _combine((c_f, av)) == _combine((c_a, v)) and _combine((c_f, dv)) == _combine((c_d, v))


def check_baxter(spec: LatticeSpec, z) -> bool:
    """Both functional equations tying Xi, Lambda and the canonical Q.

    Xi(z) Q(z-1) = Lambda(z) Q(z)  and  Xi(z-1) Q(z+1) = Lambda(z) Q(z),

    with Xi(w) read from the double-row kernel, whose A block at w acts on
    the reference state Omega as (q+w) Xi(w), and Lambda and Q in closed
    form.  The equations are checked as identities of integer vectors:

    A(z) Omega Q(z-1) = (q+z) Lambda(z) Q(z) Omega,
    A(z-1) Omega Q(z+1) = (q+z-1) Lambda(z) Q(z) Omega.
    """
    z = rational(z, "z")
    qz = q_function(spec, z)
    if qz == 0:
        raise PoleError(f"Q({z}) = 0; functional equation undefined at a root")
    rhs = lambda_value(spec, z) * qz
    omega = reference_state(spec).entries

    def holds(w, q_other):
        apply, scale = _double_row_kernel(spec.chain, w)
        c_lhs, c_rhs = _integer_coefficients(scale * q_other, (spec.boundary_q + w) * rhs)
        return _combine((c_lhs, apply(omega, {})[0])) == _combine((c_rhs, omega))

    return holds(z, q_function(spec, z - 1)) and holds(z - 1, q_function(spec, z + 1))


# -- exchange-relation coefficients -------------------------------------------

def _nonzero(value: Fraction, what: str) -> Fraction:
    if value == 0:
        raise PoleError(f"coefficient pole: {what} vanished")
    return value


def h_a_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return (x + y) * (x - y - 1) / _nonzero((x - y) * (x + y + 1), "(x-y)(x+y+1)")


def g_a_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return 2 * y / _nonzero((x - y) * (2 * y + 1), "(x-y)(2y+1)")


def g_dt_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return -_F1 / _nonzero(x + y + 1, "x+y+1")


def h_dt_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return (x - y + 1) * (x + y + 2) / _nonzero((x - y) * (x + y + 1), "(x-y)(x+y+1)")


def k_a_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return (
        4 * y * (x + 1)
        / _nonzero((2 * x + 1) * (2 * y + 1) * (x + y + 1), "(2x+1)(2y+1)(x+y+1)")
    )


def k_dt_coeff(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    return -2 * (x + 1) / _nonzero((x - y) * (2 * x + 1), "(x-y)(2x+1)")


def _remainder_inputs(spec: LatticeSpec, z, k: int, roots: Optional[Sequence]) -> tuple:
    """(z, roots, z_k, alpha(z_k), dtilde(z_k)) for the remainder terms:
    the canonical roots by default, ``k`` checked to lie in 1..len(roots)."""
    z = rational(z, "z")
    roots = canonical_bethe_roots(spec).roots if roots is None else roots
    zs = tuple(rational(zi, "root") for zi in roots)
    if not (1 <= _strict(k, (int,), "k") <= len(zs)):
        raise ValueError(f"k must lie in 1..{len(zs)}")
    return (z, zs, zs[k - 1], *vacuum_eigenvalues(spec, zs[k - 1]))


def unwanted_terms(spec: LatticeSpec, z, k: int, roots: Optional[Sequence] = None) -> tuple:
    """Closed-form remainder coefficients (M_k, N_k) of the diagonal actions.

    Both vanish exactly at the canonical roots; with any off-shell root set
    they are generically nonzero.  ``k`` is 1-based.
    """
    z, zs, zk, alpha_k, delta_k = _remainder_inputs(spec, z, k, roots)
    q_down, q_up = _q_of_roots(zs, zk - 1), _q_of_roots(zs, zk + 1)
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
    z, zs, zk, alpha_k, delta_k = _remainder_inputs(spec, z, k, roots)
    prod_a = prod_d = _F1
    for i, zi in enumerate(zs):
        if i != k - 1:
            prod_a *= h_a_coeff(zk, zi)
            prod_d *= h_dt_coeff(zk, zi)
    m_k = g_a_coeff(z, zk) * prod_a * alpha_k + g_dt_coeff(z, zk) * prod_d * delta_k
    n_k = k_a_coeff(z, zk) * prod_a * alpha_k + k_dt_coeff(z, zk) * prod_d * delta_k
    return m_k, n_k


def check_fcr_open(spec: LatticeSpec, x, y) -> bool:
    """Exchange relations of the double-row blocks as exact operator identities.

    [B(x), B(y)] = 0,
    A(x)B(y)  = h_A B(y)A(x)  + g_A B(x)A(y) + g_D B(x)Dt(y),
    Dt(x)B(y) = h_D B(y)Dt(x) + k_A B(x)A(y) + k_D B(x)Dt(y),

    with Dt(z) = D(z) - A(z)/(2z+1), checked on the whole basis at once.  With
    1/(2z+1) = R/P in lowest terms, Dt enters as the integer block
    T(z) = P D(z) - R A(z) = P Dt(z), and the Dt(x) relation is multiplied
    through by P_x, so every vector compared is an integer vector.
    """
    x, y = rational(x, "x"), rational(y, "y")
    if 2 * x + 1 == 0 or 2 * y + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    sx, sy = 1 / (2 * x + 1), 1 / (2 * y + 1)
    (rx, px), (ry, py) = (sx.numerator, sx.denominator), (sy.numerator, sy.denominator)
    a_lhs, h_a, g_a, g_dt = _integer_coefficients(
        _F1, h_a_coeff(x, y), g_a_coeff(x, y), g_dt_coeff(x, y) / py
    )
    t_lhs, h_dt, k_a, k_dt = _integer_coefficients(
        _F1, h_dt_coeff(x, y), px * k_a_coeff(x, y), px * k_dt_coeff(x, y) / py
    )
    (ux, _), (uy, _) = _double_row_kernel(spec.chain, x), _double_row_kernel(spec.chain, y)
    e = _basis(spec.length)
    (ax, _), (bx, dx), (ay, _), (by, dy) = ux(e, {}), ux({}, e), uy(e, {}), uy({}, e)
    (ax_by, _), (bx_by, dx_by) = ux(by, {}), ux({}, by)
    tx, ty = _combine((px, dx), (-rx, ax)), _combine((py, dy), (-ry, ay))
    bx_ay, bx_ty = ux({}, ay)[0], ux({}, ty)[0]
    tx_by = _combine((px, dx_by), (-rx, ax_by))
    a_ok = _combine((a_lhs, ax_by)) == _combine((h_a, uy({}, ax)[0]), (g_a, bx_ay), (g_dt, bx_ty))
    t_ok = _combine((t_lhs, tx_by)) == _combine((h_dt, uy({}, tx)[0]), (k_a, bx_ay), (k_dt, bx_ty))
    return bx_by == uy({}, bx)[0] and a_ok and t_ok


def check_b_reflection(spec: LatticeSpec, z) -> bool:
    """Creation-block reflection symmetry B(z) = -(z/(z+1)) B(-z-1), exactly."""
    z = rational(z, "z")
    if z == 0 or z == -1:
        raise PoleError("reflection factor z/(z+1) degenerates at z in {0, -1}")
    chain = spec.chain
    (lhs, s_lhs), (rhs, s_rhs) = _double_row_kernel(chain, z), _double_row_kernel(chain, -z - 1)
    c_lhs, c_rhs = _integer_coefficients(s_lhs, -z / (z + 1) * s_rhs)
    e = _basis(spec.length)
    return _combine((c_lhs, lhs({}, e)[0])) == _combine((c_rhs, rhs({}, e)[0]))


def reduction_factor(spec: LatticeSpec, t, extra_roots: Sequence) -> Fraction:
    """Scalar tying a nested end pair to the shorter chain's Bethe state.

    h(t) = 4t(t+1)(q+t) prod_i (t+z_i+2)(t-z_i-1)(t+z_i)(t-z_i+1)
                        prod_k (t+v_k)(t-v_k+1)
    with the product over the remaining roots and remaining sites.
    """
    t, chain = rational(t, "t"), spec.chain
    out = 4 * t * (t + 1) * (chain.q + t)
    for zi in extra_roots:
        zi = rational(zi, "root")
        out *= (t + zi + 2) * (t - zi - 1) * (t + zi) * (t - zi + 1)
    for vk in chain.v[: chain.length - 2]:
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


def check_reduction(spec: LatticeSpec, extra_roots: Sequence) -> bool:
    """Length-reduction identity for a nested end pair, off-shell in the rest.

    With line 1 on sites (2N, 2N-1) and its root fixed to the canonical
    branch, the state of m = len(extra_roots) + 1 magnons factorizes as
    (shorter-chain state with the extra roots) tensor (two-site invariant
    scaled by h), the two-site invariant being ``initial_invariant`` of
    line 1 alone on the one-line lattice.  The product holds only the
    entries 0 and 3 of the pair, so components with unequal labels on the
    pair must vanish.
    """
    extra = tuple(rational(z, "root") for z in extra_roots)
    t = spec.chain.roots[0]
    full = bethe_state(spec, extra + (t,))
    small = bethe_state(reduced_spec(spec), extra)
    local = initial_invariant(
        LatticeSpec((Chord(2, 1),), spec.reflected & {1}, spec.rapidities[:1], spec.boundary_q)
    )
    product = {i << 2 | j: x * y for i, x in small.entries.items() for j, y in local.entries.items()}
    c_full, c_product = _integer_coefficients(
        full.scale, small.scale * local.scale * reduction_factor(spec, t, extra)
    )
    return _combine((c_full, full.entries)) == _combine((c_product, product))

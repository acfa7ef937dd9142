"""Dense references for the tests: explicit local factors, kernel-built
operators and the dense amplitudes of a state.

An operator with an auxiliary leg is one ``ExactMatrix`` of size 2^(L+1) on
(auxiliary leg, chain), the auxiliary leg most significant; ``aux_block``
slices out its chain block (r, c).  ``single_row`` and ``double_row``
assemble that matrix column by column from the site-local kernel of
:mod:`sixvb.monodromy` (its blocks on each basis vector), so the tests can
compare it with explicit products of ``lax_embed`` factors.  ``dense``
lists the 2^L amplitudes of a sparse state, and ``component`` reads one of
them by its site labels (``basis_index``).  ``wide_spec`` draws lattices
past the six lines that ``random_spec`` covers.
"""

from fractions import Fraction

from sixvb.exact import ExactMatrix
from sixvb.lattice import LatticeSpec
from sixvb.monodromy import QuantumState, double_row_on_state, single_row_on_state
from sixvb.sampling import random_pairing, random_q, random_theta
from sixvb.weights import embed_pair, lax_matrix


def basis_index(states) -> int:
    """Index of the product basis state (s_1, ..., s_L), site 1 most significant."""
    idx = 0
    for s in states:
        idx = (idx << 1) | (s - 1)
    return idx


def component(state: QuantumState, states) -> Fraction:
    """The amplitude of a state at the site labels (s_1, ..., s_L)."""
    return state.scale * state.entries.get(basis_index(states), 0)


def dense(state: QuantumState) -> tuple:
    """All 2^L amplitudes of a state as Fractions, basis index 0 first."""
    amps = [Fraction(0)] * (1 << state.length)
    for i, x in state.entries.items():
        amps[i] = state.scale * x
    return tuple(amps)


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


def _assemble(length: int, blocks_on) -> ExactMatrix:
    """The operator whose column (c, j) is (block (0, c) e_j, block (1, c) e_j),
    with ``blocks_on(state)`` the 2x2 nested list of blocks applied to a state."""
    size = 1 << length
    cols = [None] * (2 * size)
    for j in range(size):
        blocks = blocks_on(QuantumState(length, {j: 1}))
        for c in (0, 1):
            cols[c * size + j] = dense(blocks[0][c]) + dense(blocks[1][c])
    return ExactMatrix(tuple(zip(*cols)))


def single_row(spec, z, hat: bool = False) -> ExactMatrix:
    """Dense conjugated single-row monodromy built by the kernel."""
    return _assemble(spec.length, lambda state: single_row_on_state(spec, z, hat, state))


def double_row(spec, z) -> ExactMatrix:
    """Dense double-row monodromy M K Mhat built by the kernel."""
    return _assemble(spec.length, lambda state: double_row_on_state(spec, z, state))


def states_proportional(u: QuantumState, v: QuantumState) -> bool:
    """True when u and v span the same ray (either may be scaled arbitrarily)."""
    if u.length != v.length:
        return False
    ua, va = dense(u), dense(v)
    pivot = next((i for i, a in enumerate(ua) if a != 0), None)
    if pivot is None:
        return v.is_zero()
    if va[pivot] == 0:
        return False
    c = va[pivot] / ua[pivot]
    return all(c * a == b for a, b in zip(ua, va))


def wide_spec(rng, n: int) -> LatticeSpec:
    """An N <= 12 lattice drawn like ``random_spec``, whose draws stop at six lines.

    The rapidity denominators are primes coprime to the boundary's 29, so
    the genericity conditions hold for the same reason as in ``sampling``.
    """
    reflected = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
    chords = random_pairing(rng, n)
    denoms = rng.sample((7, 11, 13, 17, 19, 23, 31, 37, 41, 43, 47, 53), n)
    return LatticeSpec(
        chords=chords,
        reflected=reflected,
        rapidities=tuple(random_theta(rng, d) for d in denoms),
        boundary_q=random_q(rng),
    )

"""Coordinate representation of the open-chain Bethe vectors.

The wave function is a sum over all root permutations and root reflections
(z -> -z - 1) of an amplitude factor times one wave factor per magnon
position.  The amplitude is a product of pair factors, so the 2^N * N! terms
are summed by a subset DP over the 3^N partial states (roots placed, their
reflections), taking the positions in increasing order.  Evaluating it at
the canonical roots and the positions read off an external configuration
reproduces the partition function up to an explicit sign.  The translation
identities between this picture and the creation-operator one
(creation-block expansion over single-row blocks, reflection-sum expansion
of the state) are verified here as exact operator and state identities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import PoleError
from .exact import _strict, rational
from .lattice import (
    LatticeSpec,
    canonical_bethe_roots,
    end_mask,
    ice_indices,
    inhomogeneities,
    magnon_sites,
)
from .monodromy import (
    QuantumState,
    _Blocks,
    _combine,
    _double_row_kernel,
    _integer_coefficients,
    _row_kernel,
    apply_closed_b,
    reference_state,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def pair_factor(a, b) -> Fraction:
    """Amplitude factor of root a ordered before root b.

    (a - b + 1)(a + b + 2) / ((a - b)(a + b + 1)).
    """
    a, b = rational(a, "a"), rational(b, "b")
    den = (a - b) * (a + b + 1)
    if den == 0:
        raise PoleError(f"amplitude pole for the root pair ({a}, {b})")
    return (a - b + 1) * (a + b + 2) / den


def amplitude(ordered_roots: Sequence) -> Fraction:
    """Scattering amplitude of an ordered root tuple: prod_{k<l} f(z_k, z_l)
    with f the ``pair_factor``."""
    zs = list(ordered_roots)
    out = _F1
    for k, a in enumerate(zs):
        for b in zs[k + 1:]:
            out *= pair_factor(a, b)
    return out


def wave_part(x: int, z, v: Sequence, q) -> Fraction:
    """One-magnon wave factor at site x for root value z on the L = len(v) sites.

    (-1)^L (q - z - 1) prod_j (z + v_j) prod_{j<x} (z - v_j + 1)
    prod_{j>x} (z - v_j).
    """
    z, q = rational(z, "z"), rational(q, "q")
    v = tuple(rational(vj, "inhomogeneity") for vj in v)
    length = len(v)
    sign = _F1 if length % 2 == 0 else -_F1
    out = sign * (q - z - 1)
    for vj in v:
        out *= z + vj
    for j in range(1, x):
        out *= z - v[j - 1] + 1
    for j in range(x + 1, length + 1):
        out *= z - v[j - 1]
    return out


class WaveEngine:
    """The reflection-and-permutation wave sum, evaluated as a subset DP.

    The sum runs over the 2^m reflections and m! orderings of the roots: a
    term assigns the images w_1..w_m of an ordering to the positions
    x_1 < ... < x_m and is (-1)^{reflections} amplitude(w) prod_i
    phi(w_i, x_i).  Taking the positions in increasing order, a DP state is
    the set of images placed so far, a bitmask over the 2m images
    (z_j, -z_j - 1) with at most one image per root, so there are 3^m
    states.  Placing image b at site x multiplies by phi(b, x) and by
    (-1)^{b reflected} prod_{a placed} f(a, b); that second factor does not
    depend on the positions and is cached per (state, b), phi per (image,
    site).  Terms with a vanishing wave factor are skipped: at the
    canonical roots many wave factors vanish, which prunes the states
    reached.  The engine keeps the DP levels of the last position set
    it evaluated, so a set resumes from the level of its common prefix with
    that one: sets met in lexicographic order walk their prefix trie depth
    first.
    """

    def __init__(self, v: Sequence, roots: Sequence, q, length: int):
        self.v = tuple(rational(x, "inhomogeneity") for x in v)
        self.roots = tuple(rational(z, "root") for z in roots)
        self.q = rational(q, "q")
        self.length = _strict(length, (int,), "chain length")
        # image 2j is z_j and image 2j + 1 its reflection -z_j - 1
        self._images = tuple(w for z in self.roots for w in (z, -z - 1))
        # Every pair of images of distinct roots meets in some term of the
        # sum, so a pole anywhere in it raises here.
        self._pair = [
            [pair_factor(a, b) if i >> 1 != j >> 1 else None for j, b in enumerate(self._images)]
            for i, a in enumerate(self._images)
        ]
        self._steps: Dict[int, Tuple[Tuple[int, Fraction], ...]] = {}
        self._phi: Dict[int, Tuple[Fraction, ...]] = {}
        self._upsilon: Dict[Tuple[int, ...], Fraction] = {}
        self._prefix: Tuple[int, ...] = ()
        self._levels = [{0: _F1}]

    def _steps_from(self, state: int) -> Tuple[Tuple[int, Fraction], ...]:
        """(b, (-1)^{b reflected} prod_{a in state} f(a, b)) for every image b
        of a root not yet placed."""
        steps = self._steps.get(state)
        if steps is None:
            placed = [a for a in range(len(self._images)) if state >> a & 1]
            steps = []
            for b in range(len(self._images)):
                if state >> (b & ~1) & 3:
                    continue
                factor = -_F1 if b & 1 else _F1
                for a in placed:
                    factor *= self._pair[a][b]
                steps.append((b, factor))
            steps = self._steps[state] = tuple(steps)
        return steps

    def _phi_at(self, site: int) -> Tuple[Fraction, ...]:
        row = self._phi.get(site)
        if row is None:
            row = self._phi[site] = tuple(wave_part(site, w, self.v, self.q) for w in self._images)
        return row

    def _advance(self, level: Dict[int, Fraction], site: int) -> Dict[int, Fraction]:
        """The DP level after placing one more image at ``site``."""
        phi = self._phi_at(site)
        out: Dict[int, Fraction] = {}
        for state, value in level.items():
            for b, factor in self._steps_from(state):
                if not phi[b]:
                    continue
                term = value * factor * phi[b]
                key = state | 1 << b
                out[key] = out[key] + term if key in out else term
        return out

    def upsilon(self, positions: Sequence[int]) -> Fraction:
        """The wave sum at the given positions."""
        x = tuple(positions)
        if any(type(p) is not int for p in x):
            raise ValueError(f"magnon positions must be integers, got {x}")
        if len(x) != len(self.roots):
            raise ValueError(
                f"need {len(self.roots)} magnon positions, got {len(x)}"
            )
        if any(a >= b for a, b in zip(x, x[1:])):
            raise ValueError("magnon positions must be strictly increasing")
        if x and not (1 <= x[0] and x[-1] <= self.length):
            raise ValueError(f"magnon positions must lie in 1..{self.length}")
        cached = self._upsilon.get(x)
        if cached is not None:
            return cached
        # Keep the levels shared with the last set; the full level is summed, not kept.
        shared = 0
        for a, b in zip(self._prefix, x[:-1]):
            if a != b:
                break
            shared += 1
        levels = self._levels
        del levels[shared + 1:]
        for site in x[shared:-1]:
            levels.append(self._advance(levels[-1], site))
        self._prefix = x[:-1]
        last = self._advance(levels[-1], x[-1]) if x else levels[0]
        total = sum(last.values(), _F0)
        self._upsilon[x] = total
        return total


def wave_function(spec: LatticeSpec, roots: Sequence, x: Sequence[int]) -> Fraction:
    """Wave sum for a lattice instance at explicit roots and positions."""
    engine = WaveEngine(inhomogeneities(spec), roots, spec.boundary_q, spec.length)
    return engine.upsilon(tuple(x))


def spec_wave_engine(spec: LatticeSpec) -> WaveEngine:
    """Engine at the canonical roots of an instance."""
    zs = canonical_bethe_roots(spec).roots
    return WaveEngine(inhomogeneities(spec), zs, spec.boundary_q, spec.length)


def wave_components(spec: LatticeSpec, keys) -> dict:
    """Chain entries ``{index: component}`` of the wave sum at the given
    ice-rule basis indices and at the reference index 0.

    The component at index k is the wave sum at the magnon sites of k, with
    sign -1 when an odd number of end sites hold label 2.  The engine meets
    the position sets in lexicographic order, so its DP walks their prefix
    trie once.  Zero components are left out.
    """
    engine = spec_wave_engine(spec)
    mask = end_mask(spec)
    out = {}
    for x, k in sorted((magnon_sites(spec, k), k) for k in {*keys, 0}):
        value = engine.upsilon(x)
        if value:
            out[k] = -value if (k & mask).bit_count() % 2 else value
    return out


def norm_prefactor(spec: LatticeSpec, roots: Sequence) -> Fraction:
    """(-1)^{mL} prod_i 2 z_i / (2 z_i + 1)."""
    zs = tuple(rational(z, "root") for z in roots)
    m = len(zs)
    out = _F1 if (m * spec.length) % 2 == 0 else -_F1
    for z in zs:
        if 2 * z + 1 == 0:
            raise PoleError("normalization pole at root -1/2")
        out *= 2 * z / (2 * z + 1)
    return out


def cba_state(spec: LatticeSpec) -> QuantumState:
    """Assemble the Bethe state at the canonical roots from wave values over
    all position sets.

    Matches the creation-operator construction exactly, including the
    normalization prefactor and the end-site rotations.
    """
    roots = canonical_bethe_roots(spec).roots
    return QuantumState(
        spec.length, wave_components(spec, ice_indices(spec)), norm_prefactor(spec, roots)
    )


# -- closed-chain wave function ------------------------------------------------

def closed_wave(v: Sequence, z: Sequence, x: Sequence[int]) -> Fraction:
    """Permutation-only wave sum of the closed chain.

    Amplitude prod_{k<l} (z_k - z_l + 1)/(z_k - z_l); wave factors
    prod_{j<x}(z - v_j + 1) prod_{j>x}(z - v_j).
    """
    vs = tuple(rational(t, "inhomogeneity") for t in v)
    zs = tuple(rational(t, "root") for t in z)
    xs = tuple(x)
    if any(type(p) is not int for p in xs):
        raise ValueError(f"magnon positions must be integers, got {xs}")
    if len(xs) != len(zs):
        raise ValueError("one position per root required")
    length = len(vs)
    total = _F0
    for perm in itertools.permutations(zs):
        amp = _F1
        for k in range(len(perm)):
            for l in range(k + 1, len(perm)):
                den = perm[k] - perm[l]
                if den == 0:
                    raise PoleError("coincident roots in closed-chain amplitude")
                amp *= (den + 1) / den
        term = amp
        for xi, zi in zip(xs, perm):
            for j in range(1, xi):
                term *= zi - vs[j - 1] + 1
            for j in range(xi + 1, length + 1):
                term *= zi - vs[j - 1]
        total += term
    return total


def h_closed(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    if x == y:
        raise PoleError("closed exchange coefficient pole at x = y")
    return (1 + x - y) / (x - y)


def k_closed(x, y) -> Fraction:
    x, y = rational(x, "x"), rational(y, "y")
    if x == y:
        raise PoleError("closed exchange coefficient pole at x = y")
    return _F1 / (x - y)


def check_closed_fcr(spec: LatticeSpec, x, y) -> bool:
    """Exchange relations of the single-row blocks as exact operator identities.

    [B(x), B(y)] = 0 and A(x)B(y) = h(y,x) B(y)A(x) - k(y,x) B(x)A(y), checked
    on every basis vector.
    """
    x, y = rational(x, "x"), rational(y, "y")
    lhs, h, k = _integer_coefficients(_F1, h_closed(y, x), k_closed(y, x))
    mx, my = _Blocks(_row_kernel(spec, x, False)), _Blocks(_row_kernel(spec, y, False))
    for j in range(1 << spec.length):
        e = {j: 1}
        by = my(0, 1, e)
        if mx(0, 1, by) != my(0, 1, mx(0, 1, e)):
            return False
        ax_by = _combine((lhs, mx(0, 0, by)))
        if ax_by != _combine((h, my(0, 1, mx(0, 0, e))), (-k, mx(0, 1, my(0, 0, e)))):
            return False
    return True


def check_b_expansion(spec: LatticeSpec, z) -> bool:
    """Creation block of the double row expanded over single-row blocks.

    Bopen(z) = (-1)^L 2z/(2z+1) [ (q-z-1) B(z) A(-z-1) - (q+z) B(-z-1) A(z) ],
    checked on every basis vector.
    """
    z = rational(z, "z")
    if 2 * z + 1 == 0:
        raise PoleError("expansion pole at z = -1/2")
    q = spec.boundary_q
    u, m_plus = _Blocks(_double_row_kernel(spec, z)), _Blocks(_row_kernel(spec, z, False))
    m_minus = _Blocks(_row_kernel(spec, -z - 1, False))
    sign = _F1 if spec.length % 2 == 0 else -_F1
    factor = sign * 2 * z / (2 * z + 1) * m_plus.scale * m_minus.scale
    c_u, c_plus, c_minus = _integer_coefficients(u.scale, factor * (q - z - 1), -factor * (q + z))
    return all(
        _combine((c_u, u(0, 1, {j: 1}))) == _combine(
            (c_plus, m_plus(0, 1, m_minus(0, 0, {j: 1}))),
            (c_minus, m_minus(0, 1, m_plus(0, 0, {j: 1}))),
        )
        for j in range(1 << spec.length)
    )


def kappa(spec: LatticeSpec, z) -> Fraction:
    """prod_i (z - v_i + 1) over the chain sites."""
    z = rational(z, "z")
    out = _F1
    for vi in inhomogeneities(spec):
        out *= z - vi + 1
    return out


def check_state_expansion(spec: LatticeSpec, m: int, roots: Sequence) -> bool:
    """Bethe state as a reflection sum of single-row creation products.

    psi_m = N_{L,m} sum_tau (-1)^{|tau|} prod_{i<j} h(z_i, -z_j - 1)
            prod_i (q - z_i - 1) kappa(-z_i - 1) B(z_i) |Omega>,
    evaluated over the 2^m reflections of the given (off-shell) roots.
    """
    from .aba import bethe_state  # deferred: aba imports contraction, not cba

    zs = tuple(rational(z, "root") for z in roots)
    if len(zs) != m:
        raise ValueError(f"need {m} roots")
    lhs = bethe_state(spec, zs)
    q = spec.boundary_q
    coeffs, states = [], []
    for bits in range(1 << m):
        sign = _F1 if bin(bits).count("1") % 2 == 0 else -_F1
        images = tuple(-z - 1 if (bits >> i) & 1 else z for i, z in enumerate(zs))
        coeff = sign
        for i in range(m):
            for j in range(i + 1, m):
                coeff *= h_closed(images[i], -images[j] - 1)
        for w in images:
            coeff *= (q - w - 1) * kappa(spec, -w - 1)
        state = reference_state(spec)
        for w in reversed(images):
            state = apply_closed_b(spec, w, state)
        coeffs.append(coeff * state.scale)
        states.append(state.entries)
    pref = norm_prefactor(spec, zs)
    c_lhs, *c_terms = _integer_coefficients(lhs.scale, *(pref * c for c in coeffs))
    return _combine((c_lhs, lhs.entries)) == _combine(*zip(c_terms, states))


def two_reflection_sum(q, zi, zj) -> Fraction:
    """Reflection sum of boundary factors against the closed k coefficient;
    vanishes identically in (q, z_i, z_j)."""
    q, zi, zj = rational(q, "q"), rational(zi, "zi"), rational(zj, "zj")
    total = _F0
    for bi in (0, 1):
        for bj in (0, 1):
            wi = -zi - 1 if bi else zi
            wj = -zj - 1 if bj else zj
            sign = _F1 if (bi + bj) % 2 == 0 else -_F1
            total += sign * (q - wi - 1) * (q - wj - 1) * k_closed(wi, -wj - 1)
    return total

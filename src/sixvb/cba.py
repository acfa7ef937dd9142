"""Coordinate representation of the open-chain Bethe vectors.

The wave function is a sum over all root permutations and root reflections
(z -> -z - 1) of an amplitude factor times one wave factor per magnon
position.  The amplitude is a product of pair factors, so the 2^N * N! terms
are summed by a subset DP over the 3^N partial states (roots placed, their
reflections), taking the positions in increasing order.  The DP runs on
Python ints: each wave factor and each pair factor is scaled by its own
denominators (those of its root, of the inhomogeneities and of q), and
since every term holds each root once and each root pair once, one exact
integer ``WaveEngine.denominator``, common to all terms, turns the DP total
back into the wave sum.  Evaluating it at the canonical roots and the
positions read off an external configuration reproduces the partition
function up to an explicit sign.  The translation identities between this
picture and the creation-operator one (creation-block expansion over
single-row blocks, reflection-sum expansion of the state) are verified here
as exact identities of integer vectors."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import PoleError
from .exact import rational
from .lattice import LatticeSpec, ice_indices, magnon_sites
from .monodromy import (
    QuantumState,
    _basis,
    _combine,
    _double_row_kernel,
    _integer_coefficients,
    _row_kernel,
    reference_state,
)

_F1 = Fraction(1)


def _scaled_h(a: int, da: int, b: int, db: int) -> int:
    """h(x, y) = (x - y)(x + y + 1) at x = a/da, y = b/db, times (da db)^2."""
    return (a * db - b * da) * (a * db + b * da + da * db)


def _wave_column(big_w: int, dw: int, v: Sequence[Fraction], q: Fraction) -> list:
    """Phi(W/d, x) of ``WaveEngine`` at the sites x = 1..len(v), from prefix
    and suffix products."""
    q_num, e_q = q.numerator, q.denominator
    lead = q_num * dw - big_w * e_q - e_q * dw
    if len(v) % 2:
        lead = -lead
    for vj in v:
        lead *= big_w * vj.denominator + vj.numerator * dw
    after = [1] * len(v)  # entry j: prod over the sites past site j + 1
    for j in range(len(v) - 1, 0, -1):
        after[j - 1] = after[j] * (big_w * v[j].denominator - v[j].numerator * dw)
    column = []
    for vj, rest in zip(v, after):
        ej = vj.denominator
        column.append(lead * rest * ej)
        lead *= big_w * ej - vj.numerator * dw + dw * ej
    return column


class WaveEngine:
    """The reflection-and-permutation wave sum, evaluated as a subset DP on ints.

    The sum runs over the 2^m reflections and m! orderings of the roots: a
    term assigns the images w_1..w_m of an ordering to the positions
    x_1 < ... < x_m and is (-1)^{reflections} amplitude(w) prod_i
    phi(w_i, x_i).  Taking the positions in increasing order, a DP state is
    the set of images placed so far, a bitmask over the 2m images
    (z_k, -z_k - 1) with at most one image per root, so there are 3^m
    states.  Placing image b at site x multiplies by Phi(b, x) and by
    (-1)^{b reflected} prod_{a placed} g(a, b); that second factor does not
    depend on the positions and is cached per (state, b).

    Every factor is an int, scaled by its own denominators.  With
    z_k = Z_k/d_k, both images (Z_k/d_k and (-Z_k - d_k)/d_k) share d_k;
    with v_j = V_j/e_j and q = Q/e_q, the wave table holds, for an image
    w = W/d at every site x,

        Phi(w, x) = (-1)^L (Q d - W e_q - e_q d) prod_j (W e_j + V_j d)
                    prod_{j<x} (W e_j - V_j d + d e_j)
                    prod_{j>x} (W e_j - V_j d) e_x
                  = phi(w, x) e_q d^{2L} prod_j e_j^2,

    built once from prefix and suffix products.  The pair factor is
    f(a, b) = h(a + 1, b) / h(a, b) with h(a, b) = (a - b)(a + b + 1).  For
    images a = A/d_k and b = B/d_l of roots k != l, h(a, b) (d_k d_l)^2 is
    c_kl for k < l and -c_kl for k > l, whichever images they are, with
    c_kl = (Z_k d_l - Z_l d_k)(Z_k d_l + Z_l d_k + d_k d_l); so
    f(a, b) = g(a, b) / c_kl with the integer
    g(a, b) = +-(A d_l - B d_k + d_k d_l)(A d_l + B d_k + 2 d_k d_l).  Each
    term holds every root once and every root pair once, so the DP total T
    at a position set is the wave sum times the one integer

        denominator = prod_{k<l} c_kl (e_q prod_j e_j^2)^m prod_k d_k^{2L}.

    A pole (some c_kl = 0) raises at construction.  Terms with a vanishing
    wave factor are skipped: at the canonical roots many wave factors
    vanish, which prunes the states reached.  The engine keeps the DP
    levels of the last position set it evaluated, so a set resumes from the
    level of its common prefix with that one: sets met in lexicographic
    order walk their prefix trie depth first.
    """

    def __init__(self, v: Sequence, roots: Sequence, q):
        self.v = tuple(rational(x, "inhomogeneity") for x in v)
        self.roots = tuple(rational(z, "root") for z in roots)
        self.q = rational(q, "q")
        m = len(self.roots)
        d = [z.denominator for z in self.roots]
        # image 2k is z_k and image 2k + 1 its reflection -z_k - 1, both over d_k
        nums = [w for z in self.roots for w in (z.numerator, -z.numerator - z.denominator)]
        pairs = 1  # prod_{k<l} c_kl
        for k, l in itertools.combinations(range(m), 2):
            c = _scaled_h(nums[2 * k], d[k], nums[2 * l], d[l])
            if not c:
                raise PoleError(
                    f"amplitude pole for the root pair ({self.roots[k]}, {self.roots[l]})"
                )
            pairs *= c
        self._pair = [[None] * (2 * m) for _ in range(2 * m)]
        for a, b in itertools.permutations(range(2 * m), 2):
            k, l = a >> 1, b >> 1
            if k != l:
                g = _scaled_h(nums[a] + d[k], d[k], nums[b], d[l])
                self._pair[a][b] = g if k < l else -g
        # row x - 1 holds Phi at site x for every image
        self._phi = tuple(
            zip(*(_wave_column(nums[w], d[w >> 1], self.v, self.q) for w in range(2 * m)))
        )
        sites = self.q.denominator * math.prod(x.denominator ** 2 for x in self.v)
        self.denominator = (
            pairs * sites ** m * math.prod(dk ** (2 * len(self.v)) for dk in d)
        )
        self._steps: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._prefix: Tuple[int, ...] = ()
        self._levels = [{0: 1}]

    def _steps_from(self, state: int) -> Tuple[Tuple[int, int], ...]:
        """(b, (-1)^{b reflected} prod_{a in state} g(a, b)) for every image b
        of a root not yet placed."""
        steps = self._steps.get(state)
        if steps is None:
            placed = [a for a in range(len(self._pair)) if state >> a & 1]
            steps = []
            for b in range(len(self._pair)):
                if state >> (b & ~1) & 3:
                    continue
                factor = -1 if b & 1 else 1
                for a in placed:
                    factor *= self._pair[a][b]
                steps.append((b, factor))
            steps = self._steps[state] = tuple(steps)
        return steps

    def _advance(self, level: Dict[int, int], site: int) -> Dict[int, int]:
        """The DP level after placing one more image at ``site``."""
        phi = self._phi[site - 1]
        out: Dict[int, int] = {}
        for state, value in level.items():
            for b, factor in self._steps_from(state):
                if not phi[b]:
                    continue
                term = value * factor * phi[b]
                key = state | 1 << b
                out[key] = out[key] + term if key in out else term
        return out

    def total(self, positions: Sequence[int]) -> int:
        """The wave sum at the given positions times ``denominator``."""
        x = tuple(positions)
        if any(type(p) is not int for p in x):
            raise ValueError(f"magnon positions must be integers, got {x}")
        if len(x) != len(self.roots):
            raise ValueError(
                f"need {len(self.roots)} magnon positions, got {len(x)}"
            )
        if any(a >= b for a, b in zip(x, x[1:])):
            raise ValueError("magnon positions must be strictly increasing")
        if x and not (1 <= x[0] and x[-1] <= len(self.v)):
            raise ValueError(f"magnon positions must lie in 1..{len(self.v)}")
        return self._total(x)

    def _total(self, x: Tuple[int, ...]) -> int:
        """``total`` at a tuple of positions already known to be valid, as
        the magnon sites of a chain index are."""
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
        return sum(last.values())

    def upsilon(self, positions: Sequence[int]) -> Fraction:
        """The wave sum at the given positions."""
        return Fraction(self.total(positions), self.denominator)


def spec_wave_engine(spec: LatticeSpec) -> WaveEngine:
    """Engine at the canonical roots of an instance."""
    chain = spec.chain
    return WaveEngine(chain.v, chain.roots, chain.q)


def wave_components(spec: LatticeSpec, keys) -> dict:
    """Chain entries ``{index: component}`` of the wave sum at the given
    ice-rule basis indices and at the reference index 0.

    The component at index k is the engine's integer ``total`` at the
    magnon sites of k, the wave sum times the engine's ``denominator``, with
    sign -1 when an odd number of end sites hold label 2.  The engine meets
    the position sets in lexicographic order, so its DP walks their prefix
    trie once.  Zero components are left out.
    """
    return _wave_entries(spec_wave_engine(spec), spec, keys)


def _wave_entries(engine: WaveEngine, spec: LatticeSpec, keys) -> dict:
    mask = spec.chain.ends
    out = {}
    for x, k in sorted((magnon_sites(spec, k), k) for k in {*keys, 0}):
        value = engine._total(x)
        if value:
            out[k] = -value if (k & mask).bit_count() % 2 else value
    return out


def norm_prefactor(roots: Sequence) -> Fraction:
    """prod_i 2 z_i / (2 z_i + 1)."""
    out = _F1
    for z in roots:
        z = rational(z, "root")
        if 2 * z + 1 == 0:
            raise PoleError("normalization pole at root -1/2")
        out *= 2 * z / (2 * z + 1)
    return out


def cba_state(spec: LatticeSpec) -> QuantumState:
    """Assemble the Bethe state at the canonical roots from wave values over
    all position sets.

    The entries are the engine's integer totals over all ice indices and the
    scale is the normalization prefactor over the engine's ``denominator``,
    so the state matches the creation-operator construction exactly.
    """
    engine = spec_wave_engine(spec)
    scale = norm_prefactor(engine.roots) / engine.denominator
    return QuantumState(spec.length, _wave_entries(engine, spec, ice_indices(spec)), scale)


# -- closed-chain exchange and expansion identities ---------------------------

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
    on the whole basis at once.
    """
    x, y = rational(x, "x"), rational(y, "y")
    lhs, h, k = _integer_coefficients(_F1, h_closed(y, x), k_closed(y, x))
    (mx, _), (my, _) = _row_kernel(spec.chain, x, False), _row_kernel(spec.chain, y, False)
    e = _basis(spec.length)
    (ax, _), (bx, _), (ay, _), (by, _) = mx(e, {}), mx({}, e), my(e, {}), my({}, e)
    a_ok = _combine((lhs, mx(by, {})[0])) == _combine((h, my({}, ax)[0]), (-k, mx({}, ay)[0]))
    return mx({}, by)[0] == my({}, bx)[0] and a_ok


def check_b_expansion(spec: LatticeSpec, z) -> bool:
    """Creation block of the double row expanded over single-row blocks.

    Bopen(z) = 2z/(2z+1) [ (q-z-1) B(z) A(-z-1) - (q+z) B(-z-1) A(z) ],
    checked on the whole basis at once.
    """
    z = rational(z, "z")
    if 2 * z + 1 == 0:
        raise PoleError("expansion pole at z = -1/2")
    q = spec.boundary_q
    chain = spec.chain
    (u, s_u), (m_plus, s_plus) = _double_row_kernel(chain, z), _row_kernel(chain, z, False)
    m_minus, s_minus = _row_kernel(chain, -z - 1, False)
    factor = 2 * z / (2 * z + 1) * s_plus * s_minus
    c_u, c_plus, c_minus = _integer_coefficients(s_u, factor * (q - z - 1), -factor * (q + z))
    e = _basis(spec.length)
    (a_plus, _), (a_minus, _) = m_plus(e, {}), m_minus(e, {})
    rhs = _combine((c_plus, m_plus({}, a_minus)[0]), (c_minus, m_minus({}, a_plus)[0]))
    return _combine((c_u, u({}, e)[0])) == rhs


def kappa(spec: LatticeSpec, z) -> Fraction:
    """prod_i (z - v_i + 1) over the chain sites."""
    z = rational(z, "z")
    out = _F1
    for vi in spec.chain.v:
        out *= z - vi + 1
    return out


def check_state_expansion(spec: LatticeSpec, roots: Sequence) -> bool:
    """Bethe state as a reflection sum of single-row creation products.

    psi_m = N_{L,m} sum_tau (-1)^{|tau|} prod_{i<j} h(z_i, -z_j - 1)
            prod_i (q - z_i - 1) kappa(-z_i - 1) B(z_i) |Omega>,
    evaluated over the 2^m reflections of the given (off-shell) roots, each
    term's kernel scales folded into its coefficient.
    """
    from .aba import bethe_state  # deferred: aba imports contraction, not cba

    zs = tuple(rational(z, "root") for z in roots)
    m = len(zs)
    lhs = bethe_state(spec, zs)
    q = spec.boundary_q
    omega = reference_state(spec).entries
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
        vec = omega
        for w in reversed(images):
            apply, scale = _row_kernel(spec.chain, w, False)
            vec, coeff = apply({}, vec)[0], coeff * scale
        coeffs.append(coeff)
        states.append(vec)
    pref = norm_prefactor(zs)
    c_lhs, *c_terms = _integer_coefficients(lhs.scale, *(pref * c for c in coeffs))
    return _combine((c_lhs, lhs.entries)) == _combine(*zip(c_terms, states))


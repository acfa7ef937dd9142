"""Coordinate representation of the open-chain Bethe vectors.

The wave function is a sum over all root permutations and root reflections
(z -> -z - 1) of an amplitude factor times one wave factor per magnon
position.  Evaluating it at the canonical roots and the positions read off
an external configuration reproduces the partition function up to an
explicit sign.  The translation identities between this picture and the
creation-operator one (creation-block expansion over single-row blocks,
reflection-sum expansion of the state) are verified here as exact operator
and state identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import PoleError
from .lattice import (
    BetheRootSet,
    ExternalConfig,
    LatticeSpec,
    canonical_bethe_roots,
    inhomogeneities,
    magnon_positions,
    sweep,
)
from .monodromy import (
    QuantumState,
    apply_closed_b,
    aux_block,
    basis_index,
    double_row,
    reference_state,
    single_row,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class WaveInput:
    """Everything a wave evaluation depends on besides the magnon positions."""

    v: tuple
    roots: tuple
    q: Fraction
    length: int

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(Fraction(x) for x in self.v))
        object.__setattr__(self, "roots", tuple(Fraction(z) for z in self.roots))
        object.__setattr__(self, "q", Fraction(self.q))


def amplitude(ordered_roots: Sequence) -> Fraction:
    """Scattering amplitude of an ordered root tuple.

    prod_{k<l} (z_k - z_l + 1)(z_k + z_l + 2) / ((z_k - z_l)(z_k + z_l + 1)).
    """
    zs = [Fraction(z) for z in ordered_roots]
    out = _F1
    for k in range(len(zs)):
        for l in range(k + 1, len(zs)):
            den = (zs[k] - zs[l]) * (zs[k] + zs[l] + 1)
            if den == 0:
                raise PoleError(
                    f"amplitude pole for roots z_{k + 1}={zs[k]}, z_{l + 1}={zs[l]}"
                )
            out *= (zs[k] - zs[l] + 1) * (zs[k] + zs[l] + 2) / den
    return out


def wave_part(x: int, z, w: WaveInput) -> Fraction:
    """One-magnon wave factor at site x for root value z.

    (-1)^L (q - z - 1) prod_j (z + v_j) prod_{j<x} (z - v_j + 1)
    prod_{j>x} (z - v_j).
    """
    z = Fraction(z)
    sign = _F1 if w.length % 2 == 0 else -_F1
    out = sign * (w.q - z - 1)
    for vj in w.v:
        out *= z + vj
    for j in range(1, x):
        out *= z - w.v[j - 1] + 1
    for j in range(x + 1, w.length + 1):
        out *= z - w.v[j - 1]
    return out


class WaveEngine:
    """Memoized evaluator of the reflection-and-permutation wave sum.

    Wave factors are cached per (root image, site) and amplitudes per
    ordered image tuple, so sweeping many position sets shares almost all
    of the arithmetic.
    """

    def __init__(self, v: Sequence, roots: Sequence, q, length: int):
        self.v = tuple(Fraction(x) for x in v)
        self.roots = tuple(Fraction(z) for z in roots)
        self.q = Fraction(q)
        self.length = length
        self._winput = WaveInput(self.v, self.roots, self.q, self.length)
        self._phi: Dict[Tuple[Fraction, int], Fraction] = {}
        self._amp: Dict[Tuple[Fraction, ...], Fraction] = {}
        self._upsilon: Dict[Tuple[int, ...], Fraction] = {}
        m = len(self.roots)
        self._patterns = []
        for bits in range(1 << m):
            sign = _F1 if bin(bits).count("1") % 2 == 0 else -_F1
            images = tuple(
                -z - 1 if (bits >> i) & 1 else z for i, z in enumerate(self.roots)
            )
            self._patterns.append((sign, images, bits))

    def _phi_at(self, z: Fraction, x: int) -> Fraction:
        key = (z, x)
        val = self._phi.get(key)
        if val is None:
            val = wave_part(x, z, self._winput)
            self._phi[key] = val
        return val

    def _amp_at(self, images: Tuple[Fraction, ...], context: str) -> Fraction:
        val = self._amp.get(images)
        if val is None:
            try:
                val = amplitude(images)
            except PoleError as exc:
                raise PoleError(f"{exc} in term {context}") from exc
            self._amp[images] = val
        return val

    def upsilon(self, positions: Sequence[int]) -> Fraction:
        """The full wave sum over 2^m * m! terms at the given positions."""
        x = tuple(int(p) for p in positions)
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
        total = _F0
        for sign, images, bits in self._patterns:
            for perm in itertools.permutations(images):
                term = self._amp_at(perm, f"(reflections {bits:b}, order {perm})")
                for xi, zi in zip(x, perm):
                    term *= self._phi_at(zi, xi)
                total += sign * term
        self._upsilon[x] = total
        return total


def wave_function(spec: LatticeSpec, roots, x: Sequence[int]) -> Fraction:
    """Wave sum for a lattice instance at explicit roots and positions."""
    zs = roots.roots if isinstance(roots, BetheRootSet) else tuple(Fraction(z) for z in roots)
    engine = WaveEngine(inhomogeneities(spec).values, zs, spec.boundary_q, spec.length)
    return engine.upsilon(tuple(x))


def spec_wave_engine(spec: LatticeSpec) -> WaveEngine:
    """Engine at the canonical roots of an instance."""
    zs = canonical_bethe_roots(spec).roots
    return WaveEngine(inhomogeneities(spec).values, zs, spec.boundary_q, spec.length)


def _beta_sign(config: ExternalConfig) -> Fraction:
    flips = sum(1 for b in config.beta if b == 2)
    return _F1 if flips % 2 == 0 else -_F1


def _wave_component(spec: LatticeSpec):
    engine = spec_wave_engine(spec)
    return lambda config: _beta_sign(config) * engine.upsilon(magnon_positions(spec, config))


def z_cba(spec: LatticeSpec, config: ExternalConfig) -> Fraction:
    """Partition function from the coordinate wave function."""
    return z_cba_table(spec, [config])[0]


def z_cba_table(spec: LatticeSpec, configs: Sequence[ExternalConfig]) -> list:
    """Values for many configs from one shared engine."""
    return sweep(spec, configs, _wave_component)


def norm_prefactor(spec: LatticeSpec, roots: Sequence) -> Fraction:
    """(-1)^{mL} prod_i 2 z_i / (2 z_i + 1)."""
    zs = tuple(Fraction(z) for z in roots)
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
    engine = spec_wave_engine(spec)
    zs = engine.roots
    m = len(zs)
    length = spec.length
    ends = {c.end for c in spec.chords}
    pref = norm_prefactor(spec, zs)
    amps = [_F0] * (1 << length)
    for positions in itertools.combinations(range(1, length + 1), m):
        val = engine.upsilon(positions)
        if val == 0:
            continue
        states = [1] * length
        sign = _F1
        xset = set(positions)
        for s in range(1, length + 1):
            if s in ends:
                # end-site rotation: |1> -> -|2>, |2> -> |1>
                if s in xset:
                    states[s - 1] = 1
                else:
                    states[s - 1] = 2
                    sign = -sign
            elif s in xset:
                states[s - 1] = 2
        amps[basis_index(states)] += pref * sign * val
    return QuantumState(length, tuple(amps))


# -- closed-chain wave function ------------------------------------------------

def closed_wave(v: Sequence, z: Sequence, x: Sequence[int]) -> Fraction:
    """Permutation-only wave sum of the closed chain.

    Amplitude prod_{k<l} (z_k - z_l + 1)/(z_k - z_l); wave factors
    prod_{j<x}(z - v_j + 1) prod_{j>x}(z - v_j).
    """
    vs = tuple(Fraction(t) for t in v)
    zs = tuple(Fraction(t) for t in z)
    xs = tuple(int(p) for p in x)
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
    x, y = Fraction(x), Fraction(y)
    if x == y:
        raise PoleError("closed exchange coefficient pole at x = y")
    return (1 + x - y) / (x - y)


def k_closed(x, y) -> Fraction:
    x, y = Fraction(x), Fraction(y)
    if x == y:
        raise PoleError("closed exchange coefficient pole at x = y")
    return _F1 / (x - y)


def check_closed_fcr(spec: LatticeSpec, x, y) -> bool:
    """Exchange relations of the single-row blocks as exact operator identities.

    [B(x), B(y)] = 0 and A(x)B(y) = h(y,x) B(y)A(x) - k(y,x) B(x)A(y).
    """
    x, y = Fraction(x), Fraction(y)
    mx = single_row(spec, x, hat=False)
    my = single_row(spec, y, hat=False)
    bx, by = aux_block(mx, 0, 1), aux_block(my, 0, 1)
    if bx @ by != by @ bx:
        return False
    ax, ay = aux_block(mx, 0, 0), aux_block(my, 0, 0)
    return ax @ by == (by @ ax).scale(h_closed(y, x)) - (bx @ ay).scale(k_closed(y, x))


def check_b_expansion(spec: LatticeSpec, z) -> bool:
    """Creation block of the double row expanded over single-row blocks.

    Bopen(z) = (-1)^L 2z/(2z+1) [ (q-z-1) B(z) A(-z-1) - (q+z) B(-z-1) A(z) ].
    """
    z = Fraction(z)
    if 2 * z + 1 == 0:
        raise PoleError("expansion pole at z = -1/2")
    q = spec.boundary_q
    lhs = aux_block(double_row(spec, z), 0, 1)
    m_plus = single_row(spec, z, hat=False)
    m_minus = single_row(spec, -z - 1, hat=False)
    combo = (aux_block(m_plus, 0, 1) @ aux_block(m_minus, 0, 0)).scale(q - z - 1) - (
        aux_block(m_minus, 0, 1) @ aux_block(m_plus, 0, 0)
    ).scale(q + z)
    sign = _F1 if spec.length % 2 == 0 else -_F1
    return lhs == combo.scale(sign * 2 * z / (2 * z + 1))


def kappa(spec: LatticeSpec, z) -> Fraction:
    """prod_i (z - v_i + 1) over the chain sites."""
    z = Fraction(z)
    out = _F1
    for vi in inhomogeneities(spec).values:
        out *= z - vi + 1
    return out


def check_state_expansion(spec: LatticeSpec, m: int, roots: Sequence) -> bool:
    """Bethe state as a reflection sum of single-row creation products.

    psi_m = N_{L,m} sum_tau (-1)^{|tau|} prod_{i<j} h(z_i, -z_j - 1)
            prod_i (q - z_i - 1) kappa(-z_i - 1) B(z_i) |Omega>,
    evaluated over the 2^m reflections of the given (off-shell) roots.
    """
    from .aba import bethe_state  # deferred: aba imports contraction, not cba

    zs = tuple(Fraction(z) for z in roots)
    if len(zs) != m:
        raise ValueError(f"need {m} roots")
    lhs = bethe_state(spec, zs)
    q = spec.boundary_q
    length = spec.length
    total = [_F0] * (1 << length)
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
        for idx, a in enumerate(state.amplitudes):
            if a:
                total[idx] += coeff * a
    pref = norm_prefactor(spec, zs)
    rhs = QuantumState(length, tuple(pref * a for a in total))
    return lhs == rhs


def two_reflection_sum(q, zi, zj) -> Fraction:
    """Reflection sum of boundary factors against the closed k coefficient;
    vanishes identically in (q, z_i, z_j)."""
    q, zi, zj = Fraction(q), Fraction(zi), Fraction(zj)
    total = _F0
    for bi in (0, 1):
        for bj in (0, 1):
            wi = -zi - 1 if bi else zi
            wj = -zj - 1 if bj else zj
            sign = _F1 if (bi + bj) % 2 == 0 else -_F1
            total += sign * (q - wi - 1) * (q - wj - 1) * k_closed(wi, -wj - 1)
    return total

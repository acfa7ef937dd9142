"""Dense references for the tests: a dense exact matrix, the local weights
as matrices, kernel-built operators, the dense amplitudes of a state and
the literal wave formulas, and a dict-built JSON form of a run report.

``ExactMatrix`` is an immutable dense matrix of Fractions (a vector is a
one-column matrix).  The local weights are plain ``ExactMatrix``es:
``r_matrix`` and ``k_matrix`` the unit-normalised crossing and reflection
weights, ``lax_matrix`` the unnormalised local factor of a monodromy on
(auxiliary leg, site), ``site_transpose`` its partial transpose in the site
leg and ``embed_pair`` a two-leg operator placed on two legs of a larger
space.  ``line_invariant`` and ``boundary_line_invariant`` are the two-site
invariants of a free and of a reflected line, written out; the library
builds them as ``contraction.initial_invariant`` of a one-line lattice.
The library applies the same weights as one sparse integer site kernel,
``monodromy._lax_column`` (a weave move, ``contraction._apply_move``, is
that step as P L(theta) or P Lbar(theta)), and checks their local
identities there; the tests compare those kernels with these matrices.
Conventions: state labels 1 and 2 are the basis vectors (1, 0) and
(0, 1), and in a tensor product the first factor owns the most
significant index, so the two-leg basis is (1,1), (1,2), (2,1), (2,2).

An operator with an auxiliary leg is one ``ExactMatrix`` of size 2^(L+1) on
(auxiliary leg, chain), the auxiliary leg most significant; ``aux_block``
slices out its chain block (r, c).  ``single_row`` and ``double_row``
assemble that matrix column by column from the site-local kernel of
:mod:`sixvb.monodromy` (its blocks on each basis vector, as
``single_row_on_state`` and ``double_row_on_state`` give them on a state),
so the tests can compare it with explicit products of ``lax_embed``
factors; ``apply_closed_b`` is the single-row creation block on a state.
``dense`` lists the 2^L amplitudes of a sparse state, and ``component`` reads one of
them by its site labels (``basis_index``).  ``S_MATRIX`` is the one-site
similarity S that conjugates the end sites, S^{-1} = -S.  ``wide_spec`` draws lattices
past the six lines that ``random_spec`` covers.

The wave formulas are the per-term definitions behind ``cba.WaveEngine``:
the pair factor and amplitude of an ordered root tuple, the one-magnon wave
factor ``wave_part``, the open-chain wave sum at explicit roots
(``wave_function``, through the engine), the permutation-only sum of the
closed chain (``closed_wave``) and the reflection sum of two boundary
factors against ``cba.k_closed`` (``two_reflection_sum``), which vanishes.

``f_factor`` and ``g_factor`` are one line's factors of the vacuum
eigenvalues Lambda and Xi at its root, written out per line; the library
writes both as products of the Q-function.

``report_dict`` is the JSON form of a ``pipeline.RunReport`` built as a
dict of one new dict per config, the layout that ``json.dumps`` of it gives
and that ``pipeline.report_json`` writes by hand.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from sixvb.cba import WaveEngine, k_closed
from sixvb.errors import PoleError
from sixvb.exact import rational
from sixvb.lattice import LatticeSpec, inhomogeneities
from sixvb.monodromy import QuantumState, _double_row_kernel, _row_kernel
from sixvb.pipeline import MAX_DISAGREEMENTS
from sixvb.sampling import random_pairing, random_q, random_theta

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else rational(x, "matrix entry") for x in row)
            for row in self.entries
        )
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix literal")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(tuple(tuple(_F1 if i == j else _F0 for j in range(n)) for i in range(n)))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return ExactMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = rational(c, "scale factor")
        return ExactMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        rhs = other.entries
        ncols = other.cols
        out = []
        for arow in self.entries:
            acc = [_F0] * ncols
            for k, a in enumerate(arow):
                if a:
                    brow = rhs[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return ExactMatrix(tuple(out))

    def tensor(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; the left factor owns the most significant index.

        Entry (i*n + k, j*m + l) equals A[i, j] * B[k, l] for B of shape n x m.
        """
        rows = []
        for i in range(self.rows):
            for k in range(other.rows):
                rows.append(
                    tuple(
                        self.entries[i][j] * other.entries[k][l]
                        for j in range(self.cols)
                        for l in range(other.cols)
                    )
                )
        return ExactMatrix(tuple(rows))


# -- local weights as matrices --------------------------------------------------

#: Permutation of two legs, P(v (x) w) = w (x) v.
PERMUTATION = ExactMatrix(
    ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
)

#: Two-leg singlet direction, Y^t = (0, +1, -1, 0).
SINGLET_Y = (0, 1, -1, 0)

#: Antisymmetric projector onto the singlet, (1/2)(I - P) = (1/2) Y Y^t.
ANTISYMMETRIZER = ExactMatrix(
    tuple(
        tuple(Fraction(SINGLET_Y[i] * SINGLET_Y[j], 2) for j in range(4))
        for i in range(4)
    )
)


def r_matrix(theta) -> ExactMatrix:
    """Crossing weights (theta + P) / (theta + 1); pole at theta = -1."""
    theta = rational(theta, "theta")
    if theta == -1:
        raise PoleError("crossing weights have a pole at theta = -1")
    d = theta + 1
    t = theta
    return ExactMatrix(
        (
            (_F1, _F0, _F0, _F0),
            (_F0, t / d, _F1 / d, _F0),
            (_F0, _F1 / d, t / d, _F0),
            (_F0, _F0, _F0, _F1),
        )
    )


def k_matrix(theta, q) -> ExactMatrix:
    """Reflection weights for a line of rapidity theta; pole at q + theta = 0."""
    theta, q = rational(theta, "theta"), rational(q, "q")
    if q + theta == 0:
        raise PoleError("reflection weights have a pole at q + theta = 0")
    return ExactMatrix(((_F1, _F0), (_F0, (q - theta) / (q + theta))))


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


def lax_matrix(z, conjugate: bool = False) -> ExactMatrix:
    """Unnormalized local block on (auxiliary leg, site leg) as a 4x4 matrix.

    Plain form: z*I + P.  Conjugate form: (z+1)*I - K where K has unit
    entries exactly at rows (a,a) and columns (b,b).
    """
    z = rational(z, "z")
    if not conjugate:
        return ExactMatrix.identity(4).scale(z) + PERMUTATION
    k = [[_F0] * 4 for _ in range(4)]
    for i in (0, 3):
        for j in (0, 3):
            k[i][j] = _F1
    return ExactMatrix.identity(4).scale(z + 1) - ExactMatrix(tuple(tuple(r) for r in k))


def site_transpose(matrix: ExactMatrix) -> ExactMatrix:
    """Partial transpose of a two-leg 4x4 operator in its second (site) leg."""
    out = [[_F0] * 4 for _ in range(4)]
    for a in range(2):
        for s in range(2):
            for b in range(2):
                for t in range(2):
                    out[2 * a + t][2 * b + s] = matrix[2 * a + s, 2 * b + t]
    return ExactMatrix(tuple(tuple(r) for r in out))


def embed_pair(matrix: ExactMatrix, nlegs: int, legs: tuple) -> ExactMatrix:
    """Embed a two-leg 4x4 operator into an ``nlegs``-leg space (leg 0 highest)."""
    i, j = legs
    dim = 1 << nlegs
    bi, bj = nlegs - 1 - i, nlegs - 1 - j
    rest_mask = (dim - 1) ^ (1 << bi) ^ (1 << bj)
    out = [[_F0] * dim for _ in range(dim)]
    for row in range(dim):
        a = ((row >> bi) & 1) * 2 + ((row >> bj) & 1)
        base = row & rest_mask
        for ap in range(2):
            for bp in range(2):
                val = matrix[a, 2 * ap + bp]
                if val:
                    col = base | (ap << bi) | (bp << bj)
                    out[row][col] = val
    return ExactMatrix(tuple(tuple(r) for r in out))


# -- kernel-built operators and dense states -----------------------------------

#: Similarity matrix exchanging a representation with its conjugate at one site.
S_MATRIX = ExactMatrix(((0, 1), (-1, 0)))


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


def single_row_on_state(spec: LatticeSpec, z, hat: bool, state: QuantumState):
    """Blocks of the conjugated single-row product applied to a state.

    Returns a 2x2 nested list ``phi`` with ``phi[r][c]`` the chain vector
    block(r+1, c+1) |state>, from the two auxiliary columns (v, 0), (0, v).
    """
    apply, f = _row_kernel(spec.chain, z, hat)
    (av, cv), (bv, dv) = apply(state.entries, {}), apply({}, state.entries)
    return [
        [QuantumState(state.length, x, state.scale * f) for x in (av, bv)],
        [QuantumState(state.length, x, state.scale * f) for x in (cv, dv)],
    ]


def double_row_on_state(spec: LatticeSpec, z, state: QuantumState):
    """Blocks of the double-row monodromy applied to a state: the 2x2 nested
    list ``[[A v, B v], [C v, D v]]`` from the two auxiliary columns (v, 0)
    and (0, v)."""
    apply, f = _double_row_kernel(spec.chain, z)
    cols = apply(state.entries, {}), apply({}, state.entries)  # cols[c][r]: block (r, c) v
    return [[QuantumState(state.length, cols[c][r], state.scale * f) for c in (0, 1)] for r in (0, 1)]


def apply_closed_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the closed-chain (single-row) creation block to a state."""
    apply, f = _row_kernel(spec.chain, z, False)
    return QuantumState(spec.length, apply({}, state.entries)[0], state.scale * f)


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


# -- literal wave formulas -----------------------------------------------------

def pair_factor(a, b) -> Fraction:
    """Amplitude factor of root a ordered before root b.

    (a - b + 1)(a + b + 2) / ((a - b)(a + b + 1)).
    """
    a, b = rational(a, "a"), rational(b, "b")
    den = (a - b) * (a + b + 1)
    if den == 0:
        raise PoleError(f"amplitude pole for the root pair ({a}, {b})")
    return (a - b + 1) * (a + b + 2) / den


def amplitude(ordered_roots) -> Fraction:
    """Scattering amplitude of an ordered root tuple: prod_{k<l} f(z_k, z_l)
    with f the ``pair_factor``."""
    zs = list(ordered_roots)
    out = _F1
    for k, a in enumerate(zs):
        for b in zs[k + 1:]:
            out *= pair_factor(a, b)
    return out


def wave_part(x: int, z, v, q) -> Fraction:
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


def wave_function(spec: LatticeSpec, roots, x) -> Fraction:
    """Wave sum for a lattice instance at explicit roots and positions."""
    engine = WaveEngine(inhomogeneities(spec), roots, spec.boundary_q)
    return engine.upsilon(tuple(x))


def closed_wave(v, z, x) -> Fraction:
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


# -- per-line vacuum eigenvalue factors ----------------------------------------

def f_factor(z, theta) -> Fraction:
    """One line's factor of Lambda(z) at root theta, written out."""
    z, theta = rational(z, "z"), rational(theta, "theta")
    return (z - theta - 1) * (z - theta + 1) * (z + theta) * (z + theta + 2)


def g_factor(z, theta) -> Fraction:
    """One line's factor of Xi(z) at root theta, written out."""
    z, theta = rational(z, "z"), rational(theta, "theta")
    return (z - theta) * (z - theta + 1) * (z + theta + 1) * (z + theta + 2)


def report_dict(report) -> dict:
    """A report as one dict: a row per config holds its labels as lists and
    ``z``, the values as ``{method: "p/q"}`` in report order (zero is "0").
    When the methods disagree it also lists the first
    ``MAX_DISAGREEMENTS`` rows whose values differ."""
    rows = [
        {
            "alpha": list(c.alpha),
            "beta": list(c.beta),
            "z": {m: str(report.values[m][i]) for m in report.methods},
        }
        for i, c in enumerate(report.configs)
    ]
    out = {
        "spec_digest": report.spec_digest,
        "methods": list(report.methods),
        "configs": rows,
        "agreement": report.agreement,
        "timings_s": {m: report.timings[m] for m in report.methods},
    }
    if not report.agreement:
        out["disagreements"] = [row for row in rows if len(set(row["z"].values())) > 1][
            :MAX_DISAGREEMENTS
        ]
    return out

"""Chain-space operators for the open chain with a reflecting end.

The chain has L = 2N sites, an even number, so every sign (-1)^L of the
general crossing, expansion and normalisation formulas is 1 here and is left
out.  Site 1 owns the most significant position, so a product basis state
(s_1, ..., s_L) with s_i in {1, 2} sits at index ``sum((s_i - 1) << (L - i))``.
An operator with an auxiliary leg has four chain blocks (r, c): (0,0) the A
block, (0,1) the creation block B, (1,0) the annihilation block C and (1,1)
the D block.

Every local factor of a monodromy touches one site only, so one primitive,
a row product on one auxiliary column (a, b) of chain vectors, carries every
monodromy action.  Its kernels are built by ``_row_kernel`` (M or Mhat) and
``_double_row_kernel`` (M K Mhat) from a lattice's ``Chain``, and compute
the site integers once per (chain, z).  A kernel is the pair (apply,
scale): ``apply(a, b)`` returns both rows (a', b') of the integer product,
and the row itself is scale times that.  A creation operator is the top row of the column (0, v), the
four blocks on a state come from the columns (v, 0) and (0, v), and every
operator identity applies each side once to ``_basis``, every basis vector
e_j at once with its copy j on spectator bits that no kernel touches.  The
local identities of one site factor (unitarity, transpose, bootstrap and
special points) run the site step ``_lax_column`` itself on the four basis
columns of one site, labelled the same way.  A weave move of
:mod:`sixvb.contraction` is this step too, as P L(theta) or P Lbar(theta).

The primitive is fraction-free and sparse.  A chain vector is a
:class:`QuantumState`: a dict from index to nonzero ``int`` and one exact
``Fraction`` scale, the pair the kernels take and return, so a kernel
result is a state as it stands.  With D the lcm of the denominator of z
and the chain's ``d``, that of the inhomogeneities and q, a site factor
with weights w, w+1 and 1 enters as the integers D w, D w + D and D over
their gcd g, and the boundary as (D q + D z, D q - D z) over theirs; a
kernel's scale is the product of the g over D^k, for its k factors.
The monodromy conserves the magnon count, so a column stays in few charge
sectors and only their amplitudes are ever stored.  The identities, the
state identities of :mod:`sixvb.aba` and :mod:`sixvb.cba` too, are compared
as integer vectors: the rational coefficients of one identity, scales
included, are brought to ints by one common positive factor
(``_integer_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import PoleError
from .exact import _strict, rational
from .lattice import Chain, ExternalConfig, LatticeSpec, config_index, q_function

_F1 = Fraction(1)


@dataclass(frozen=True)
class QuantumState:
    """Exact vector over the 2^L chain space: ``scale`` times an integer vector.

    ``entries`` maps a basis index to an int or Fraction amplitude.  The
    constructor moves the denominators and the content gcd into ``scale``
    and makes it positive, so afterwards ``entries`` holds the nonzero
    amplitudes as coprime ints and equal vectors have equal fields; the
    zero vector is ``{}`` with scale 1.  The kernels read and write this
    pair directly.
    """

    length: int
    entries: dict
    scale: Fraction = 1

    def __post_init__(self):
        length = _strict(self.length, (int,), "chain length")
        if length < 0:
            raise ValueError(f"chain length must be non-negative, got {length}")
        den, ints = 1, True
        for i, x in _strict(self.entries, (dict,), "state entries").items():
            if _strict(i, (int,), "basis index") < 0 or i >> length:
                raise ValueError(f"basis index {i} out of range for {length} sites")
            if type(x) is not int:
                den, ints = lcm(den, rational(x, "amplitude").denominator), False
        if ints:  # a kernel's output: nothing to bring to ints
            vec = {i: x for i, x in self.entries.items() if x}
        else:
            vec = {i: x.numerator * (den // x.denominator) for i, x in self.entries.items() if x}
        scale = rational(self.scale, "scale") / den
        if not vec or not scale:
            vec, scale = {}, _F1
        else:
            g = gcd(*vec.values()) if scale > 0 else -gcd(*vec.values())
            if g != 1:
                vec = {i: x // g for i, x in vec.items()}
                scale *= g
        object.__setattr__(self, "entries", vec)
        object.__setattr__(self, "scale", scale)

    def is_zero(self) -> bool:
        return not self.entries


# -- eigenvalue functions -----------------------------------------------------

def xi_value(spec: LatticeSpec, z) -> Fraction:
    """Xi(z) = Q(z) Q(z+1): the reference state's A-block eigenvalue over (q+z)."""
    z = rational(z, "z")
    return q_function(spec, z) * q_function(spec, z + 1)


def lambda_value(spec: LatticeSpec, z) -> Fraction:
    """Lambda(z) = Q(z-1) Q(z+1): the canonical Bethe state's A-block eigenvalue over (q+z)."""
    z = rational(z, "z")
    return q_function(spec, z - 1) * q_function(spec, z + 1)


def vacuum_eigenvalues(spec: LatticeSpec, z) -> tuple:
    """Eigenvalues (alpha, dtilde) of the diagonal blocks on the reference state.

    alpha(z) = (q+z) Xi(z) and dtilde(z) = 2z/(2z+1) (q-z-1) Xi(z-1); the
    shifted D block has a pole at z = -1/2.
    """
    z = rational(z, "z")
    if 2 * z + 1 == 0:
        raise PoleError("shifted D block has a pole at z = -1/2")
    q = spec.boundary_q
    return (q + z) * xi_value(spec, z), 2 * z / (2 * z + 1) * (q - z - 1) * xi_value(spec, z - 1)


# -- reference state ----------------------------------------------------------

def reference_state(spec: LatticeSpec) -> QuantumState:
    """End-point-rotated all-1 product state: state 2 at every end site.

    Each end-site rotation sends |1> to -|2>, so the overall sign is (-1)^N.
    """
    return QuantumState(spec.length, {spec.chain.ends: 1 if spec.n % 2 == 0 else -1})


# -- sparse integer kernel ----------------------------------------------------

def _lax_column(a, b, mask, w, d, conjugate):
    """Apply d times one local factor to an integer column (a, b).

    The factor's weights are w/d, w/d + 1 and 1, so its entries scaled by d
    are the integers w, w + d and d; ``mask`` is the bit of the site.  An
    entry of a whose site bit is ``pair`` mixes with the entry of b at the
    partner index (site bit flipped) by [[w, e], [e, w]]; every other entry
    is multiplied by w + d.  Each output entry is formed once, and only the
    entries that can vanish (a mixed pair, or a product with w or w + d
    zero) are tested for zero.
    """
    wd = w + d
    pair, e = (0, -d) if conjugate else (mask, d)
    a2, b2 = {}, {}
    for i, x in a.items():
        if i & mask != pair:
            if wd:
                a2[i] = wd * x
            continue
        j = i ^ mask
        y = b.get(j)
        if y is None:
            if w:
                a2[i] = w * x
            b2[j] = e * x
        else:
            u, v = w * x + e * y, w * y + e * x
            if u:
                a2[i] = u
            if v:
                b2[j] = v
    for j, y in b.items():
        if j & mask == pair:
            if wd:
                b2[j] = wd * y
        elif j ^ mask not in a:
            if w:
                b2[j] = w * y
            a2[j ^ mask] = e * y
    return a2, b2


def _scaled(x: Fraction, d: int) -> int:
    """The integer x d, for d a multiple of the denominator of x."""
    return x.numerator * (d // x.denominator)


def _site_weights(chain: Chain, zd: int, d: int, hat: bool) -> tuple:
    """(mask, w, e, conjugate) for each site of the chain in the row's
    order, the end sites (``chain.ends``) conjugate.  The site's weight
    scaled by d is W = zd + v d in Mhat and zd - v d in M, v its
    inhomogeneity; (w, e) is (W, d) over their gcd, so the site step
    applies e times the factor and the row is 1 / (the product of the e)
    times the steps."""
    length, v, ends = chain.length, chain.v, chain.ends
    order = range(1, length + 1) if hat else range(length, 0, -1)
    sign = 1 if hat else -1
    sites = []
    for s in order:
        w = zd + sign * _scaled(v[s - 1], d)
        g = gcd(w, d)
        sites.append((1 << (length - s), w // g, d // g, bool(ends >> (length - s) & 1)))
    return tuple(sites)


def _run_sites(a, b, sites):
    for mask, w, e, conjugate in sites:
        a, b = _lax_column(a, b, mask, w, e, conjugate)
    return a, b


def _row_kernel(chain: Chain, z, hat: bool):
    """The one-column kernel of the conjugated single row M, or Mhat when ``hat``.

    Returns (apply, f), both fixed per (chain, z): the row applied to an
    integer column (a, b) is f times the integer column ``apply(a, b)``.
    """
    z = rational(z, "z")
    d = lcm(z.denominator, chain.d)
    sites = _site_weights(chain, _scaled(z, d), d, hat)
    return (lambda a, b: _run_sites(a, b, sites)), Fraction(1, prod(s[2] for s in sites))


def _double_row_kernel(chain: Chain, z):
    """The one-column kernel of the double row M K Mhat, as :func:`_row_kernel`.

    The boundary enters as the integers (Q + Z, Q - Z) over their gcd g, the
    boundary parameter and z scaled by d, and g / d goes into the scale.
    """
    z = rational(z, "z")
    d = lcm(z.denominator, chain.d)
    qd, zd = _scaled(chain.q, d), _scaled(z, d)
    hat_sites, sites = _site_weights(chain, zd, d, True), _site_weights(chain, zd, d, False)
    g = gcd(qd + zd, qd - zd)  # not 0: a valid spec has q != 0
    top, bottom = (qd + zd) // g, (qd - zd) // g

    def apply(a, b):
        a, b = _run_sites(a, b, hat_sites)
        a = {i: top * x for i, x in a.items()} if top else {}
        b = {i: bottom * y for i, y in b.items()} if bottom else {}
        return _run_sites(a, b, sites)

    return apply, Fraction(g, d * prod(s[2] for s in hat_sites + sites))


def apply_open_b(spec: LatticeSpec, z, state: QuantumState) -> QuantumState:
    """Apply the open-chain creation operator at parameter z to a state.

    Only the second auxiliary column feeds block (1, 2), so one column is
    tracked.
    """
    apply, f = _double_row_kernel(spec.chain, z)
    return QuantumState(spec.length, apply({}, state.entries)[0], state.scale * f)


# -- operator identities, on the whole basis at once ---------------------------
#
# Where every term of an identity holds one block of each of two monodromies,
# the kernel scales multiply all terms alike and are left out.

def _basis(length: int, tag: int = 0) -> dict:
    """Every basis vector at once: sum_j e_j (x) e_j with the copy of j on
    spectator bits above the chain, and ``tag`` above those.  No kernel
    (site s is bit L - s), ``_combine`` or R mixes two copies, so the
    entries of an image with copy j are the image of e_j alone."""
    return {(tag << length | j) << length | j: 1 for j in range(1 << length)}


def _combine(*terms) -> dict:
    """The sparse vector sum(c * vec) over the pairs (c, vec), zeros dropped."""
    out = {}
    for c, vec in terms:
        for i, x in vec.items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _integer_coefficients(*coeffs) -> tuple:
    """The rational coefficients of one identity times the lcm of their denominators.

    Every term is scaled by the same positive integer, so the identity holds
    with the returned ints iff it holds with ``coeffs``.
    """
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs)


def check_crossing(spec: LatticeSpec, z) -> bool:
    """The two single-row products are auxiliary transposes of each other.

    Mhat(z)^{t_a} = S M(-z-1) S^{-1} with the transpose and the similarity
    both taken in the auxiliary space; S^{-1} = -S.  Block by block:
    Mhat_{rc} = +-M_{1-c,1-r}, + on the diagonal, - off it.
    """
    z = rational(z, "z")
    chain = spec.chain
    (hat, s_hat), (m, s_m) = _row_kernel(chain, z, True), _row_kernel(chain, -z - 1, False)
    c_hat, c_m = _integer_coefficients(s_hat, s_m)
    e = _basis(spec.length)
    hat_cols, m_cols = (hat(e, {}), hat({}, e)), (m(e, {}), m({}, e))  # [c][r]: block (r, c) e
    return all(
        _combine((c_hat, hat_cols[c][r]))
        == _combine((c_m if r == c else -c_m, m_cols[1 - r][1 - c]))
        for r in (0, 1)
        for c in (0, 1)
    )


# A vector on (aux leg 1, aux leg 2, chain) is four chain vectors indexed
# 2 a1 + a2; leg 1 pairs the slots (0, 2) and (1, 3), leg 2 (0, 1) and (2, 3).
_LEG_1, _LEG_2 = ((0, 2), (1, 3)), ((0, 1), (2, 3))


def _on_pairs(u, pairs):
    """The map that applies the column map ``u`` to the auxiliary column
    (vecs[s], vecs[t]) of each slot pair (s, t) of a four-slot vector."""
    def act(vecs):
        out = list(vecs)
        for s, t in pairs:
            if vecs[s] or vecs[t]:
                out[s], out[t] = u(vecs[s], vecs[t])
        return out
    return act


def _r_rows(theta) -> list:
    """The crossing weights R(theta) = (theta + P)/(theta + 1) on the basis
    2 a1 + a2, times D (theta + 1) with D the denominator of theta: rows of
    the integers Theta + D, Theta and D.  Pole at theta = -1."""
    theta = rational(theta, "theta")
    if theta == -1:
        raise PoleError("crossing weights have a pole at theta = -1")
    t, d = theta.numerator, theta.denominator
    return [[t + d, 0, 0, 0], [0, t, d, 0], [0, d, t, 0], [0, 0, 0, t + d]]


def check_reflection_algebra(spec: LatticeSpec, x, y) -> bool:
    """Exchange identity of the double-row monodromy on two auxiliary legs.

    R(x-y) U1(x) R(x+y) U2(y) = U2(y) R(x+y) U1(x) R(x-y) on the space
    (aux leg 1, aux leg 2, chain), a vector there being four chain vectors;
    each side is applied once to the whole basis, slot k holding
    ``_basis(L, k)``: the tag k keeps the slots' copies apart.  Each side
    holds one copy of each R, so the nonzero factors of ``_r_rows`` cancel.
    """
    x, y = rational(x, "x"), rational(y, "y")
    rm, rp = _r_rows(x - y), _r_rows(x + y)
    (u1, _), (u2, _) = _double_row_kernel(spec.chain, x), _double_row_kernel(spec.chain, y)

    def r_on(r, vecs):
        return [_combine(*((r[k][l], vecs[l]) for l in range(4) if r[k][l])) for k in range(4)]

    u1_on, u2_on = _on_pairs(u1, _LEG_1), _on_pairs(u2, _LEG_2)
    e = [_basis(spec.length, slot) for slot in range(4)]
    return r_on(rm, u1_on(r_on(rp, u2_on(e)))) == u2_on(r_on(rp, u1_on(r_on(rm, e))))


# -- local identities, one site factor -----------------------------------------
#
# Each runs ``_lax_column`` on one site (mask 1) with d the denominator of z,
# on the four basis columns of (auxiliary leg, site) at once: the column
# k = 2 a + s is site state s in row a with copy k, so row a is _basis(1, a).

_LOCAL_BASIS = _basis(1), _basis(1, 1)


def _times(c: int, vecs) -> list:
    """Each integer vector of ``vecs`` times c, zeros dropped."""
    return [{i: c * x for i, x in vec.items()} if c else {} for vec in vecs]


def check_unitarity(z) -> bool:
    """L(z) L(-z) = (1 - z^2) I for both the plain and the conjugate local factor."""
    z = rational(z, "z")
    zd, d = z.numerator, z.denominator
    e, want = _LOCAL_BASIS, d * d - zd * zd
    return all(
        list(_lax_column(*_lax_column(*e, 1, -zd, d, conj), 1, zd, d, conj)) == _times(want, e)
        for conj in (False, True)
    )


def _local_rows(w: int, d: int, conjugate: bool) -> list:
    """d times the local factor at weight w/d as rows [2a + s][k], read off
    its image of the four basis columns: entry (2a + s, k) sits in row a at
    index k << 1 | s."""
    rows = _lax_column(*_LOCAL_BASIS, 1, w, d, conjugate)
    return [[rows[r >> 1].get(k << 1 | r & 1, 0) for k in range(4)] for r in range(4)]


def check_transpose(z) -> bool:
    """Site-leg transpose identity L^t(z) = -Lbar(-z-1): entry (2a+s, 2b+t) of
    L(z) is minus entry (2a+t, 2b+s) of the conjugate factor at -z-1."""
    z = rational(z, "z")
    zd, d = z.numerator, z.denominator
    plain, conj = _local_rows(zd, d, False), _local_rows(-zd - d, d, True)
    return all(
        plain[r][c] == -conj[(r & 2) | (c & 1)][(c & 2) | (r & 1)]
        for r in range(4)
        for c in range(4)
    )


def check_bootstrap(z) -> bool:
    """Two fused local factors project onto the singlet with scalar (z+1)(z-1).

    On (aux leg 1, aux leg 2, site), carried as four one-site vectors like
    the slots of ``check_reflection_algebra``, the singlet |12> - |21> of
    the two legs times either site state is mapped to (z+1)(z-1) times
    itself by L_1(z) L_2(z-1) and by L_2(z) L_1(z-1); both site states are
    mapped at once, each with its copy as in ``_basis(1)``.
    """
    z = rational(z, "z")
    zd, d = z.numerator, z.denominator

    def leg(pairs, w):
        return _on_pairs(lambda a, b: _lax_column(a, b, 1, w, d, False), pairs)

    singlet = [{}, _basis(1), {i: -1 for i in _basis(1)}, {}]
    want = _times((zd + d) * (zd - d), singlet)
    return all(
        leg(first, zd)(leg(second, zd - d)(singlet)) == want
        for first, second in ((_LEG_1, _LEG_2), (_LEG_2, _LEG_1))
    )


def check_special_points() -> bool:
    """L(0) is the permutation P and L(-1) is -Y Y^t, Y = (0, 1, -1, 0) the
    singlet of (aux leg, site), both as rows [2a + s][2b + t]: P sends
    2b + t to 2t + b."""
    y = (0, 1, -1, 0)
    swap = [[int(c == 2 * (r & 1) + (r >> 1)) for c in range(4)] for r in range(4)]
    singlet = [[-a * b for b in y] for a in y]
    return _local_rows(0, 1, False) == swap and _local_rows(-1, 1, False) == singlet


def external_component(state: QuantumState, spec: LatticeSpec, config: ExternalConfig) -> Fraction:
    """Contraction of a chain state with perimeter labels: alpha at starts, beta at ends."""
    return state.scale * state.entries.get(config_index(spec, config), 0)

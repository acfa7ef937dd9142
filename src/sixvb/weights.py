"""Local Boltzmann weights and exact checkers for the local identities.

Conventions (project-wide):
  * state labels are 1 and 2 with basis vectors |1> = (1,0), |2> = (0,1);
  * in any tensor product the first factor owns the most significant index,
    so the two-leg basis is ordered (1,1), (1,2), (2,1), (2,2);
  * for a single crossing the 4x4 weight matrix acts on (first leg, second
    leg); for the local building blocks of monodromies the first leg is the
    auxiliary space and the second the chain site.

Every weight is a plain :class:`sixvb.exact.ExactMatrix`: ``r_matrix`` and
``k_matrix`` give the unit-normalized crossing and reflection weights used
for partition-function normalization, and ``lax_matrix`` the unnormalized
local block of a monodromy (poles differ between the two, so both are kept
explicitly).  The site-local kernel in :mod:`sixvb.monodromy` applies the
same block site by site, and its dense operators are tested against
``embed_pair(lax_matrix(...))``.  The identity checkers compare matrices;
vectors enter them as columns of a matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError
from .exact import ExactMatrix

_F0 = Fraction(0)
_F1 = Fraction(1)

#: Permutation of two legs, P(v (x) w) = w (x) v.
PERMUTATION = ExactMatrix(
    ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
)

#: Similarity matrix exchanging a representation with its conjugate at one site.
S_MATRIX = ExactMatrix(((0, 1), (-1, 0)))

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
    theta = Fraction(theta)
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
    theta = Fraction(theta)
    q = Fraction(q)
    if q + theta == 0:
        raise PoleError("reflection weights have a pole at q + theta = 0")
    return ExactMatrix(((_F1, _F0), (_F0, (q - theta) / (q + theta))))


def lax_matrix(z, conjugate: bool = False) -> ExactMatrix:
    """Unnormalized local block on (auxiliary leg, site leg) as a 4x4 matrix.

    Plain form: z*I + P.  Conjugate form: (z+1)*I - K where K has unit
    entries exactly at rows (a,a) and columns (b,b).
    """
    z = Fraction(z)
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


def check_ybe(theta1, theta2, theta3) -> bool:
    """Exact crossing-exchange identity on three legs.

    R12(t1-t2) R13(t1-t3) R23(t2-t3) = R23(t2-t3) R13(t1-t3) R12(t1-t2),
    checked as 8x8 matrices.  Raises PoleError when any difference is -1.
    """
    t1, t2, t3 = Fraction(theta1), Fraction(theta2), Fraction(theta3)
    r12 = embed_pair(r_matrix(t1 - t2), 3, (0, 1))
    r13 = embed_pair(r_matrix(t1 - t3), 3, (0, 2))
    r23 = embed_pair(r_matrix(t2 - t3), 3, (1, 2))
    return r12 @ r13 @ r23 == r23 @ r13 @ r12


def check_bybe(theta1, theta2, q) -> bool:
    """Exact reflection-exchange identity on two legs.

    R(t1-t2) K1(t1) R(t1+t2) K2(t2) = K2(t2) R(t1+t2) K1(t1) R(t1-t2).
    """
    t1, t2, q = Fraction(theta1), Fraction(theta2), Fraction(q)
    rm = r_matrix(t1 - t2)
    rp = r_matrix(t1 + t2)
    i2 = ExactMatrix.identity(2)
    k1 = k_matrix(t1, q).tensor(i2)
    k2 = i2.tensor(k_matrix(t2, q))
    return rm @ k1 @ rp @ k2 == k2 @ rp @ k1 @ rm


def check_unitarity(z) -> bool:
    """L(z) L(-z) = (1 - z^2) I for both the plain and conjugate local block."""
    z = Fraction(z)
    want = ExactMatrix.identity(4).scale(1 - z * z)
    plain = lax_matrix(z) @ lax_matrix(-z)
    conj = lax_matrix(z, conjugate=True) @ lax_matrix(-z, conjugate=True)
    return plain == want and conj == want


def check_transpose(z) -> bool:
    """Site-leg transpose identity L^t(z) = -Lbar(-z-1)."""
    z = Fraction(z)
    return site_transpose(lax_matrix(z)) == -lax_matrix(-z - 1, conjugate=True)


def check_bootstrap(z) -> bool:
    """Two fused local blocks project onto the singlet with scalar (z+1)(z-1).

    Both orderings are checked on the three-leg space (two auxiliary legs
    carrying the singlet, one site leg), on the 8x2 matrix whose column c
    is the singlet with the site leg in state c + 1.
    """
    z = Fraction(z)
    scalar = (z + 1) * (z - 1)
    la = embed_pair(lax_matrix(z), 3, (0, 2))
    lb = embed_pair(lax_matrix(z - 1), 3, (1, 2))
    la2 = embed_pair(lax_matrix(z - 1), 3, (0, 2))
    lb2 = embed_pair(lax_matrix(z), 3, (1, 2))
    singlets = ExactMatrix(
        tuple(
            tuple(SINGLET_Y[2 * a + b] if s == c else _F0 for c in range(2))
            for a in range(2)
            for b in range(2)
            for s in range(2)
        )
    )
    want = singlets.scale(scalar)
    return la @ (lb @ singlets) == want and lb2 @ (la2 @ singlets) == want


def check_special_points() -> bool:
    """L(0) is the permutation and L(-1) is -2 times the singlet projector."""
    if lax_matrix(Fraction(0)) != PERMUTATION:
        return False
    if lax_matrix(Fraction(-1)) != ANTISYMMETRIZER.scale(-2):
        return False
    # projector sanity: A^2 = A and -2A = -Y Y^t
    if ANTISYMMETRIZER @ ANTISYMMETRIZER != ANTISYMMETRIZER:
        return False
    yyt = ExactMatrix(
        tuple(tuple(SINGLET_Y[i] * SINGLET_Y[j] for j in range(4)) for i in range(4))
    )
    return ANTISYMMETRIZER.scale(-2) == -yyt

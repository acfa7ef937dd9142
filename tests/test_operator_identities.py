"""The monodromy operator identities on longer chains, and proof that each check can fail.

The draws here are new seeded draws, separate from those of ``sixvb verify``:
the exchange relations, the creation-block expansion and reflection, and the
crossing at L = 6 and at L = 8, the reflection algebra at L = 4 and at
L = 6.  Each mutation breaks one ingredient of an identity, a coefficient or
a kernel, and the check must then return False.  The local identities of
the weights are mutated through the kernels they run: the weave move
``contraction._apply_move``, the one site step ``monodromy._lax_column``
that the move runs as P L(theta) or P Lbar(theta), patched both where
``contraction`` looks it up and in ``monodromy``, and the swap rule
``contraction._swaps`` that gives the planner's moves their arguments.
Every check that ``verify --suite all`` prints has at least one mutation,
so none of its draws passes whatever the code does: the functional
equations through the double-row kernel that ``aba.check_baxter`` reads,
the remainder terms through an exchange coefficient, the three-route
invariance through the eigenvalue Lambda and the double-row kernel it
reads, the state expansion through its coefficients and its single-row
kernel, and the length reduction through its scalar h.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from sixvb import aba, cba, contraction, monodromy, verify
from sixvb.lattice import initial_pairing
from sixvb.sampling import random_positive_pair, random_spec, random_z

from dense_reference import states_proportional

SHIFT = F(1, 7)


def _draw(seed, n):
    rng = random.Random(seed)
    spec = random_spec(rng, n)
    x, y = random_positive_pair(rng)
    return spec, x, y, random_z(rng)


CHECKS = {
    "fcr_open": lambda spec, x, y, z: aba.check_fcr_open(spec, x, y),
    "fcr_closed": lambda spec, x, y, z: cba.check_closed_fcr(spec, x, y),
    "b_expansion": lambda spec, x, y, z: cba.check_b_expansion(spec, z),
    "b_reflection": lambda spec, x, y, z: aba.check_b_reflection(spec, z),
    "crossing": lambda spec, x, y, z: monodromy.check_crossing(spec, z),
    "reflection_algebra": lambda spec, x, y, z: monodromy.check_reflection_algebra(spec, x, y),
    "state_expansion": lambda spec, x, y, z: cba.check_state_expansion(spec, (x, y)),
    "ybe": lambda spec, x, y, z: contraction.check_ybe(x, y, z),
    "bybe": lambda spec, x, y, z: contraction.check_bybe(x, y, spec.boundary_q),
    "unitarity": lambda spec, x, y, z: monodromy.check_unitarity(z),
    "transpose": lambda spec, x, y, z: monodromy.check_transpose(z),
    "bootstrap": lambda spec, x, y, z: monodromy.check_bootstrap(z),
    "special_points": lambda spec, x, y, z: monodromy.check_special_points(),
    "baxter_equations": lambda spec, x, y, z: aba.check_baxter(spec, z),
    "unwanted_terms": lambda spec, x, y, z: (
        all(aba.unwanted_terms(spec, z, k) == (0, 0) for k in range(1, spec.n + 1))
        and aba.unwanted_terms(spec, z, 1, (x, y)) == aba.unwanted_terms_from_fcr(spec, z, 1, (x, y))
    ),
    "invariance_three_routes": lambda spec, x, y, z: all(
        aba.check_invariance(spec, state, z)
        for state in (
            contraction.build_invariant(spec), aba.solve_aba(spec).bethe_state, cba.cba_state(spec)
        )
    ),
    # line 1 moved onto the nested end pair (2N, 2N-1), one extra root
    "length_reduction": lambda spec, x, y, z: aba.check_reduction(
        replace(spec, chords=initial_pairing(spec.n)), (x,)
    ),
}

COLUMN_CHECKS = ["fcr_open", "fcr_closed", "b_expansion", "b_reflection", "crossing"]


@pytest.mark.parametrize("seed", [6101, 6102])
@pytest.mark.parametrize("name", COLUMN_CHECKS)
def test_identity_at_six_sites(name, seed):
    assert CHECKS[name](*_draw(seed, 3))


@pytest.mark.parametrize("name", COLUMN_CHECKS)
def test_identity_at_eight_sites(name):
    assert CHECKS[name](*_draw(813, 4))


@pytest.mark.parametrize("seed, n", [(4101, 2), (4102, 2), (6101, 3), (6102, 3)])
def test_reflection_algebra(seed, n):
    assert CHECKS["reflection_algebra"](*_draw(seed, n))


def _shifted_coefficient(real):
    return lambda *args: real(*args) + SHIFT


def _shifted_double_row_kernel(real):
    return lambda spec, z: real(spec, z + SHIFT)


def _shifted_move(real):  # the crossing argument theta_d / d shifted by 1/d
    return lambda vec, length, p, theta_d, d, one_end: real(vec, length, p, theta_d + 1, d, one_end)


def _shifted_site_step(real):  # the site weight w / d shifted by 1/d
    return lambda a, b, mask, w, d, conjugate: real(a, b, mask, w + 1, d, conjugate)


def _values_stay(real):  # the end flags travel with each swap, the values do not
    def swaps(v, ends, positions):
        ends = list(ends)
        for p in positions:
            yield from real(v, ends, (p,))
            ends[p - 1], ends[p] = ends[p], ends[p - 1]
    return swaps


MUTATIONS = [
    ("fcr_open", aba, "h_a_coeff", _shifted_coefficient),
    ("fcr_open", aba, "g_a_coeff", _shifted_coefficient),
    ("fcr_open", aba, "g_dt_coeff", _shifted_coefficient),
    ("fcr_open", aba, "h_dt_coeff", _shifted_coefficient),
    ("fcr_open", aba, "k_a_coeff", _shifted_coefficient),
    ("fcr_open", aba, "k_dt_coeff", _shifted_coefficient),
    ("fcr_closed", cba, "h_closed", _shifted_coefficient),
    ("fcr_closed", cba, "k_closed", _shifted_coefficient),
    ("state_expansion", cba, "h_closed", _shifted_coefficient),
    ("state_expansion", cba, "kappa", _shifted_coefficient),  # kappa(spec, z) + 1/7
    # each reflection term's single rows at z + 1/7
    ("state_expansion", cba, "_row_kernel",
     lambda real: lambda chain, z, hat: real(chain, z + SHIFT, hat)),
    ("b_expansion", cba, "_double_row_kernel", _shifted_double_row_kernel),
    ("b_reflection", aba, "_double_row_kernel", _shifted_double_row_kernel),
    # the hat row at z + 1/7 against M(-z-1)
    ("crossing", monodromy, "_row_kernel",
     lambda real: lambda spec, z, hat: real(spec, z + SHIFT if hat else z, hat)),
    ("reflection_algebra", monodromy, "_r_rows", lambda real: lambda theta: real(theta + SHIFT)),
    # U1 at x + 1/7 and U2 at y + 1/7 move x + y but not x - y
    ("reflection_algebra", monodromy, "_double_row_kernel", _shifted_double_row_kernel),
    ("ybe", contraction, "_apply_move", _shifted_move),
    ("bybe", contraction, "_apply_move", _shifted_move),
    # the site step as the move kernel looks it up
    ("ybe", contraction, "_lax_column", _shifted_site_step),
    ("bybe", contraction, "_lax_column", _shifted_site_step),
    ("ybe", contraction, "_swaps", _values_stay),
    ("unitarity", monodromy, "_lax_column", _shifted_site_step),
    ("transpose", monodromy, "_lax_column", _shifted_site_step),
    ("bootstrap", monodromy, "_lax_column", _shifted_site_step),
    ("special_points", monodromy, "_lax_column", _shifted_site_step),
    # A(z + 1/7) on the reference state in place of A(z)
    ("baxter_equations", aba, "_double_row_kernel", _shifted_double_row_kernel),
    ("unwanted_terms", aba, "h_a_coeff", _shifted_coefficient),
    ("invariance_three_routes", aba, "lambda_value", _shifted_coefficient),
    # the blocks at z + 1/7 against Lambda(z)
    ("invariance_three_routes", aba, "_double_row_kernel", _shifted_double_row_kernel),
    ("length_reduction", aba, "reduction_factor", _shifted_coefficient),
]


@pytest.mark.parametrize(
    "name, module, member, mutant",
    MUTATIONS,
    ids=[f"{name}-{member}" for name, _, member, _ in MUTATIONS],
)
def test_mutation_makes_the_check_fail(monkeypatch, name, module, member, mutant):
    draw = _draw(2401, 2)
    assert CHECKS[name](*draw)
    monkeypatch.setattr(module, member, mutant(getattr(module, member)))
    assert not CHECKS[name](*draw)


def test_every_verify_check_has_a_mutant():
    """Each check that ``verify --suite all`` prints can be made to fail, so
    a draw that cannot fail does not pass unseen."""
    printed = {result.name for result in verify.run_suites(list(verify.SUITES), 0, 0)}
    assert printed - {name for name, *_ in MUTATIONS} == set()


def test_site_step_mutant_breaks_the_weave(monkeypatch):
    spec = random_spec(random.Random(11), 3)
    bethe = aba.solve_aba(spec).bethe_state
    assert states_proportional(contraction.build_invariant(spec), bethe)
    monkeypatch.setattr(contraction, "_lax_column", _shifted_site_step(contraction._lax_column))
    assert not states_proportional(contraction.build_invariant(spec), bethe)


def test_sign_flipped_swap_rule_breaks_the_weave(monkeypatch):
    """A ``_swaps`` that negates every argument is invisible to ``ybe``: the
    braid relation also holds with every argument negated.  The weave is
    not: its state is then no longer proportional to the creation route's."""
    spec = random_spec(random.Random(11), 3)
    bethe = aba.solve_aba(spec).bethe_state
    assert states_proportional(contraction.build_invariant(spec), bethe)
    real = contraction._swaps
    monkeypatch.setattr(contraction, "_swaps", lambda *a: ((p, -t, e) for p, t, e in real(*a)))
    assert not states_proportional(contraction.build_invariant(spec), bethe)


def _leak_at(real, z0):
    """The kernel factory ``real`` whose kernel at z0 also applies E from
    the b row to the a row (the B block): E e_0 = e_2 and E e_1 = -e_2 on
    the chain bits, the spectator bits kept.  E sums every column to zero,
    so it leaves the image of sum_j e_j unchanged."""
    def factory(chain, z, *hat):
        apply, scale = real(chain, z, *hat)
        mask = (1 << chain.length) - 1

        def leaky(a, b):
            a2, b2 = apply(a, b)
            a2 = dict(a2)
            for k, x in b.items():
                if k & mask in (0, 1):
                    key = k & ~mask | 2
                    a2[key] = a2.get(key, 0) + (x if k & mask == 0 else -x)
            return {k: x for k, x in a2.items() if x}, b2

        return (leaky if z == z0 else apply), scale
    return factory


@pytest.mark.parametrize(
    "name, module, member, at",
    [
        ("crossing", monodromy, "_row_kernel", lambda x, y, z: z),
        ("b_reflection", aba, "_double_row_kernel", lambda x, y, z: z),
        ("reflection_algebra", monodromy, "_double_row_kernel", lambda x, y, z: x),
    ],
)
def test_spectator_copy_sees_a_leak_that_sums_to_zero(monkeypatch, name, module, member, at):
    """A kernel error that sums to zero over the columns leaves the image of
    the plain sum of all basis vectors unchanged, yet each check fails: the
    copy of j on the spectator bits keeps every column apart."""
    spec, x, y, z = draw = _draw(2401, 2)
    assert CHECKS[name](*draw)
    w = at(x, y, z)
    leaky = _leak_at(getattr(module, member), w)
    args = (spec.chain, w, True) if member == "_row_kernel" else (spec.chain, w)
    plain = {j: 1 for j in range(1 << spec.length)}
    real_apply, leaky_apply = getattr(module, member)(*args)[0], leaky(*args)[0]
    assert leaky_apply({}, plain) == real_apply({}, plain)
    assert leaky_apply({}, {0: 1}) != real_apply({}, {0: 1})
    monkeypatch.setattr(module, member, leaky)
    assert not CHECKS[name](*draw)


@pytest.mark.parametrize("r, c", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_invariance_reads_every_block(monkeypatch, r, c):
    """The double-row kernel plus the identity in block (r, c) alone fails
    the three-route invariance check, whichever block that is: the check
    reads B and C, and compares both A and D with their eigenvalues."""
    draw = _draw(2401, 2)
    assert CHECKS["invariance_three_routes"](*draw)
    real = aba._double_row_kernel

    def factory(chain, z):
        apply, scale = real(chain, z)

        def plus_identity(a, b):
            rows = list(apply(a, b))
            rows[r] = monodromy._combine((1, rows[r]), (1, (a, b)[c]))
            return tuple(rows)

        return plus_identity, scale

    monkeypatch.setattr(aba, "_double_row_kernel", factory)
    assert not CHECKS["invariance_three_routes"](*draw)


def test_reflection_algebra_slot_tags_give_disjoint_keys():
    for length in (2, 4, 6):
        slots = [set(monodromy._basis(length, tag)) for tag in range(4)]
        assert all(len(keys) == 1 << length for keys in slots)
        assert len(set().union(*slots)) == 4 << length


def test_integer_coefficients_share_one_positive_factor():
    coeffs = (F(3, 4), F(-5, 6), 0, 7, F(0), F(-2))
    ints = monodromy._integer_coefficients(*coeffs)
    assert ints == (9, -10, 0, 84, 0, -24)
    assert all(type(c) is int for c in ints)
    assert all(c * 12 == i for c, i in zip(coeffs, ints))  # 12 = lcm(4, 6)
    assert monodromy._integer_coefficients(2, F(-3), 0) == (2, -3, 0)
    assert monodromy._integer_coefficients(F(0), 0) == (0, 0)

import random
from fractions import Fraction as F

import pytest

from sixvb.errors import PoleError
from sixvb.exact import ExactMatrix
from sixvb.fixtures import figure_lattice
from sixvb.lattice import Chord, ExternalConfig, LatticeSpec, reference_config
from sixvb import monodromy
from sixvb.monodromy import (
    QuantumState,
    apply_closed_b,
    apply_open_b,
    aux_block,
    basis_index,
    check_crossing,
    check_reflection_algebra,
    double_row,
    double_row_on_state,
    external_component,
    f_factor,
    g_factor,
    lambda_value,
    lax_embed,
    reference_state,
    shifted_d_block,
    single_row,
    single_row_on_state,
    states_proportional,
    vacuum_eigenvalues,
    xi_value,
)
from sixvb.sampling import random_spec, random_z
from sixvb.weights import PERMUTATION, S_MATRIX


def line_spec(reflected=False, theta=F(2, 7), q=F(4, 5)):
    return LatticeSpec(
        chords=(Chord(2, 1),),
        reflected=frozenset({1}) if reflected else frozenset(),
        rapidities=(theta,),
        boundary_q=q,
    )


def crossed_spec(reflected=frozenset(), t1=F(2, 7), t2=F(3, 11), q=F(4, 5)):
    return LatticeSpec(
        chords=(Chord(4, 2), Chord(3, 1)),
        reflected=frozenset(reflected),
        rapidities=(t1, t2),
        boundary_q=q,
    )


class TestBasis:
    def test_index_convention_site_one_most_significant(self):
        assert basis_index((1, 1, 1)) == 0
        assert basis_index((2, 1, 1)) == 4
        assert basis_index((1, 1, 2)) == 1


class TestQuantumState:
    """Amplitudes are kept exact: int becomes Fraction, anything else raises."""

    @pytest.mark.parametrize(
        "amplitudes", [(0.5, "1/3"), ("1", 0), (True, 0)], ids=["float-str", "str", "bool"]
    )
    def test_rejects_non_rational_amplitudes(self, amplitudes):
        with pytest.raises(ValueError):
            QuantumState(1, amplitudes)

    def test_int_amplitudes_become_fractions(self):
        state = QuantumState(1, (1, 0))
        assert state == QuantumState(1, (F(1), F(0)))
        assert all(type(a) is F for a in state.amplitudes)


class TestLaxEmbed:
    def test_plain_at_zero_is_permutation(self):
        op = lax_embed(F(0), 1, 1)
        full = [
            [aux_block(op, r, c)[i, j] for c in range(2) for j in range(2)]
            for r in range(2)
            for i in range(2)
        ]
        assert ExactMatrix(tuple(tuple(row) for row in full)) == PERMUTATION

    def test_block_trace(self):
        z = F(3, 7)
        op = lax_embed(z, 1, 1)
        total = aux_block(op, 0, 0) + aux_block(op, 1, 1)
        assert total == ExactMatrix.identity(2).scale(2 * z + 1)

    def test_creation_block_raises_site_state(self):
        op = lax_embed(F(5, 3), 1, 2)
        b = aux_block(op, 0, 1)  # embeds e_21 at site 1
        vec = [F(0)] * 4
        vec[basis_index((1, 1))] = F(1)
        out = b @ ExactMatrix(tuple((x,) for x in vec))
        assert out[basis_index((2, 1)), 0] == 1

    def test_conjugate_is_similarity_transform(self):
        z = F(2, 7)
        plain = lax_embed(z, 1, 1)
        conj = lax_embed(z, 1, 1, conjugate=True)
        s = S_MATRIX
        s_inv = S_MATRIX.scale(-1)
        for r in range(2):
            for c in range(2):
                assert aux_block(conj, r, c) == s @ aux_block(plain, r, c) @ s_inv

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            lax_embed(F(0), 3, 2)


class TestSingleRow:
    def test_line_monodromy_matches_explicit_product(self):
        # one unreflected line: conjugate factor at site 1, plain at site 2
        spec = line_spec()
        theta = spec.rapidities[0]
        z = F(3, 8)
        m = single_row(spec, z, hat=False)
        explicit = lax_embed(z - theta + 1, 1, 2, conjugate=True) @ lax_embed(z - theta, 2, 2)
        assert m == explicit
        mhat = single_row(spec, z, hat=True)
        explicit_hat = lax_embed(z + theta, 2, 2) @ lax_embed(z + theta - 1, 1, 2, conjugate=True)
        assert mhat == explicit_hat

    def test_annihilation_block_kills_reference(self):
        rng = random.Random(2)
        for _ in range(5):
            spec = random_spec(rng, rng.choice((1, 2)))
            omega = reference_state(spec)
            for hat in (False, True):
                blocks = single_row_on_state(spec, random_z(rng), hat, omega)
                assert blocks[1][0].is_zero()

    def test_half_product_eigenvalues_on_line_invariant(self):
        # the two half-products act diagonally on (1,0,0,1)
        psi = QuantumState(2, (1, 0, 0, 1))
        rng = random.Random(3)
        for _ in range(10):
            theta = F(rng.randint(1, 90), 97)
            z = random_z(rng)
            spec = line_spec(theta=theta)
            up = single_row_on_state(spec, z, True, psi)
            lam_up = (z + theta - 1) * (z + theta + 1)
            assert up[0][0] == psi.scale(lam_up) and up[1][1] == psi.scale(lam_up)
            assert up[0][1].is_zero() and up[1][0].is_zero()
            down = single_row_on_state(spec, z, False, psi)
            lam_down = (z - theta) * (z - theta + 2)
            assert down[0][0] == psi.scale(lam_down) and down[1][1] == psi.scale(lam_down)
            assert down[0][1].is_zero() and down[1][0].is_zero()


def _explicit_row(z, sites, hat):
    """Product of full-chain local factors; ``sites`` lists (v, conjugate) per site."""
    length = len(sites)
    order = range(length, 0, -1) if hat else range(1, length + 1)
    op = None
    for site in order:
        v, conj = sites[site - 1]
        factor = lax_embed(z + v if hat else z - v, site, length, conjugate=conj)
        op = factor if op is None else op @ factor
    return op


T1, T2 = F(2, 7), F(3, 11)
FOUR_SITE_CASES = [
    # crossed (4,2),(3,1), line 2 reflected: end sites 2 and 1 are conjugate
    (
        crossed_spec(frozenset({2}), T1, T2),
        [(-T2 - 1, True), (T1 - 1, True), (T2, False), (T1, False)],
    ),
    # nested (4,3),(2,1), nothing reflected: end sites 3 and 1 are conjugate
    (
        LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset(),
            rapidities=(T1, T2),
            boundary_q=F(4, 5),
        ),
        [(T2 - 1, True), (T2, False), (T1 - 1, True), (T1, False)],
    ),
]


@pytest.mark.parametrize("spec, sites", FOUR_SITE_CASES)
class TestKernelBuiltOperatorsAtFourSites:
    """The dense blocks assembled from the site-local kernel equal the explicit
    product of full-chain local factors."""

    def test_single_rows(self, spec, sites):
        z = F(5, 13)
        for hat in (False, True):
            assert single_row(spec, z, hat) == _explicit_row(z, sites, hat)

    def test_double_row(self, spec, sites):
        z, q = F(2, 9), spec.boundary_q
        boundary = ExactMatrix.diagonal((q + z, q - z)).tensor(ExactMatrix.identity(16))
        explicit = _explicit_row(z, sites, False) @ boundary @ _explicit_row(z, sites, True)
        assert double_row(spec, z) == explicit


class TestCrossing:
    def test_line_case(self):
        assert check_crossing(line_spec(), F(2, 7))

    def test_crossed_case_at_zero(self):
        assert check_crossing(crossed_spec(frozenset({2})), F(0))

    def test_sign_matters(self):
        spec = line_spec()
        z = F(3, 11)
        hat, m = single_row(spec, z, hat=True), single_row(spec, -z - 1, hat=False)
        # the blockwise crossing identity with every sign flipped (L = 2)
        assert not all(
            aux_block(hat, r, c) == aux_block(m, 1 - c, 1 - r).scale(-1 if r == c else 1)
            for r in (0, 1)
            for c in (0, 1)
        )


class TestCreationKernelConsistency:
    """The one-column creation operators equal the (1, 2) block of the full
    block action, on states that are not the reference state."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_equals_block_of_full_action(self, n):
        rng = random.Random(500 + n)
        spec = random_spec(rng, n)
        state = QuantumState(
            2 * n, tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4**n))
        )
        assert state != reference_state(spec) and not state.is_zero()
        for _ in range(2):
            z = random_z(rng)
            assert apply_open_b(spec, z, state) == double_row_on_state(spec, z, state)[0][1]
            assert apply_closed_b(spec, z, state) == single_row_on_state(spec, z, False, state)[0][1]


class TestDoubleRow:
    def test_line_monodromy_explicit_factorization(self):
        spec = line_spec()
        theta, q = spec.rapidities[0], spec.boundary_q
        z = F(2, 9)
        boundary = ExactMatrix.diagonal((q + z, q - z)).tensor(ExactMatrix.identity(4))
        explicit = (
            lax_embed(z - theta + 1, 1, 2, conjugate=True)
            @ lax_embed(z - theta, 2, 2)
            @ boundary
            @ lax_embed(z + theta, 2, 2)
            @ lax_embed(z + theta - 1, 1, 2, conjugate=True)
        )
        assert double_row(spec, z) == explicit

    def test_reference_state_is_diagonal_eigenvector(self):
        rng = random.Random(4)
        for _ in range(6):
            spec = random_spec(rng, rng.choice((1, 2, 3)))
            z = random_z(rng)
            omega = reference_state(spec)
            blocks = double_row_on_state(spec, z, omega)
            ev = vacuum_eigenvalues(spec, z)
            assert blocks[0][0] == omega.scale(ev.alpha_val)
            assert blocks[1][0].is_zero()

    def test_d_tilde_eigenvalue_on_reference(self):
        spec = line_spec(reflected=True)
        z = F(1, 4)
        omega = reference_state(spec)
        ev = vacuum_eigenvalues(spec, z)
        blocks = double_row_on_state(spec, z, omega)
        d_shifted = blocks[1][1] - blocks[0][0].scale(F(1) / (2 * z + 1))
        assert d_shifted == omega.scale(ev.delta_tilde_val)
        # dense route agrees
        op = shifted_d_block(double_row(spec, z), z)
        applied = [
            sum(op[i, j] * omega.amplitudes[j] for j in range(4)) for i in range(4)
        ]
        assert tuple(applied) == omega.scale(ev.delta_tilde_val).amplitudes

    def test_d_tilde_pole(self):
        with pytest.raises(PoleError):
            shifted_d_block(double_row(line_spec(), F(-1, 2)), F(-1, 2))

    def test_reflection_algebra_on_two_sites(self):
        rng = random.Random(8)
        for _ in range(3):
            spec = random_spec(rng, 1)
            x, y = F(rng.randint(1, 90), 193), F(rng.randint(91, 180), 193)
            assert check_reflection_algebra(spec, x, y)

    def test_reflection_algebra_fails_with_shifted_crossing_weights(self, monkeypatch):
        real = monodromy.r_matrix
        monkeypatch.setattr(monodromy, "r_matrix", lambda theta: real(theta + F(1, 7)))
        assert not check_reflection_algebra(line_spec(), F(1, 5), F(2, 7))


class TestReferenceState:
    def test_line_reference(self):
        omega = reference_state(line_spec())
        assert omega.component((2, 1)) == -1
        assert sum(a * a for a in omega.amplitudes) == 1

    def test_two_line_sign(self):
        omega = reference_state(crossed_spec())
        # ends at sites 2 and 1: component (2,2,1,1) with sign (-1)^2
        assert omega.component((2, 2, 1, 1)) == 1
        assert sum(a * a for a in omega.amplitudes) == 1

    def test_external_component_contraction(self):
        spec = crossed_spec()
        omega = reference_state(spec)
        # alpha at starts (4,3), beta at ends (2,1): reference has 2 at ends
        cfg = ExternalConfig((1, 1), (2, 2))
        assert external_component(omega, spec, cfg) == 1
        assert external_component(omega, spec, reference_config(2)) == 0


class TestVacuumEigenvalues:
    def test_line_eigenvalue_both_branches(self):
        theta = F(2, 7)
        z = F(3, 8)
        assert lambda_value(line_spec(reflected=True, theta=theta), z) == f_factor(z, theta)
        assert lambda_value(line_spec(reflected=False, theta=theta), z) == f_factor(z, -theta)

    def test_xi_factorization(self):
        theta = F(2, 7)
        z = F(3, 8)
        assert xi_value(line_spec(reflected=True, theta=theta), z) == g_factor(z, theta)

    def test_shift_identity(self):
        fig = figure_lattice()
        z = F(3, 7)
        lhs = lambda_value(fig, z + 1) * lambda_value(fig, z)
        rhs = xi_value(fig, z + 1) * xi_value(fig, z - 1)
        assert lhs == rhs

    def test_alpha_delta_formulas(self):
        spec = crossed_spec(frozenset({1}))
        z = F(5, 9)
        q = spec.boundary_q
        ev = vacuum_eigenvalues(spec, z)
        assert ev.alpha_val == (q + z) * ev.xi_val
        assert ev.delta_tilde_val == F(2 * z, 1) / (2 * z + 1) * (q - z - 1) * xi_value(spec, z - 1)

    def test_pole(self):
        with pytest.raises(PoleError):
            vacuum_eigenvalues(line_spec(), F(-1, 2))


class TestProportionality:
    def test_zero_and_scaling(self):
        u = QuantumState(1, (1, 2))
        assert states_proportional(u, u.scale(F(-7, 3)))
        assert not states_proportional(u, QuantumState(1, (1, 3)))
        assert states_proportional(QuantumState(1, (0, 0)), QuantumState(1, (0, 0)))

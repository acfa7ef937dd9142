import math
import random
from fractions import Fraction as F

import pytest

from sixvb.aba import check_fcr_open
from sixvb.errors import PoleError
from sixvb.fixtures import figure_lattice
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    canonical_bethe_roots,
    inhomogeneities,
    reference_config,
)
from sixvb import monodromy
from sixvb.monodromy import (
    QuantumState,
    apply_open_b,
    check_crossing,
    check_reflection_algebra,
    external_component,
    lambda_value,
    reference_state,
    vacuum_eigenvalues,
    xi_value,
)
from sixvb.sampling import random_spec, random_z

from dense_reference import (
    PERMUTATION,
    S_MATRIX,
    ExactMatrix,
    apply_closed_b,
    aux_block,
    basis_index,
    component,
    dense,
    double_row,
    double_row_on_state,
    f_factor,
    g_factor,
    lax_embed,
    single_row,
    single_row_on_state,
    states_proportional,
)


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
    """A state is a positive Fraction scale times coprime nonzero ints, so
    equal vectors have equal fields; amplitudes are int or Fraction only."""

    @pytest.mark.parametrize(
        "entries", [{0: 0.5, 1: "1/3"}, {0: "1"}, {0: True}], ids=["float-str", "str", "bool"]
    )
    def test_rejects_non_rational_amplitudes(self, entries):
        with pytest.raises(ValueError):
            QuantumState(1, entries)

    @pytest.mark.parametrize(
        "length, entries",
        [(1, {2: 1}), (2, {-1: 1}), (0, {1: 1}), (1, (1, 0)), (-1, {})],
        ids=[
            "index-past-end",
            "index-negative",
            "index-past-empty-chain",
            "dense-tuple",
            "negative-length",
        ],
    )
    def test_rejects_malformed_entries(self, length, entries):
        with pytest.raises(ValueError):
            QuantumState(length, entries)

    @pytest.mark.parametrize(
        "entries, scale, same",
        [
            ({0: 2, 3: 4}, F(1, 2), {0: 1, 3: 2}),
            ({0: -1, 3: -2}, -1, {0: 1, 3: 2}),
            ({0: F(1, 2), 3: 1}, 2, {0: 1, 3: 2}),
            ({0: 1, 3: F(2)}, 1, {0: F(1), 3: 2}),
            ({0: 0, 3: 0}, 5, {}),
            ({0: 1, 3: 2}, 0, {}),
        ],
        ids=[
            "content-into-scale",
            "negative-scale",
            "fraction-entries",
            "int-fraction",
            "zero-entries",
            "zero-scale",
        ],
    )
    def test_canonical_form(self, entries, scale, same):
        state = QuantumState(2, entries, scale)
        assert state == QuantumState(2, same)
        assert dense(state) == tuple(scale * F(entries.get(i, 0)) for i in range(4))
        assert all(type(x) is int and x for x in state.entries.values())
        assert type(state.scale) is F and state.scale > 0
        assert math.gcd(*state.entries.values()) == 1 or (state.is_zero() and state.scale == 1)

    def test_fields_after_normalisation(self):
        state = QuantumState(2, {0: F(-4, 3), 3: 2}, F(-1, 5))
        assert state.entries == {0: 2, 3: -3} and state.scale == F(2, 15)
        assert component(state, (1, 1)) == F(4, 15) and component(state, (2, 1)) == 0


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
        psi = QuantumState(2, {0: 1, 3: 1})
        rng = random.Random(3)
        for _ in range(10):
            theta = F(rng.randint(1, 90), 97)
            z = random_z(rng)
            spec = line_spec(theta=theta)
            up = single_row_on_state(spec, z, True, psi)
            lam_up = (z + theta - 1) * (z + theta + 1)
            assert up[0][0] == up[1][1] == QuantumState(2, {0: lam_up, 3: lam_up})
            assert up[0][1].is_zero() and up[1][0].is_zero()
            down = single_row_on_state(spec, z, False, psi)
            lam_down = (z - theta) * (z - theta + 2)
            assert down[0][0] == down[1][1] == QuantumState(2, {0: lam_down, 3: lam_down})
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
    """The kernel applied to every basis vector gives the columns of the
    explicit product of full-chain local factors."""

    def test_single_rows(self, spec, sites):
        z = F(5, 13)
        for hat in (False, True):
            assert single_row(spec, z, hat) == _explicit_row(z, sites, hat)

    def test_double_row(self, spec, sites):
        z, q = F(2, 9), spec.boundary_q
        boundary = ExactMatrix(((q + z, 0), (0, q - z))).tensor(ExactMatrix.identity(16))
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
            2 * n, {i: F(rng.randint(-9, 9), rng.randint(1, 7)) for i in range(4**n)}
        )
        assert state != reference_state(spec) and not state.is_zero()
        for _ in range(2):
            z = random_z(rng)
            assert apply_open_b(spec, z, state) == double_row_on_state(spec, z, state)[0][1]
            assert apply_closed_b(spec, z, state) == single_row_on_state(spec, z, False, state)[0][1]


def _dense_lax_column(a, b, length, site, w, conjugate):
    """Reference: one local factor on a dense Fraction column (a, b), every product formed."""
    size = 1 << length
    mask = 1 << (length - site)
    wp1 = w + 1
    a2 = [None] * size
    b2 = [None] * size
    for i0 in range(size):
        if i0 & mask:
            continue
        i1 = i0 | mask
        x0, x1, y0, y1 = a[i0], a[i1], b[i0], b[i1]
        if conjugate:
            a2[i0] = w * x0 - y1
            a2[i1] = wp1 * x1
            b2[i0] = wp1 * y0
            b2[i1] = w * y1 - x0
        else:
            a2[i0] = wp1 * x0
            a2[i1] = w * x1 + y0
            b2[i0] = w * y0 + x1
            b2[i1] = wp1 * y1
    return a2, b2


def _dense_row(a, b, spec, z, hat):
    """Reference row: the factor at the end site of each chord is conjugate."""
    length, v = spec.length, inhomogeneities(spec)
    ends = {chord.end for chord in spec.chords}
    for site in range(1, length + 1) if hat else range(length, 0, -1):
        w = z + v[site - 1] if hat else z - v[site - 1]
        a, b = _dense_lax_column(a, b, length, site, w, site in ends)
    return a, b


def _dense_double_row(a, b, spec, z):
    q = spec.boundary_q
    a, b = _dense_row(a, b, spec, z, hat=True)
    a = [(q + z) * x for x in a]
    b = [(q - z) * x for x in b]
    return _dense_row(a, b, spec, z, hat=False)


def _dense_blocks(state, apply):
    amps = list(dense(state))
    zero = [F(0)] * len(amps)
    (av, cv), (bv, dv) = apply(amps, zero), apply(zero, amps)
    return [
        [QuantumState(state.length, dict(enumerate(x))) for x in (av, bv)],
        [QuantumState(state.length, dict(enumerate(x))) for x in (cv, dv)],
    ]


def _dense_bethe_state(spec, roots):
    amps = list(dense(reference_state(spec)))
    zero = [F(0)] * len(amps)
    for z in reversed(roots):
        amps, _ = _dense_double_row(zero, amps, spec, z)
    return QuantumState(spec.length, dict(enumerate(amps)))


def _random_dense_state(rng, length):
    """Mixed denominators, about a third of the entries zero."""
    return QuantumState(
        length,
        {
            i: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12, 29)))
            if rng.random() < 0.7
            else F(0)
            for i in range(1 << length)
        },
    )


class TestSparseKernelAgainstDenseReference:
    """The sparse integer kernel equals the dense Fraction kernel it replaced,
    entry for entry, normalisation included."""

    Z_VALUES = (F(-7, 5), F(-3, 193), F(5, 12), F(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_states(self, n):
        rng = random.Random(900 + n)
        spec = random_spec(rng, n)
        for z in self.Z_VALUES:
            state = _random_dense_state(rng, 2 * n)
            double = _dense_blocks(state, lambda a, b: _dense_double_row(a, b, spec, z))
            assert double_row_on_state(spec, z, state) == double
            assert apply_open_b(spec, z, state) == double[0][1]
            for hat in (False, True):
                single = _dense_blocks(state, lambda a, b: _dense_row(a, b, spec, z, hat))
                assert single_row_on_state(spec, z, hat, state) == single
                if not hat:
                    assert apply_closed_b(spec, z, state) == single[0][1]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_state_stays_zero(self, n):
        spec = random_spec(random.Random(950 + n), n)
        zero = QuantumState(2 * n, {})
        z = F(-3, 8)
        assert apply_open_b(spec, z, zero) == zero
        assert apply_closed_b(spec, z, zero) == zero
        assert all(block == zero for row in double_row_on_state(spec, z, zero) for block in row)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bethe_state(self, n):
        from sixvb.aba import bethe_state, solve_aba

        for seed in (101, 9001):
            spec = random_spec(random.Random(seed), n)
            roots = canonical_bethe_roots(spec).roots
            assert solve_aba(spec).bethe_state == _dense_bethe_state(spec, roots)
        off_shell = tuple(F(k, 17) - 1 for k in range(1, n + 1))
        assert bethe_state(spec, off_shell) == _dense_bethe_state(spec, off_shell)


class TestLaxColumnEdges:
    """The one-pass site step ``_lax_column`` against the dense reference
    where an entry can vanish: at the unscaled weights w = 0 and w = -1
    (scaled, w = 0 and w = -d) and where a mixed pair cancels.  The result
    must hold no zero entry."""

    LENGTH = 3

    def check(self, a, b, site, w, d, conjugate):
        """The kernel equals d times the dense step at weight w/d; returns
        the dense step's number of zero entries from nonzero input pairs."""
        size = 1 << self.LENGTH
        mask = 1 << (self.LENGTH - site)
        a2, b2 = monodromy._lax_column(a, b, mask, w, d, conjugate)
        assert all(a2.values()) and all(b2.values())
        da, db = _dense_lax_column(
            [F(a.get(i, 0)) for i in range(size)],
            [F(b.get(i, 0)) for i in range(size)],
            self.LENGTH, site, F(w, d), conjugate,
        )
        assert a2 == {i: d * x for i, x in enumerate(da) if x}
        assert b2 == {i: d * y for i, y in enumerate(db) if y}
        return sum(1 for x in da + db if not x)

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("d", [1, 6])
    @pytest.mark.parametrize("unscaled", [0, -1], ids=["w=0", "w=-d"])
    def test_vanishing_weight(self, unscaled, d, conjugate):
        rng = random.Random(77 + d)
        for _ in range(20):
            a, b = ({i: rng.choice((-3, -1, 2, 5)) for i in range(1 << self.LENGTH)
                     if rng.random() < 0.5} for _ in "ab")
            self.check(a, b, rng.randint(1, self.LENGTH), unscaled * d, d, conjugate)

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("d", [1, 6])
    @pytest.mark.parametrize("unscaled", [1, 2, -3])
    def test_cancelling_pairs(self, unscaled, d, conjugate):
        """Every a entry that mixes is paired with the b entry that makes its
        own output vanish: w x + e y = 0, with e = -d (conjugate) or d."""
        w, e = unscaled * d, -d if conjugate else d
        size = 1 << self.LENGTH
        for site in range(1, self.LENGTH + 1):
            mask = 1 << (self.LENGTH - site)
            pair = 0 if conjugate else mask
            a, b = {}, {}
            for i in range(size):
                k = i % 5 - 2 or 3
                if i & mask == pair:
                    a[i], b[i ^ mask] = e * k, -w * k
                else:
                    a[i] = k
            assert self.check(a, b, site, w, d, conjugate) >= size // 2


class TestDoubleRow:
    def test_line_monodromy_explicit_factorization(self):
        spec = line_spec()
        theta, q = spec.rapidities[0], spec.boundary_q
        z = F(2, 9)
        boundary = ExactMatrix(((q + z, 0), (0, q - z))).tensor(ExactMatrix.identity(4))
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
            alpha, _ = vacuum_eigenvalues(spec, z)
            assert dense(blocks[0][0]) == tuple(alpha * a for a in dense(omega))
            assert blocks[1][0].is_zero()

    def test_d_tilde_eigenvalue_on_reference(self):
        spec = line_spec(reflected=True)
        z = F(1, 4)
        omega = reference_state(spec)
        _, dtilde = vacuum_eigenvalues(spec, z)
        blocks = double_row_on_state(spec, z, omega)
        d_shifted = tuple(
            d - a / (2 * z + 1) for d, a in zip(dense(blocks[1][1]), dense(blocks[0][0]))
        )
        assert d_shifted == tuple(dtilde * a for a in dense(omega))

    def test_d_tilde_pole(self):
        with pytest.raises(PoleError, match="shifted D block has a pole at z = -1/2"):
            check_fcr_open(line_spec(), F(1, 3), F(-1, 2))

    def test_reflection_algebra_on_two_sites(self):
        rng = random.Random(8)
        for _ in range(3):
            spec = random_spec(rng, 1)
            x, y = F(rng.randint(1, 90), 193), F(rng.randint(91, 180), 193)
            assert check_reflection_algebra(spec, x, y)

    def test_reflection_algebra_fails_with_shifted_crossing_weights(self, monkeypatch):
        real = monodromy._r_rows
        monkeypatch.setattr(monodromy, "_r_rows", lambda theta: real(theta + F(1, 7)))
        assert not check_reflection_algebra(line_spec(), F(1, 5), F(2, 7))


class TestReferenceState:
    def test_line_reference(self):
        omega = reference_state(line_spec())
        assert component(omega, (2, 1)) == -1
        assert sum(a * a for a in dense(omega)) == 1

    def test_two_line_sign(self):
        omega = reference_state(crossed_spec())
        # ends at sites 2 and 1: component (2,2,1,1) with sign (-1)^2
        assert component(omega, (2, 2, 1, 1)) == 1
        assert sum(a * a for a in dense(omega)) == 1

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
        alpha, dtilde = vacuum_eigenvalues(spec, z)
        assert alpha == (q + z) * xi_value(spec, z)
        assert dtilde == F(2 * z, 1) / (2 * z + 1) * (q - z - 1) * xi_value(spec, z - 1)

    def test_pole(self):
        with pytest.raises(PoleError):
            vacuum_eigenvalues(line_spec(), F(-1, 2))


class TestProportionality:
    def test_zero_and_scaling(self):
        u = QuantumState(1, {0: 1, 1: 2})
        assert states_proportional(u, QuantumState(1, u.entries, F(-7, 3)))
        assert not states_proportional(u, QuantumState(1, {0: 1, 1: 3}))
        assert states_proportional(QuantumState(1, {}), QuantumState(1, {0: 0, 1: 0}))

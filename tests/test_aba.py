import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from sixvb import aba, monodromy
from sixvb.aba import (
    bethe_state,
    check_b_reflection,
    check_baxter,
    check_fcr_open,
    check_invariance,
    check_reduction,
    reduced_spec,
    solve_aba,
    unwanted_terms,
    unwanted_terms_from_fcr,
)
from sixvb.cba import cba_state
from sixvb.contraction import build_invariant
from sixvb.errors import DegenerateSpecError, PoleError
from sixvb.fixtures import figure_lattice
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    initial_pairing,
    reference_config,
    sweep,
)
from sixvb.monodromy import (
    QuantumState,
    external_component,
    lambda_value,
    reference_state,
    xi_value,
)
from sixvb.pipeline import ROUTES
from sixvb.sampling import random_spec, random_z

from dense_reference import (
    boundary_line_invariant,
    component,
    dense,
    double_row_on_state,
    f_factor,
    g_factor,
    line_invariant,
    states_proportional,
    wide_spec,
)


def line_spec(reflected=False, theta=F(1, 3), q=F(2)):
    return LatticeSpec(
        chords=(Chord(2, 1),),
        reflected=frozenset({1}) if reflected else frozenset(),
        rapidities=(theta,),
        boundary_q=q,
    )


def crossed_spec(reflected=frozenset({2}), t1=F(2, 7), t2=F(3, 11), q=F(4, 5)):
    return LatticeSpec(
        chords=(Chord(4, 2), Chord(3, 1)),
        reflected=frozenset(reflected),
        rapidities=(t1, t2),
        boundary_q=q,
    )


class TestBetheState:
    def test_line_state_is_line_invariant_ray(self):
        spec = line_spec()
        state = solve_aba(spec).bethe_state
        assert component(state, (1, 2)) == 0 and component(state, (2, 1)) == 0
        assert component(state, (1, 1)) == component(state, (2, 2)) != 0

    def test_reflected_line_component_ratio(self):
        spec = line_spec(reflected=True)  # theta=1/3, q=2
        state = solve_aba(spec).bethe_state
        assert component(state, (2, 2)) / component(state, (1, 1)) == F(5, 7)

    def test_root_order_irrelevant(self):
        spec = crossed_spec()
        roots = canonical_bethe_roots(spec).roots
        assert bethe_state(spec, roots) == bethe_state(spec, roots[::-1])

    def test_root_permutation_symmetry_off_shell(self):
        spec = crossed_spec()
        roots = (F(5, 193), F(31, 193))
        assert bethe_state(spec, roots) == bethe_state(spec, roots[::-1])

    def test_vanishing_product_raises(self):
        # B(0) annihilates the reference state; a zero stays zero under later factors
        cases = (line_spec(), (F(0),)), (crossed_spec(), (F(0), F(5, 193))), (crossed_spec(), (F(5, 193), F(0)))
        for spec, roots in cases:
            with pytest.raises(DegenerateSpecError, match="annihilated the reference state"):
                bethe_state(spec, roots)

    def test_solve_aba_order_gives_the_line_order_state(self):
        specs = [random_spec(random.Random(7500 + n), n) for n in range(1, 7)]
        for spec in specs + [wide_spec(random.Random(107), 7)]:
            result = solve_aba(spec)
            want = bethe_state(spec, canonical_bethe_roots(spec).roots)
            got = result.bethe_state
            assert (got.length, got.entries, got.scale) == (want.length, want.entries, want.scale)
            assert result.roots == canonical_bethe_roots(spec)

    def test_descending_end_order_visits_fewer_entries(self, monkeypatch):
        """The site steps of ``solve_aba`` visit at most 0.8 times the
        entries of the line order (0.70 on these specs)."""
        step, visits = monodromy._lax_column, [0]

        def counted(a, b, *args):
            visits[0] += len(a) + len(b)
            return step(a, b, *args)

        monkeypatch.setattr(monodromy, "_lax_column", counted)
        ordered = line = 0
        for s in range(20):
            spec = random_spec(random.Random(7600 + s), 6)
            visits[0] = 0
            solve_aba(spec)
            ordered += visits[0]
            visits[0] = 0
            bethe_state(spec, canonical_bethe_roots(spec).roots)
            line += visits[0]
        assert ordered <= 0.8 * line


class TestZAba:
    def test_reference_normalization(self):
        for spec in (line_spec(), crossed_spec(), figure_lattice()):
            assert sweep(spec, [reference_config(spec.n)], ROUTES["aba"]) == [1]

    def test_reflected_line_value(self):
        spec = line_spec(reflected=True)
        assert sweep(spec, [ExternalConfig((2,), (2,))], ROUTES["aba"]) == [F(5, 7)]

    def test_zero_on_ice_violation(self):
        assert sweep(line_spec(), [ExternalConfig((1,), (2,))], ROUTES["aba"]) == [0]
        assert sweep(crossed_spec(), [ExternalConfig((2, 2), (1, 1))], ROUTES["aba"]) == [0]

    def test_reflected_root_branch_gives_same_values(self):
        spec = crossed_spec(frozenset({1}))
        roots = list(canonical_bethe_roots(spec).roots)
        reflected_roots = [-roots[0] - 1] + roots[1:]
        base = bethe_state(spec, roots)
        other = bethe_state(spec, reflected_roots)
        assert states_proportional(base, other)
        ref = reference_config(spec.n)
        norm_b = external_component(base, spec, ref)
        norm_o = external_component(other, spec, ref)
        for config in all_configs(spec.n):
            assert (
                external_component(base, spec, config) / norm_b
                == external_component(other, spec, config) / norm_o
            )


class TestInvariance:
    def test_line_invariant_states(self):
        assert check_invariance(line_spec(theta=F(2, 7), q=F(4, 5)), line_invariant(), F(1, 5))
        assert check_invariance(
            line_spec(reflected=True, theta=F(2, 7), q=F(4, 5)),
            boundary_line_invariant(F(2, 7), F(4, 5)),
            F(1, 5),
        )

    def test_figure_state_at_several_points(self):
        fig = figure_lattice()
        state = solve_aba(fig).bethe_state
        for z in (F(2, 9), F(3, 8), F(5, 7)):
            assert check_invariance(fig, state, z)

    def test_random_specs_up_to_four_lines(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            spec = random_spec(rng, n)
            state = solve_aba(spec).bethe_state
            for _ in range(3):
                assert check_invariance(spec, state, random_z(rng))

    def test_rejects_non_invariant_state(self):
        spec = line_spec(theta=F(2, 7), q=F(4, 5))
        assert not check_invariance(spec, reference_state(spec), F(1, 5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_route_state_with_one_entry_raised_fails(self, n):
        """The woven, creation-operator and wave-sum states pass, and each
        fails once one of its integer entries is raised by 1."""
        rng = random.Random(3300 + n)
        for _ in range(10):
            spec, z = random_spec(rng, n), random_z(rng)
            for state in (build_invariant(spec), solve_aba(spec).bethe_state, cba_state(spec)):
                assert check_invariance(spec, state, z)
                entries = dict(state.entries)
                k = rng.choice(sorted(entries))
                entries[k] += 1
                raised = QuantumState(state.length, entries, state.scale)
                assert not check_invariance(spec, raised, z)


_PRIME = (1 << 61) - 1


def _mod_p(x: F) -> int:
    return x.numerator * pow(x.denominator, -1, _PRIME) % _PRIME


def _rank_mod_p(vectors) -> int:
    """Rank modulo ``_PRIME`` of sparse vectors, dicts from key to residue."""
    basis = []  # (pivot, vector): vector[pivot] == 1, zero at every earlier pivot
    for vec in vectors:
        vec = {k: x for k, x in vec.items() if x}
        for pivot, b in basis:
            c = vec.get(pivot)
            if c:
                for k, x in b.items():
                    y = (vec.get(k, 0) - c * x) % _PRIME
                    if y:
                        vec[k] = y
                    else:
                        vec.pop(k, None)
        if vec:
            pivot = next(iter(vec))
            inv = pow(vec[pivot], -1, _PRIME)
            basis.append((pivot, {k: x * inv % _PRIME for k, x in vec.items()}))
    return len(basis)


def _condition_nullity(spec, z, blocks=((0, 1), (1, 0), (0, 0), (1, 1))) -> int:
    """Nullity modulo ``_PRIME`` of the invariance conditions at z on all 2^L
    chain states: B, C, A - Lambda(z)(q+z) and D - Lambda(z)(q-z) stacked,
    one column per basis vector e_j from ``double_row_on_state``."""
    lam, q = lambda_value(spec, z), spec.boundary_q
    shift = {(0, 0): lam * (q + z), (1, 1): lam * (q - z)}
    dim = 1 << spec.length
    columns = []
    for j in range(dim):
        rows = double_row_on_state(spec, z, QuantumState(spec.length, {j: 1}))
        column = {}
        for r, c in blocks:
            state = rows[r][c]
            block = {i: x * state.scale for i, x in state.entries.items()}
            if (r, c) in shift:
                block[j] = block.get(j, 0) - shift[r, c]
            column.update({(r, c, i): _mod_p(x) for i, x in block.items()})
        columns.append(column)
    return dim - _rank_mod_p(columns)


class TestInvarianceFixesTheState:
    """The invariance conditions at one generic z have a one-dimensional
    solution space.  The woven state solves them over Q, and the nullity
    modulo a prime is at least the nullity over Q, so a nullity of 1 modulo
    the prime proves it over Q: the conditions fix every Z value of a state
    with a nonzero reference entry."""

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_nullity_one(self, seed):
        rng = random.Random(seed)
        spec = random_spec(rng, 1 + seed % 3)
        z = random_z(rng)
        assert check_invariance(spec, build_invariant(spec), z)
        assert _condition_nullity(spec, z) == 1

    def test_the_lowering_block_alone_does_not(self):
        """C alone leaves a larger null space (20-dimensional here), so the
        rank routine can report one."""
        spec = random_spec(random.Random(2), 3)
        assert _condition_nullity(spec, F(1, 6), blocks=((1, 0),)) > 1


class TestBaxterEquations:
    def test_line_case(self):
        assert check_baxter(line_spec(reflected=True, theta=F(2, 7), q=F(4, 5)), F(4, 9))

    def test_figure_case(self):
        assert check_baxter(figure_lattice(), F(3, 8))

    def test_error_at_q_root(self):
        spec = line_spec(reflected=True, theta=F(2, 7), q=F(4, 5))
        with pytest.raises(PoleError):
            check_baxter(spec, F(2, 7))

    def test_xi_and_lambda_factor_over_q(self):
        """The Q products Xi(z) = Q(z) Q(z+1) and Lambda(z) = Q(z-1) Q(z+1)
        equal the per-line factors written out, with each line's root
        theta_k if it is reflected and -theta_k otherwise, on seeded specs,
        N = 1..6."""
        rng = random.Random(34)
        for i in range(200):
            spec, z = random_spec(rng, 1 + i % 6), random_z(rng)
            xi = lam = F(1)
            for k, t in enumerate(spec.rapidities, start=1):
                root = t if spec.is_reflected(k) else -t
                xi *= g_factor(z, root)
                lam *= f_factor(z, root)
            assert xi_value(spec, z) == xi
            assert lambda_value(spec, z) == lam


class TestUnwantedTerms:
    def test_on_shell_vanishing_every_k(self):
        fig = figure_lattice()
        for k in range(1, 5):
            assert unwanted_terms(fig, F(2, 9), k) == (0, 0)

    def test_off_shell_nonzero(self):
        fig = figure_lattice()
        roots = list(canonical_bethe_roots(fig).roots)
        roots[2] += F(1, 100)
        m_k, n_k = unwanted_terms(fig, F(2, 9), 3, roots)
        assert m_k != 0 and n_k != 0

    def test_two_printed_forms_agree(self):
        rng = random.Random(19)
        spec = crossed_spec()
        for _ in range(5):
            roots = (random_z(rng), random_z(rng))
            z = random_z(rng)
            for k in (1, 2):
                assert unwanted_terms(spec, z, k, roots) == unwanted_terms_from_fcr(
                    spec, z, k, roots
                )

    def test_bad_index(self):
        with pytest.raises(ValueError):
            unwanted_terms(line_spec(), F(1, 5), 2)


class TestOpenExchangeRelations:
    def test_two_site_case(self):
        assert check_fcr_open(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 3), F(1, 7))

    def test_four_site_case(self):
        assert check_fcr_open(crossed_spec(), F(101, 193), F(57, 193))

    def test_pole_at_equal_arguments(self):
        with pytest.raises(PoleError):
            check_fcr_open(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 3), F(1, 3))

    @pytest.mark.parametrize("x, y", [(F(-1, 2), F(1, 7)), (F(1, 3), F(-1, 2))])
    def test_shifted_d_pole_in_either_argument(self, x, y):
        with pytest.raises(PoleError, match="shifted D block has a pole at z = -1/2"):
            check_fcr_open(line_spec(theta=F(2, 7), q=F(4, 5)), x, y)


class TestBReflection:
    def test_generic_point(self):
        assert check_b_reflection(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 2))

    def test_fixed_point(self):
        assert check_b_reflection(line_spec(theta=F(2, 7), q=F(4, 5)), F(-1, 2))

    def test_pole(self):
        with pytest.raises(PoleError):
            check_b_reflection(line_spec(theta=F(2, 7), q=F(4, 5)), F(0))


class TestReduction:
    @pytest.mark.parametrize("branch_reflected", [True, False])
    def test_two_line_factorization(self, branch_reflected):
        spec = LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset({1, 2}) if branch_reflected else frozenset({2}),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        assert check_reduction(spec, (F(5, 193),))
        assert check_reduction(spec, ())

    def test_mixed_components_vanish(self):
        spec = LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset({1}),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        theta1 = spec.rapidities[0]
        state = bethe_state(spec, (F(5, 193), theta1))
        for idx, amp in enumerate(dense(state)):
            if ((idx >> 1) & 1) != (idx & 1):
                assert amp == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_planted_mixed_component_fails(self, monkeypatch, n):
        """A full state with one more entry at pair labels (1, 2) or (2, 1),
        bits 1 or 2 of the pair, fails the check."""
        rng = random.Random(3400 + n)
        real = aba.bethe_state
        for _ in range(20):
            spec = replace(random_spec(rng, n), chords=initial_pairing(n))
            extra = (random_z(rng),) if rng.random() < 0.5 else ()
            assert check_reduction(spec, extra)
            for pair in (1, 2):
                def planted(lattice, roots):
                    state = real(lattice, roots)
                    if lattice != spec:
                        return state
                    k = (next(iter(state.entries)) & ~3) | pair
                    return QuantumState(state.length, {**state.entries, k: 1}, state.scale)

                monkeypatch.setattr(aba, "bethe_state", planted)
                assert not check_reduction(spec, extra)
                monkeypatch.setattr(aba, "bethe_state", real)

    def test_reduced_spec_shape(self):
        spec = LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset({1, 2}),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        sub = reduced_spec(spec)
        assert sub.chords == (Chord(2, 1),)
        assert sub.reflected == frozenset({1})
        assert sub.rapidities == (F(3, 11),)

    def test_requires_nested_top_pair(self):
        with pytest.raises(ValueError):
            reduced_spec(crossed_spec())


class TestTables:
    def test_table_matches_single_calls(self):
        spec = crossed_spec()
        configs = list(all_configs(2))
        table = sweep(spec, configs, ROUTES["aba"])
        for config, value in zip(configs, table):
            assert sweep(spec, [config], ROUTES["aba"]) == [value]

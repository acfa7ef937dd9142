import random
from fractions import Fraction as F

import pytest

from sixvb.aba import check_invariance, solve_aba, z_aba_table
from sixvb.cba import z_cba_table
from sixvb import contraction
from sixvb.contraction import (
    Move,
    boundary_line_invariant,
    build_invariant,
    initial_invariant,
    line_invariant,
    plan_moves,
    z_direct,
    z_direct_table,
)
from sixvb.errors import PoleError
from sixvb.exact import ExactMatrix
from sixvb.fixtures import figure_lattice, initial_condition
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    inhomogeneities,
    reference_config,
)
from sixvb.monodromy import aux_block, lax_embed, states_proportional
from sixvb.sampling import random_spec
from sixvb.weights import PERMUTATION, S_MATRIX, embed_pair, k_matrix, r_matrix


def line_spec(reflected=False, theta=F(1, 3), q=F(2)):
    return LatticeSpec(
        chords=(Chord(2, 1),),
        reflected=frozenset({1}) if reflected else frozenset(),
        rapidities=(theta,),
        boundary_q=q,
    )


class TestElementaryInvariants:
    def test_line_components(self):
        li = line_invariant()
        assert li.amplitudes == (1, 0, 0, 1)

    def test_line_invariance(self):
        spec = line_spec(theta=F(2, 7), q=F(4, 5))
        assert check_invariance(spec, line_invariant(), F(1, 6))

    def test_boundary_line_example(self):
        assert boundary_line_invariant(F(1), F(2)).amplitudes == (1, 0, 0, F(1, 3))

    def test_boundary_line_at_zero_rapidity(self):
        assert boundary_line_invariant(F(0), F(2)) == line_invariant()

    def test_boundary_line_pole(self):
        with pytest.raises(PoleError):
            boundary_line_invariant(F(2), F(-2))

    def test_boundary_line_is_k_dressed_line(self):
        theta, q = F(2, 7), F(4, 5)
        k = k_matrix(theta, q)
        li = line_invariant()
        dressed = [
            sum(
                k[a, b] * li.amplitudes[(b << 1) | s]
                for b in range(2)
            )
            for a in range(2)
            for s in range(2)
        ]
        assert tuple(dressed) == boundary_line_invariant(theta, q).amplitudes

    def test_boundary_exchange_vector_relation(self):
        # Reflected-line invariant intertwines the two half-dressed products.
        # The outer reflection matrix acts on the same site the local blocks
        # touch; with it on the other site the relation is false.
        theta, q, z = F(2, 7), F(4, 5), F(1, 5)
        kaux = ExactMatrix.diagonal((q + z, q - z)).tensor(ExactMatrix.identity(4))
        lhs_op = lax_embed(z - theta, 2, 2) @ kaux @ lax_embed(z + theta, 2, 2)
        rhs_op = lax_embed(z + theta, 2, 2) @ kaux @ lax_embed(z - theta, 2, 2)
        psi_b = boundary_line_invariant(theta, q)
        psi_l = line_invariant()
        k2 = ExactMatrix.identity(2).tensor(k_matrix(theta, q))
        for r in range(2):
            for c in range(2):
                lhs = aux_block(lhs_op, r, c) @ ExactMatrix(tuple((x,) for x in psi_b.amplitudes))
                rhs = k2 @ (
                    aux_block(rhs_op, r, c) @ ExactMatrix(tuple((x,) for x in psi_l.amplitudes))
                )
                assert lhs == rhs


class TestInitialInvariant:
    def test_structure_two_lines(self):
        spec = LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset({2}),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        # line 2 (reflected, theta_2) occupies sites (1, 2); line 1 sites (3, 4)
        state = initial_invariant(spec)
        lo = line_invariant().amplitudes
        hi = boundary_line_invariant(F(3, 11), F(4, 5)).amplitudes
        want = tuple(a * b for a in hi for b in lo)
        assert state.amplitudes == want

    def test_invariance_of_initial_condition(self):
        init = initial_condition()
        state = initial_invariant(init)
        for z in (F(1, 6), F(3, 8)):
            assert check_invariance(init, state, z)

    def test_rejects_crossed_pairing(self):
        with pytest.raises(ValueError):
            initial_invariant(figure_lattice())

    def test_reference_normalization(self):
        init = initial_condition()
        assert z_direct(init, reference_config(4)) == 1

    def test_all_configs_against_reflection_weight_oracle(self):
        # For the nested pairing the lattice definition factorizes line by
        # line: an unreflected line forces alpha=beta with weight 1, a
        # reflected one weighs state 2 by (q-theta)/(q+theta).
        rng = random.Random(41)
        for n in (2, 3):
            spec = random_spec(rng, n, initial=True)
            configs = list(all_configs(n))
            want = []
            for config in configs:
                weight = F(1)
                for k, (a, b) in enumerate(zip(config.alpha, config.beta), start=1):
                    if a != b:
                        weight = F(0)
                        break
                    if spec.is_reflected(k) and a == 2:
                        t = spec.rapidities[k - 1]
                        weight *= (spec.boundary_q - t) / (spec.boundary_q + t)
                want.append(weight)
            assert z_direct_table(spec, configs) == want
            assert z_aba_table(spec, configs) == want
            assert z_cba_table(spec, configs) == want


class TestMovePlanning:
    def test_initial_spec_needs_no_moves(self):
        init = initial_condition()
        assert plan_moves(init).moves == ()

    def test_replay_reaches_target(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        plan = plan_moves(spec)
        assert plan.moves
        owner, _ = contraction._endpoint_layout(plan.source)
        for move in plan.moves:
            p = move.position - 1
            owner[p], owner[p + 1] = owner[p + 1], owner[p]
        want = [None] * 4
        for k, chord in enumerate(spec.chords, start=1):
            want[chord.start - 1] = (k, False)
            want[chord.end - 1] = (k, True)
        assert owner == want

    def test_figure_replay(self):
        fig = figure_lattice()
        for lowest_first in (False, True):
            plan = plan_moves(fig, lowest_first=lowest_first)
            owner, _ = contraction._endpoint_layout(plan.source)
            for move in plan.moves:
                p = move.position - 1
                owner[p], owner[p + 1] = owner[p + 1], owner[p]
            want = [None] * 8
            for k, chord in enumerate(fig.chords, start=1):
                want[chord.start - 1] = (k, False)
                want[chord.end - 1] = (k, True)
            assert owner == want

    def test_never_swaps_endpoints_of_one_line(self):
        from sixvb.contraction import _endpoint_layout

        rng = random.Random(43)
        for _ in range(10):
            spec = random_spec(rng, rng.choice((2, 3, 4)))
            plan = plan_moves(spec, lowest_first=rng.random() < 0.5)
            owner, _ = _endpoint_layout(plan.source)
            owner = list(owner)
            for move in plan.moves:
                p = move.position - 1
                assert owner[p][0] != owner[p + 1][0]
                owner[p], owner[p + 1] = owner[p + 1], owner[p]


class TestBuildInvariant:
    def test_initial_pairing_unchanged(self):
        init = initial_condition()
        assert build_invariant(init) == initial_invariant(init)

    def test_crossed_lines_invariance(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        state = build_invariant(spec)
        for z in (F(1, 5), F(3, 8), F(7, 9)):
            assert check_invariance(spec, state, z)

    def test_figure_state_proportional_to_creation_route(self):
        fig = figure_lattice()
        assert states_proportional(build_invariant(fig), solve_aba(fig).bethe_state)

    def test_inconsistent_plan_rejected(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        plan = plan_moves(spec)
        bad = plan.__class__(
            moves=(Move(position=plan.moves[0].position, argument=plan.moves[0].argument + 1),)
            + plan.moves[1:],
            source=plan.source,
            target=plan.target,
        )
        with pytest.raises(ValueError):
            build_invariant(spec, bad)


def _column(amps) -> ExactMatrix:
    return ExactMatrix(tuple((a,) for a in amps))


def _literal_move(theta, ends) -> ExactMatrix:
    """swap . C R(theta) C^{-1} on two sites, C = S at each end site (S^{-1} = -S)."""
    eye = ExactMatrix.identity(2)
    c = [S_MATRIX if e else eye for e in ends]
    c_inv = [S_MATRIX.scale(-1) if e else eye for e in ends]
    return PERMUTATION @ c[0].tensor(c[1]) @ r_matrix(theta) @ c_inv[0].tensor(c_inv[1])


class TestMoveAgainstLiteralProduct:
    """Each weave move equals the literal operator product built from
    ``weights``, for every pattern of end points on the two sites."""

    @pytest.mark.parametrize("ends", [(False, False), (False, True), (True, False), (True, True)])
    def test_one_move(self, ends):
        rng = random.Random(31)
        length, p, theta = 4, 2, F(5, 17)
        amps = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(1 << length)]
        want = embed_pair(_literal_move(theta, ends), length, (p - 1, p)) @ _column(amps)
        contraction._apply_move(amps, length, p, theta, ends[0] != ends[1])
        assert _column(amps) == want

    def test_pole(self):
        with pytest.raises(PoleError, match="theta = -1"):
            contraction._apply_move([F(0)] * 16, 4, 2, F(-1), True)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lowest_first", [False, True])
    def test_whole_weave(self, n, lowest_first):
        for seed in range(4):
            spec = random_spec(random.Random(700 + 10 * n + seed), n)
            plan = plan_moves(spec, lowest_first=lowest_first)
            v = list(inhomogeneities(plan.source))
            ends = [False] * spec.length
            for chord in plan.source.chords:
                ends[chord.end - 1] = True
            state = _column(initial_invariant(plan.source).amplitudes)
            for move in plan.moves:
                p = move.position
                op = _literal_move(v[p] - v[p - 1], (ends[p - 1], ends[p]))
                state = embed_pair(op, spec.length, (p - 1, p)) @ state
                ends[p - 1], ends[p] = ends[p], ends[p - 1]
                v[p - 1], v[p] = v[p], v[p - 1]
            assert _column(build_invariant(spec, plan).amplitudes) == state


class TestZDirect:
    def test_reference_normalization(self):
        for spec in (line_spec(), figure_lattice()):
            assert z_direct(spec, reference_config(spec.n)) == 1

    def test_ice_violation(self):
        assert z_direct(line_spec(), ExternalConfig((1,), (2,))) == 0

    def test_reflected_line_value(self):
        assert z_direct(line_spec(reflected=True), ExternalConfig((2,), (2,))) == F(5, 7)

    def test_route_independence(self):
        rng = random.Random(47)
        for _ in range(5):
            spec = random_spec(rng, rng.choice((2, 3)))
            configs = list(all_configs(spec.n))
            high = build_invariant(spec, plan_moves(spec))
            low = build_invariant(spec, plan_moves(spec, lowest_first=True))
            assert states_proportional(high, low)
            table_high = z_direct_table(spec, configs)
            # recompute via the alternative plan
            from sixvb.monodromy import external_component

            norm = external_component(low, spec, reference_config(spec.n))
            table_low = [
                external_component(low, spec, c) / norm
                if len([1 for a in c.alpha if a == 2]) + len([1 for b in c.beta if b == 1])
                == spec.n
                else F(0)
                for c in configs
            ]
            assert table_high == table_low

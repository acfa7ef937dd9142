import random
from fractions import Fraction as F

import pytest

from sixvb.aba import check_invariance, solve_aba
from sixvb import contraction
from sixvb.contraction import build_invariant, initial_invariant, plan_moves
from sixvb.errors import PoleError
from sixvb.fixtures import figure_lattice, initial_condition
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    inhomogeneities,
    initial_pairing,
    reference_config,
    sweep,
)
from sixvb.monodromy import QuantumState, external_component
from sixvb.pipeline import ROUTES
from sixvb.sampling import random_ice_config, random_spec

from dense_reference import (
    PERMUTATION,
    S_MATRIX,
    ExactMatrix,
    aux_block,
    boundary_line_invariant,
    component,
    dense,
    embed_pair,
    k_matrix,
    lax_embed,
    line_invariant,
    r_matrix,
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


class TestElementaryInvariants:
    def test_line_components(self):
        li = line_invariant()
        assert dense(li) == (1, 0, 0, 1)

    def test_line_invariance(self):
        spec = line_spec(theta=F(2, 7), q=F(4, 5))
        assert check_invariance(spec, line_invariant(), F(1, 6))

    def test_boundary_line_example(self):
        assert dense(boundary_line_invariant(F(1), F(2))) == (1, 0, 0, F(1, 3))

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
                k[a, b] * dense(li)[(b << 1) | s]
                for b in range(2)
            )
            for a in range(2)
            for s in range(2)
        ]
        assert tuple(dressed) == dense(boundary_line_invariant(theta, q))

    def test_boundary_exchange_vector_relation(self):
        # Reflected-line invariant intertwines the two half-dressed products.
        # The outer reflection matrix acts on the same site the local blocks
        # touch; with it on the other site the relation is false.
        theta, q, z = F(2, 7), F(4, 5), F(1, 5)
        kaux = ExactMatrix(((q + z, 0), (0, q - z))).tensor(ExactMatrix.identity(4))
        lhs_op = lax_embed(z - theta, 2, 2) @ kaux @ lax_embed(z + theta, 2, 2)
        rhs_op = lax_embed(z + theta, 2, 2) @ kaux @ lax_embed(z - theta, 2, 2)
        psi_b = boundary_line_invariant(theta, q)
        psi_l = line_invariant()
        k2 = ExactMatrix.identity(2).tensor(k_matrix(theta, q))
        for r in range(2):
            for c in range(2):
                lhs = aux_block(lhs_op, r, c) @ ExactMatrix(tuple((x,) for x in dense(psi_b)))
                rhs = k2 @ (
                    aux_block(rhs_op, r, c) @ ExactMatrix(tuple((x,) for x in dense(psi_l)))
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
        lo = dense(line_invariant())
        hi = dense(boundary_line_invariant(F(3, 11), F(4, 5)))
        want = tuple(a * b for a in hi for b in lo)
        assert dense(state) == want

    def test_invariance_of_initial_condition(self):
        init = initial_condition()
        state = initial_invariant(init)
        for z in (F(1, 6), F(3, 8)):
            assert check_invariance(init, state, z)

    def test_reads_no_pairing(self):
        """A lattice's lines give the invariant of their nested twin."""
        specs = [figure_lattice()] + [random_spec(random.Random(s), 1 + s % 4) for s in range(8)]
        for spec in specs:
            assert initial_invariant(spec) == initial_invariant(_twin(spec))

    def test_reference_normalization(self):
        init = initial_condition()
        assert sweep(init, [reference_config(4)], ROUTES["direct"]) == [1]

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
            for route in ROUTES.values():
                assert sweep(spec, configs, route) == want


def _twin(spec) -> LatticeSpec:
    """The lines of ``spec`` on the nested pairing, built and validated
    independently of the planner."""
    return LatticeSpec(initial_pairing(spec.n), spec.reflected, spec.rapidities, spec.boundary_q)


def _owners(spec) -> list:
    """(line, is_end) at each site, from the chords."""
    owner = [None] * spec.length
    for k, chord in enumerate(spec.chords, start=1):
        owner[chord.start - 1] = (k, False)
        owner[chord.end - 1] = (k, True)
    return owner


def _replay(plan) -> list:
    """The site owners after the plan's swaps, from the nested twin's owners."""
    owner = _owners(_twin(plan.target))
    for move in plan.moves:
        p = move.position - 1
        owner[p], owner[p + 1] = owner[p + 1], owner[p]
    return owner


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
        assert _replay(plan) == _owners(spec)

    def test_figure_replay(self):
        fig = figure_lattice()
        for lowest_first in (False, True):
            assert _replay(plan_moves(fig, lowest_first=lowest_first)) == _owners(fig)

    def test_never_swaps_endpoints_of_one_line(self):
        """Nor mislabels a move's end pattern: ``one_end`` is set exactly
        when one of the two swapped sites holds an end point."""
        rng = random.Random(43)
        for _ in range(10):
            spec = random_spec(rng, rng.choice((2, 3, 4)))
            plan = plan_moves(spec, lowest_first=rng.random() < 0.5)
            owner = _owners(_twin(spec))
            for move in plan.moves:
                p = move.position - 1
                assert owner[p][0] != owner[p + 1][0]
                assert move.one_end == (owner[p][1] != owner[p + 1][1])
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

    def test_plan_for_another_pairing_rejected(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        other = LatticeSpec((Chord(4, 1), Chord(3, 2)), spec.reflected, spec.rapidities, F(4, 5))
        with pytest.raises(ValueError, match="another lattice"):
            build_invariant(spec, plan_moves(other))


def _column(amps) -> ExactMatrix:
    return ExactMatrix(tuple((a,) for a in amps))


def _literal_move(theta, ends) -> ExactMatrix:
    """swap . C R(theta) C^{-1} on two sites, C = S at each end site (S^{-1} = -S)."""
    eye = ExactMatrix.identity(2)
    c = [S_MATRIX if e else eye for e in ends]
    c_inv = [S_MATRIX.scale(-1) if e else eye for e in ends]
    return PERMUTATION @ c[0].tensor(c[1]) @ r_matrix(theta) @ c_inv[0].tensor(c_inv[1])


class TestMoveAgainstLiteralProduct:
    """Each weave move equals the literal operator product of the dense
    weights, for every pattern of end points on the two sites."""

    @pytest.mark.parametrize("ends", [(False, False), (False, True), (True, False), (True, True)])
    def test_one_move(self, ends):
        rng = random.Random(31)
        length, p, theta = 4, 2, F(5, 17)
        amps = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(1 << length)]
        want = embed_pair(_literal_move(theta, ends), length, (p - 1, p)) @ _column(amps)
        state = QuantumState(length, dict(enumerate(amps)))
        d = theta.denominator
        theta_d = theta.numerator
        out = contraction._apply_move(state.entries, length, p, theta_d, d, ends[0] != ends[1])
        assert _column(dense(QuantumState(length, out, state.scale / (theta_d + d)))) == want

    def test_pole(self):
        with pytest.raises(PoleError, match="theta = -1"):
            contraction._apply_move({}, 4, 2, -1, 1, True)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lowest_first", [False, True])
    def test_whole_weave(self, n, lowest_first):
        for seed in range(4):
            spec = random_spec(random.Random(700 + 10 * n + seed), n)
            plan, source = plan_moves(spec, lowest_first=lowest_first), _twin(spec)
            v = list(inhomogeneities(source))
            ends = [False] * spec.length
            for chord in source.chords:
                ends[chord.end - 1] = True
            state = _column(dense(initial_invariant(source)))
            for move in plan.moves:
                p = move.position
                op = _literal_move(v[p] - v[p - 1], (ends[p - 1], ends[p]))
                state = embed_pair(op, spec.length, (p - 1, p)) @ state
                ends[p - 1], ends[p] = ends[p], ends[p - 1]
                v[p - 1], v[p] = v[p], v[p - 1]
            assert _column(dense(build_invariant(spec, plan))) == state


def _dense_weave(spec, plan) -> QuantumState:
    """Reference: the literal 4x4 move applied pair by pair to a dense Fraction state."""
    source, length = _twin(spec), spec.length
    amps = [F(1)]
    for k in range(spec.n, 0, -1):
        theta, q = source.rapidities[k - 1], source.boundary_q
        corner = (q - theta) / (q + theta) if source.is_reflected(k) else F(1)
        amps = [a * b for a in amps for b in (F(1), F(0), F(0), corner)]
    v = list(inhomogeneities(source))
    ends = [False] * length
    for chord in source.chords:
        ends[chord.end - 1] = True
    for move in plan.moves:
        p = move.position
        op = _literal_move(v[p] - v[p - 1], (ends[p - 1], ends[p]))
        lo = 1 << (length - p - 1)
        hi = lo << 1
        for i in range(1 << length):
            if not i & (hi | lo):
                quad = (i, i | lo, i | hi, i | hi | lo)
                old = [amps[j] for j in quad]
                for r, j in enumerate(quad):
                    amps[j] = sum(op[r, c] * old[c] for c in range(4))
        ends[p - 1], ends[p] = ends[p], ends[p - 1]
        v[p - 1], v[p] = v[p], v[p - 1]
    return QuantumState(length, dict(enumerate(amps)))


class TestSparseWeaveAgainstDenseReference:
    """The integer weave equals the dense weave of literal moves, normalisation included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_invariant(self, n):
        for seed in (101, 9001):
            spec = random_spec(random.Random(seed), n)
            for lowest_first in (False, True):
                plan = plan_moves(spec, lowest_first=lowest_first)
                assert build_invariant(spec, plan) == _dense_weave(spec, plan)

    def test_initial_invariant(self):
        for seed in range(4):
            spec = random_spec(random.Random(seed), 3, initial=True)
            assert initial_invariant(spec) == _dense_weave(spec, plan_moves(spec))


class TestZDirect:
    def test_reference_normalization(self):
        for spec in (line_spec(), figure_lattice()):
            assert sweep(spec, [reference_config(spec.n)], ROUTES["direct"]) == [1]

    def test_ice_violation(self):
        assert sweep(line_spec(), [ExternalConfig((1,), (2,))], ROUTES["direct"]) == [0]

    def test_reflected_line_value(self):
        spec = line_spec(reflected=True)
        assert sweep(spec, [ExternalConfig((2,), (2,))], ROUTES["direct"]) == [F(5, 7)]

    def test_route_independence(self):
        rng = random.Random(47)
        for _ in range(5):
            spec = random_spec(rng, rng.choice((2, 3)))
            configs = list(all_configs(spec.n))
            high = build_invariant(spec, plan_moves(spec))
            low = build_invariant(spec, plan_moves(spec, lowest_first=True))
            assert states_proportional(high, low)
            table_high = sweep(spec, configs, ROUTES["direct"])
            # recompute via the alternative plan
            norm = external_component(low, spec, reference_config(spec.n))
            table_low = [
                external_component(low, spec, c) / norm
                if len([1 for a in c.alpha if a == 2]) + len([1 for b in c.beta if b == 1])
                == spec.n
                else F(0)
                for c in configs
            ]
            assert table_high == table_low


READ_OUT_SPECS = ["figure", "initial"] + [f"{seed}-{n}" for seed in (101, 102) for n in range(1, 7)]


def _read_out_spec(name: str) -> LatticeSpec:
    if name == "figure":
        return figure_lattice()
    if name == "initial":
        return initial_condition()
    seed, n = map(int, name.split("-"))
    return random_spec(random.Random(seed), n)


def _placed_component(state: QuantumState, spec: LatticeSpec, config: ExternalConfig) -> F:
    """The component at the chain labels: alpha at chord starts, beta at ends."""
    labels = [0] * spec.length
    for chord, a, b in zip(spec.chords, config.alpha, config.beta):
        labels[chord.start - 1], labels[chord.end - 1] = a, b
    return component(state, labels)


@pytest.mark.parametrize("name", READ_OUT_SPECS)
def test_tables_are_ratios_of_external_components(name):
    """The integer read-out of ``direct`` and ``aba`` gives the ratio of
    full components, which ``dense_reference.component`` confirms by label."""
    spec = _read_out_spec(name)
    configs = list(all_configs(spec.n))
    ref = reference_config(spec.n)
    for route, state in (
        (ROUTES["direct"], build_invariant(spec)),
        (ROUTES["aba"], solve_aba(spec).bethe_state),
    ):
        components = [external_component(state, spec, c) for c in configs]
        assert components == [_placed_component(state, spec, c) for c in configs]
        norm = external_component(state, spec, ref)
        values = sweep(spec, configs, route)
        assert values == [x / norm for x in components]
        assert all(type(v) is F for v in values)


def test_three_routes_agree_at_seven_lines():
    spec = wide_spec(random.Random(108), 7)
    configs = list(all_configs(spec.n))
    direct = sweep(spec, configs, ROUTES["direct"])
    assert len(direct) == 16384 and any(x not in (0, 1) for x in direct)
    assert sweep(spec, configs, ROUTES["aba"]) == direct
    rng = random.Random(7)
    sample = [random_ice_config(rng, spec) for _ in range(100)]
    index = {config: i for i, config in enumerate(configs)}
    assert sweep(spec, sample, ROUTES["cba"]) == [direct[index[config]] for config in sample]


@pytest.mark.parametrize("seed, n", [(109, 8), (110, 9)])
def test_woven_and_aba_states_agree_past_seven_lines(seed, n):
    """Both full states are canonical (coprime ints, positive scale), so
    the routes agree iff their entries match up to one global sign."""
    spec = wide_spec(random.Random(seed), n)
    woven, bethe = build_invariant(spec).entries, solve_aba(spec).bethe_state.entries
    assert len(woven) > 1000
    assert bethe in (woven, {i: -x for i, x in woven.items()})

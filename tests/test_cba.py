import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from sixvb.aba import solve_aba
from sixvb.cba import (
    WaveEngine,
    cba_state,
    check_b_expansion,
    check_closed_fcr,
    check_state_expansion,
    spec_wave_engine,
    wave_components,
)
from sixvb.errors import PoleError
from sixvb.fixtures import figure_lattice
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    ice_indices,
    inhomogeneities,
    magnon_positions,
    reference_config,
    sweep,
)
from sixvb.monodromy import reference_state
from sixvb.pipeline import ROUTES
from sixvb.sampling import random_ice_config, random_spec, random_z

from dense_reference import (
    amplitude,
    apply_closed_b,
    closed_wave,
    component,
    two_reflection_sum,
    wave_function,
    wave_part,
    wide_spec,
)


def line_spec(reflected=False, theta=F(1, 3), q=F(2)):
    return LatticeSpec(
        chords=(Chord(2, 1),),
        reflected=frozenset({1}) if reflected else frozenset(),
        rapidities=(theta,),
        boundary_q=q,
    )


def literal_terms(v, roots, q) -> dict:
    """The 2^m * m! terms of the wave sum by its definition, at every position set."""
    m = len(roots)
    terms = []
    for bits in range(1 << m):
        sign = -1 if bin(bits).count("1") % 2 else 1
        images = tuple(-z - 1 if bits >> i & 1 else z for i, z in enumerate(roots))
        for perm in itertools.permutations(images):
            terms.append((sign * amplitude(perm), perm))
    phi = {}

    def phi_at(z, x):
        if (z, x) not in phi:
            phi[z, x] = wave_part(x, z, v, q)
        return phi[z, x]

    return {
        x: [math.prod((phi_at(z, xi) for xi, z in zip(x, perm)), start=amp) for amp, perm in terms]
        for x in itertools.combinations(range(1, len(v) + 1), m)
    }


def brute_wave_sums(v, roots, q) -> dict:
    """The wave sum by its definition at every position set."""
    return {x: sum(terms, F(0)) for x, terms in literal_terms(v, roots, q).items()}


def off_shell_roots(rng, m):
    """m random_z roots off every pole of the amplitude."""
    while True:
        zs = tuple(random_z(rng) for _ in range(m))
        if all(a != b and a + b + 1 != 0 for a, b in itertools.combinations(zs, 2)):
            return zs


def crossed_spec(reflected=frozenset({2}), t1=F(2, 7), t2=F(3, 11), q=F(4, 5)):
    return LatticeSpec(
        chords=(Chord(4, 2), Chord(3, 1)),
        reflected=frozenset(reflected),
        rapidities=(t1, t2),
        boundary_q=q,
    )


class TestAmplitude:
    def test_single_root(self):
        assert amplitude((F(1, 3),)) == 1

    def test_two_root_value(self):
        # (z1-z2+1)(z1+z2+2) / ((z1-z2)(z1+z2+1)) at (1/3, 1/5)
        assert amplitude((F(1, 3), F(1, 5))) == F(323, 23)

    def test_coincident_roots(self):
        with pytest.raises(PoleError):
            amplitude((F(1, 3), F(1, 3)))

    def test_reflection_paired_roots(self):
        with pytest.raises(PoleError):
            amplitude((F(1, 3), F(-4, 3)))


class TestWavePart:
    def test_zero_from_later_site_factor(self):
        spec = line_spec()
        v = inhomogeneities(spec)
        assert wave_part(1, v[1], v, spec.boundary_q) == 0  # factor (z - v_2) with x=1 < 2

    def test_zero_from_boundary_factor(self):
        spec = line_spec()
        q = spec.boundary_q
        assert wave_part(1, q - 1, inhomogeneities(spec), q) == 0

    def test_structural_product(self):
        spec = line_spec()
        v, q = inhomogeneities(spec), spec.boundary_q
        z = F(5, 9)
        v1, v2 = v
        want = (q - z - 1) * (z + v1) * (z + v2) * (z - v2)
        assert wave_part(1, z, v, q) == want  # L even: leading sign +1


class TestWaveFunction:
    def test_empty_magnon_set(self):
        spec = line_spec()
        engine = WaveEngine(inhomogeneities(spec), (), spec.boundary_q)
        assert engine.upsilon(()) == 1

    def test_single_magnon_expansion(self):
        spec = line_spec(reflected=True)
        z1 = canonical_bethe_roots(spec).roots[0]
        v, q = inhomogeneities(spec), spec.boundary_q
        for x in (1, 2):
            assert wave_function(spec, (z1,), (x,)) == wave_part(x, z1, v, q) - wave_part(
                x, -z1 - 1, v, q
            )

    def test_symmetric_under_root_shuffle(self):
        spec = crossed_spec()
        roots = (F(5, 193), F(31, 193))
        for x in itertools.combinations(range(1, 5), 2):
            assert wave_function(spec, roots, x) == wave_function(spec, roots[::-1], x)

    def test_reflecting_an_input_root_negates(self):
        spec = crossed_spec()
        roots = (F(5, 193), F(31, 193))
        flipped = (-roots[0] - 1, roots[1])
        for x in itertools.combinations(range(1, 5), 2):
            assert wave_function(spec, flipped, x) == -wave_function(spec, roots, x)

    def test_reference_positions_nonzero_on_figure(self):
        fig = figure_lattice()
        engine = spec_wave_engine(fig)
        x0 = magnon_positions(fig, reference_config(4))
        assert engine.upsilon(x0) != 0

    def test_wrong_position_count(self):
        spec = crossed_spec()
        with pytest.raises(ValueError):
            wave_function(spec, canonical_bethe_roots(spec).roots, (1,))

    @pytest.mark.parametrize("x", [(1, 1, 2, 3), (0, 1, 2, 3), (3, 2, 1, 4), (1, 2, 3, 9)])
    def test_malformed_positions_rejected(self, x):
        fig = figure_lattice()
        with pytest.raises(ValueError):
            wave_function(fig, canonical_bethe_roots(fig).roots, x)

    @pytest.mark.parametrize("x", [(1.9, 2.5, 3, 4), (F(3, 2), 2, 3, 4), (True, 2, 3, 4)])
    def test_non_integer_positions_rejected(self, x):
        fig = figure_lattice()
        with pytest.raises(ValueError):
            wave_function(fig, canonical_bethe_roots(fig).roots, x)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_literal_sum_at_every_position_set(self, n):
        rng = random.Random(200 + n)
        for _ in range(2):
            spec = random_spec(rng, n)
            v = inhomogeneities(spec)
            for roots in (canonical_bethe_roots(spec).roots, off_shell_roots(rng, n)):
                want = brute_wave_sums(v, roots, spec.boundary_q)
                in_order = WaveEngine(v, roots, spec.boundary_q)
                assert {x: in_order.upsilon(x) for x in want} == want
                shuffled = list(want)
                rng.shuffle(shuffled)
                any_order = WaveEngine(v, roots, spec.boundary_q)
                assert {x: any_order.upsilon(x) for x in shuffled} == want

    @pytest.mark.parametrize("pair", [lambda z: (z, z), lambda z: (z, -z - 1)])
    def test_amplitude_poles_raise(self, pair):
        with pytest.raises(PoleError):
            wave_function(crossed_spec(), pair(F(5, 193)), (1, 2))

    @pytest.mark.parametrize("third", [lambda z: z, lambda z: -z - 1])
    def test_pole_between_outer_roots_raises_at_construction(self, third):
        z, v = F(5, 193), inhomogeneities(figure_lattice())
        roots = (z, F(31, 193), third(z))
        with pytest.raises(PoleError, match=re.escape(f"root pair ({z}, {third(z)})")):
            WaveEngine(v, roots, F(4, 5))

    @pytest.mark.parametrize("roots", [(0.1, F(1, 3)), ("1/5", F(1, 3)), (True, F(1, 3))])
    def test_non_rational_roots_rejected(self, roots):
        with pytest.raises(ValueError):
            wave_function(crossed_spec(), roots, (1, 2))

    def test_string_q_rejected(self):
        spec = crossed_spec()
        with pytest.raises(ValueError):
            WaveEngine(inhomogeneities(spec), (F(1, 5), F(1, 3)), "4/5")

    def test_int_roots_equal_fraction_roots(self):
        spec = crossed_spec()
        assert wave_function(spec, (2, 3), (1, 2)) == wave_function(spec, (F(2), F(3)), (1, 2))


class TestBaxterTermCount:
    """Baxter's sum of N! terms.  An unreflected line k has the canonical
    root -theta_k, which cancels the factor z + v_start of its start site,
    so every wave factor of that image, 2(k - 1), is 0."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_zero_wave_columns_are_the_unreflected_roots(self, n):
        for seed in range(3):
            spec = random_spec(random.Random(1000 * n + seed), n)
            phi = spec_wave_engine(spec)._phi
            zero = {w for w in range(2 * n) if not any(row[w] for row in phi)}
            assert zero == {2 * (k - 1) for k in range(1, n + 1) if not spec.is_reflected(k)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_reflected_line_leaves_at_most_n_factorial_terms(self, n):
        drawn = random_spec(random.Random(1100 + n), n)
        spec = LatticeSpec(drawn.chords, frozenset(), drawn.rapidities, drawn.boundary_q)
        terms = literal_terms(
            inhomogeneities(spec), canonical_bethe_roots(spec).roots, spec.boundary_q
        )
        counts = [sum(1 for t in ts if t) for ts in terms.values()]
        assert all(len(ts) == 2**n * math.factorial(n) for ts in terms.values())
        assert max(counts) <= math.factorial(n)
        assert any(counts)


class TestClosedWave:
    def test_single_magnon(self):
        v = (F(1, 3), F(-2, 5))
        z = (F(3, 7),)
        want = z[0] - v[1]  # x=1: only the j>x factor survives
        assert closed_wave(v, z, (1,)) == want

    def test_two_magnons_two_sites(self):
        v = (F(1, 3), F(-2, 5))
        z = (F(3, 7), F(4, 9))
        # x=(1,2): phi_1 = (z - v_2), phi_2 = (z - v_1 + 1)
        def term(z1, z2):
            amp = (z1 - z2 + 1) / (z1 - z2)
            return amp * (z1 - v[1]) * (z2 - v[0] + 1)

        assert closed_wave(v, z, (1, 2)) == term(*z) + term(*reversed(z))

    def test_coincident_roots(self):
        with pytest.raises(PoleError):
            closed_wave((F(1, 3), F(1, 5)), (F(1, 7), F(1, 7)), (1, 2))

    @pytest.mark.parametrize("x", [(1.9,), (F(3, 2),), (True,)])
    def test_non_integer_positions_rejected(self, x):
        with pytest.raises(ValueError):
            closed_wave((F(1, 3), F(-2, 5)), (F(3, 7),), x)

    def test_matches_single_row_creation_products(self):
        spec = crossed_spec()
        v = inhomogeneities(spec)
        roots = (F(5, 193), F(31, 193))
        state = reference_state(spec)
        for z in reversed(roots):
            state = apply_closed_b(spec, z, state)
        ends = {c.end for c in spec.chords}
        for positions in itertools.combinations(range(1, 5), 2):
            phi = closed_wave(v, roots, positions)
            # rotated basis state: end sites flip, each unexcited end gives -1
            labels = [1] * 4
            sign = 1
            for site in range(1, 5):
                if site in ends:
                    if site in positions:
                        labels[site - 1] = 1
                    else:
                        labels[site - 1] = 2
                        sign = -sign
                elif site in positions:
                    labels[site - 1] = 2
            assert component(state, labels) == sign * phi


class TestClosedExchange:
    def test_two_sites(self):
        assert check_closed_fcr(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 3), F(2, 5))

    def test_four_sites(self):
        assert check_closed_fcr(crossed_spec(), F(101, 193), F(57, 193))

    def test_pole(self):
        with pytest.raises(PoleError):
            check_closed_fcr(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 3), F(1, 3))


class TestCreationExpansion:
    def test_two_sites(self):
        assert check_b_expansion(line_spec(theta=F(2, 7), q=F(4, 5)), F(1, 4))

    def test_four_sites(self):
        assert check_b_expansion(crossed_spec(), F(2, 7))

    def test_pole(self):
        with pytest.raises(PoleError):
            check_b_expansion(line_spec(theta=F(2, 7), q=F(4, 5)), F(-1, 2))


class TestStateExpansion:
    def test_single_magnon(self):
        assert check_state_expansion(crossed_spec(), (F(5, 193),))

    def test_two_magnons(self):
        assert check_state_expansion(crossed_spec(), (F(5, 193), F(31, 193)))

    def test_two_reflection_sum_vanishes(self):
        rng = random.Random(29)
        for _ in range(10):
            q = F(rng.randint(1, 28), 29)
            zi, zj = random_z(rng), random_z(rng)
            if zi == zj or zi + zj + 1 == 0:
                continue
            assert two_reflection_sum(q, zi, zj) == 0


class TestZCba:
    def test_reference_normalization(self):
        for spec in (line_spec(), crossed_spec(), figure_lattice()):
            assert sweep(spec, [reference_config(spec.n)], ROUTES["cba"]) == [1]

    def test_reflected_line_value(self):
        spec = line_spec(reflected=True)
        assert sweep(spec, [ExternalConfig((2,), (2,))], ROUTES["cba"]) == [F(5, 7)]

    def test_zero_on_ice_violation(self):
        assert sweep(line_spec(), [ExternalConfig((1,), (2,))], ROUTES["cba"]) == [0]

    def test_state_assembly_matches_creation_route(self):
        specs = [line_spec(), crossed_spec(), crossed_spec(frozenset({1, 2})), figure_lattice()]
        specs += [random_spec(random.Random(300 + n), n) for n in (3, 4, 5)]
        for spec in specs:
            assert cba_state(spec) == solve_aba(spec).bethe_state

    def test_components_are_ints(self):
        for spec in (figure_lattice(), random_spec(random.Random(105), 5)):
            entries = wave_components(spec, ice_indices(spec))
            assert 0 in entries and all(type(x) is int for x in entries.values())

    def test_cross_method_six_lines(self):
        spec = random_spec(random.Random(101), 6)
        configs = list(all_configs(6))
        assert sweep(spec, configs, ROUTES["cba"]) == sweep(spec, configs, ROUTES["direct"])

    def test_cross_method_small_lattices(self):
        rng = random.Random(37)
        for _ in range(4):
            spec = random_spec(rng, rng.choice((1, 2)))
            configs = list(all_configs(spec.n))
            cba = sweep(spec, configs, ROUTES["cba"])
            assert cba == sweep(spec, configs, ROUTES["aba"])
            assert cba == sweep(spec, configs, ROUTES["direct"])

    def test_cross_method_eight_lines(self):
        spec = wide_spec(random.Random(109), 8)
        rng = random.Random(8)
        sample = [random_ice_config(rng, spec) for _ in range(100)]
        cba = sweep(spec, sample, ROUTES["cba"])
        assert any(x not in (0, 1) for x in cba)
        assert cba == sweep(spec, sample, ROUTES["direct"])

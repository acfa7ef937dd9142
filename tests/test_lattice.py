import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvb.errors import InvalidSpecError
from sixvb.fixtures import figure_lattice
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    config_to_dict,
    ice_rule_satisfied,
    inhomogeneities,
    initial_spec,
    magnon_positions,
    q_function,
    reference_config,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from sixvb.sampling import random_config, random_spec


def line_spec(reflected=False, theta=F(1, 3), q=F(2)):
    return LatticeSpec(
        chords=(Chord(2, 1),),
        reflected=frozenset({1}) if reflected else frozenset(),
        rapidities=(theta,),
        boundary_q=q,
    )


def _spec_with(chords=(Chord(2, 1),), reflected=frozenset(), rapidities=(F(1, 3),), q=F(2)):
    return LatticeSpec(chords=chords, reflected=reflected, rapidities=rapidities, boundary_q=q)


class TestStrictConstructors:
    """Malformed fields raise instead of being coerced."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: ExternalConfig((1.9,), (2,)), id="label-float"),
            pytest.param(lambda: ExternalConfig((1,), ("2",)), id="label-str"),
            pytest.param(lambda: ExternalConfig((True,), (2,)), id="label-bool"),
            pytest.param(lambda: ExternalConfig((1,), (F(2),)), id="label-fraction"),
            pytest.param(lambda: Chord(2.0, 1.0), id="chord-floats"),
            pytest.param(lambda: Chord(2, "1"), id="chord-str"),
            pytest.param(lambda: Chord(True, 1), id="chord-bool"),
            pytest.param(lambda: _spec_with(rapidities=(0.1,)), id="rapidity-float"),
            pytest.param(lambda: _spec_with(rapidities=("1/3",)), id="rapidity-str"),
            pytest.param(lambda: _spec_with(rapidities=(True,)), id="rapidity-bool"),
            pytest.param(lambda: _spec_with(q=0.5), id="q-float"),
            pytest.param(lambda: _spec_with(q="2"), id="q-str"),
            pytest.param(lambda: _spec_with(reflected={1.0}), id="reflected-float"),
            pytest.param(lambda: _spec_with(reflected={True}), id="reflected-bool"),
            pytest.param(lambda: _spec_with(reflected={"1"}), id="reflected-str"),
        ],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_int_and_fraction_parameters_accepted(self):
        spec = _spec_with(reflected={1}, rapidities=(3,), q=F(2, 5))
        assert spec.rapidities == (F(3),) and spec.boundary_q == F(2, 5)
        assert spec.reflected == frozenset({1})
        assert ExternalConfig([1, 2], (2, 1)).alpha == (1, 2)


class TestValidation:
    def test_figure_fixture_is_valid(self):
        assert validate_spec(figure_lattice()).ok

    def test_ordering_violation(self):
        spec = LatticeSpec(
            chords=(Chord(2, 1), Chord(4, 3)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        report = validate_spec(spec)
        assert not report.ok
        assert any("descending" in v for v in report.violations)

    def test_degenerate_rapidities(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(2, 7)),
            boundary_q=F(4, 5),
        )
        assert not validate_spec(spec).ok

    def test_duplicated_endpoint(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(4, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        report = validate_spec(spec)
        assert any("perfect matching" in v for v in report.violations)

    @pytest.mark.parametrize(
        "theta", [F(0), F(1, 2), F(-1, 2), F(1), F(-1)]
    )
    def test_special_rapidity_values(self, theta):
        assert not validate_spec(line_spec(theta=theta)).ok

    def test_rapidity_sum_hits_small_integer(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(5, 3), F(1, 3)),  # difference lands on 4/3? sum = 2
            boundary_q=F(4, 5),
        )
        assert not validate_spec(spec).ok

    def test_boundary_parameter_conditions(self):
        assert not validate_spec(line_spec(q=F(1, 2))).ok
        # q - theta = 1
        assert not validate_spec(line_spec(theta=F(1, 3), q=F(4, 3))).ok


class TestInhomogeneities:
    def test_line_unreflected(self):
        v = inhomogeneities(line_spec())
        assert v == (F(-2, 3), F(1, 3))

    def test_line_reflected(self):
        v = inhomogeneities(line_spec(reflected=True))
        assert v == (F(-4, 3), F(1, 3))

    def test_figure_fixture_assignment(self):
        fig = figure_lattice()
        t1, t2, t3, t4 = fig.rapidities
        v = inhomogeneities(fig)
        assert v[7] == t1 and v[2] == t1 - 1
        assert v[6] == t2 and v[0] == -t2 - 1
        assert v[5] == t3 and v[4] == -t3 - 1
        assert v[3] == t4 and v[1] == -t4 - 1

    def test_every_site_assigned(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = random_spec(rng, rng.choice((1, 2, 3, 4)))
            v = inhomogeneities(spec)
            assert len(v) == spec.length and all(x is not None for x in v)

    def test_invalid_spec_rejected(self):
        bad = LatticeSpec(
            chords=(Chord(2, 1),), reflected=frozenset(), rapidities=(F(1),), boundary_q=F(2)
        )
        with pytest.raises(InvalidSpecError):
            inhomogeneities(bad)


class TestBetheRoots:
    def test_reflected_branch(self):
        assert canonical_bethe_roots(line_spec(reflected=True)).roots == (F(1, 3),)

    def test_unreflected_branch(self):
        assert canonical_bethe_roots(line_spec()).roots == (F(-1, 3),)

    def test_figure_fixture_roots(self):
        fig = figure_lattice()
        t1, t2, t3, t4 = fig.rapidities
        assert canonical_bethe_roots(fig).roots == (-t1, t2, t3, t4)


class TestQFunction:
    def test_root_annihilates(self):
        assert q_function(line_spec(reflected=True), F(1, 3)) == 0

    def test_unreflected_value(self):
        assert q_function(line_spec(), F(0)) == F(2, 9)

    def test_reflection_symmetry_at_sample_point(self):
        fig = figure_lattice()
        z = F(2, 5)
        assert q_function(fig, z) == q_function(fig, -z - 1)

    @given(st.fractions(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_reflection_symmetry(self, z):
        fig = figure_lattice()
        assert q_function(fig, z) == q_function(fig, -z - 1)

    def test_matches_product_over_canonical_roots(self):
        rng = random.Random(23)
        for _ in range(3):
            spec = random_spec(rng, rng.choice((1, 2, 3)))
            roots = canonical_bethe_roots(spec).roots
            for _ in range(10):
                z = F(rng.randint(-50, 50), 193)
                want = F(1)
                for zi in roots:
                    want *= (z - zi) * (z + zi + 1)
                assert q_function(spec, z) == want


class TestMagnonsAndIce:
    def test_line_reference(self):
        assert magnon_positions(line_spec(), ExternalConfig((1,), (1,))) == (1,)

    def test_line_both_two(self):
        assert magnon_positions(line_spec(), ExternalConfig((2,), (2,))) == (2,)

    def test_figure_example(self):
        fig = figure_lattice()
        cfg = ExternalConfig((2, 1, 1, 1), (1, 1, 2, 2))
        assert magnon_positions(fig, cfg) == (1, 3, 8)

    def test_ice_reference(self):
        fig = figure_lattice()
        assert ice_rule_satisfied(fig, reference_config(4))

    def test_ice_line_mismatch(self):
        assert not ice_rule_satisfied(line_spec(), ExternalConfig((1,), (2,)))

    def test_ice_overfilled(self):
        spec = LatticeSpec(
            chords=(Chord(4, 2), Chord(3, 1)),
            reflected=frozenset(),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        assert not ice_rule_satisfied(spec, ExternalConfig((2, 2), (1, 1)))

    def test_ice_iff_magnon_count(self):
        rng = random.Random(31)
        for _ in range(20):
            spec = random_spec(rng, rng.choice((1, 2, 3)))
            cfg = random_config(rng, spec.n)
            assert ice_rule_satisfied(spec, cfg) == (
                len(magnon_positions(spec, cfg)) == spec.n
            )

    def test_all_configs_count(self):
        assert len(list(all_configs(3))) == 64


class TestJson:
    def test_spec_round_trip(self):
        fig = figure_lattice()
        assert spec_from_dict(spec_to_dict(fig)) == fig

    def test_config_round_trip(self):
        cfg = ExternalConfig((2, 1), (1, 2))
        assert config_to_dict(cfg) == {"alpha": [2, 1], "beta": [1, 2]}

    def test_initial_spec_keeps_parameters(self):
        fig = figure_lattice()
        init = initial_spec(fig)
        assert init.rapidities == fig.rapidities
        assert init.reflected == fig.reflected
        assert init.chords == (Chord(8, 7), Chord(6, 5), Chord(4, 3), Chord(2, 1))

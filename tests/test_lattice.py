import ast
import collections.abc
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvb import lattice
from sixvb.errors import DegenerateSpecError, InvalidSpecError
from sixvb.fixtures import figure_lattice
from sixvb.lattice import (
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    config_index,
    end_mask,
    ice_indices,
    ice_rule_satisfied,
    inhomogeneities,
    magnon_positions,
    q_function,
    reference_config,
    spec_from_dict,
    spec_to_dict,
    sweep,
    validate_spec,
)
from sixvb.contraction import build_invariant
from sixvb.monodromy import QuantumState, external_component
from sixvb.pipeline import compute_report, report_json
from sixvb.sampling import random_config, random_spec

from dense_reference import basis_index


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
            pytest.param(lambda: _spec_with(chords=((2, 1),)), id="chord-tuple"),
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
        with pytest.raises(InvalidSpecError) as info:
            LatticeSpec(
                chords=(Chord(2, 1), Chord(4, 3)),
                reflected=frozenset(),
                rapidities=(F(2, 7), F(3, 11)),
                boundary_q=F(4, 5),
            )
        assert any("descending" in v for v in info.value.violations)

    def test_degenerate_rapidities(self):
        with pytest.raises(InvalidSpecError):
            LatticeSpec(
                chords=(Chord(4, 2), Chord(3, 1)),
                reflected=frozenset(),
                rapidities=(F(2, 7), F(2, 7)),
                boundary_q=F(4, 5),
            )

    def test_duplicated_endpoint(self):
        with pytest.raises(InvalidSpecError) as info:
            LatticeSpec(
                chords=(Chord(4, 2), Chord(4, 1)),
                reflected=frozenset(),
                rapidities=(F(2, 7), F(3, 11)),
                boundary_q=F(4, 5),
            )
        assert any("perfect matching" in v for v in info.value.violations)

    @pytest.mark.parametrize(
        "theta", [F(0), F(1, 2), F(-1, 2), F(1), F(-1)]
    )
    def test_special_rapidity_values(self, theta):
        with pytest.raises(InvalidSpecError):
            line_spec(theta=theta)

    def test_rapidity_sum_hits_small_integer(self):
        with pytest.raises(InvalidSpecError):
            LatticeSpec(
                chords=(Chord(4, 2), Chord(3, 1)),
                reflected=frozenset(),
                rapidities=(F(5, 3), F(1, 3)),  # difference lands on 4/3? sum = 2
                boundary_q=F(4, 5),
            )

    def test_boundary_parameter_conditions(self):
        with pytest.raises(InvalidSpecError):
            line_spec(q=F(1, 2))
        # q - theta = 1
        with pytest.raises(InvalidSpecError):
            line_spec(theta=F(1, 3), q=F(4, 3))

    def test_spec_from_dict_rejects_non_generic_lattice(self):
        data = spec_to_dict(line_spec())
        data["lines"][0]["rapidity"] = "1/2"
        with pytest.raises(InvalidSpecError) as info:
            spec_from_dict(data)
        assert any("non-generic" in v for v in info.value.violations)

    def test_random_spec_rejects_reflected_line_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            random_spec(random.Random(1), 2, reflected=[5])


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
        with pytest.raises(InvalidSpecError):
            LatticeSpec(
                chords=(Chord(2, 1),), reflected=frozenset(), rapidities=(F(1),), boundary_q=F(2)
            )


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
        for i in range(6):
            spec = random_spec(rng, 1 + i)
            roots = canonical_bethe_roots(spec).roots
            for _ in range(10):
                z = F(rng.randint(-50, 50), 193)
                want = F(1)
                for zi in roots:
                    want *= (z - zi) * (z + zi + 1)
                assert q_function(spec, z) == want


class TestMagnonsAndIce:
    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(magnon_positions, id="magnon_positions"),
            pytest.param(ice_rule_satisfied, id="ice_rule_satisfied"),
            pytest.param(
                lambda spec, config: external_component(QuantumState(2, {1: 1}), spec, config),
                id="external_component",
            ),
            pytest.param(config_index, id="config_index"),
        ],
    )
    def test_config_of_wrong_length_rejected(self, read):
        with pytest.raises(ValueError, match="length 1"):
            read(line_spec(), ExternalConfig((1, 2), (1, 1)))

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_all_configs_equal_strictly_built_configs(self, n):
        """``all_configs`` skips the label check; its configs still equal,
        in order, those that pass it."""
        labels = [tuple(t) for t in itertools.product((1, 2), repeat=n)]
        strict = [ExternalConfig(a, b) for a in labels for b in labels]
        got = list(all_configs(n))
        assert got == strict
        assert all(type(c) is ExternalConfig for c in got)
        assert [hash(c) for c in got] == [hash(c) for c in strict]

    @pytest.mark.parametrize("n", range(5))
    def test_all_configs_is_a_sequence_read_on_demand(self, n):
        """The grid is a read-only sequence of 4^N configs whose item i,
        made when it is read, is the strictly built config, for a negative
        i too; past its end it raises ``IndexError``."""
        grid = all_configs(n)
        assert isinstance(grid, collections.abc.Sequence) and len(grid) == 4**n
        labels = [tuple(t) for t in itertools.product((1, 2), repeat=n)]
        strict = [ExternalConfig(a, b) for a in labels for b in labels]
        for i in range(-len(strict), len(strict)):
            assert grid[i] == strict[i] and type(grid[i]) is ExternalConfig
        for i in (4**n, -(4**n) - 1):
            with pytest.raises(IndexError):
                grid[i]

    @pytest.mark.parametrize("label", [0, 3, True, "1"])
    def test_config_constructor_stays_strict(self, label):
        with pytest.raises(ValueError, match="state labels"):
            ExternalConfig((1, label), (1, 2))
        with pytest.raises(ValueError, match="state labels"):
            ExternalConfig((1, 2), (label, 1))


class TestConfigIndex:
    """A config is read once as the chain basis index of its placed labels."""

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(figure_lattice(), id="figure"),
            pytest.param(random_spec(random.Random(41), 4), id="random-41"),
        ],
    )
    def test_index_magnons_and_ice_rule_agree(self, spec):
        mask, length = end_mask(spec), spec.length
        ice = []
        for config in all_configs(spec.n):
            labels = [0] * length
            for chord, a, b in zip(spec.chords, config.alpha, config.beta):
                labels[chord.start - 1], labels[chord.end - 1] = a, b
            k = config_index(spec, config)
            assert k == basis_index(labels)
            bits = k ^ mask
            assert magnon_positions(spec, config) == tuple(
                s for s in range(1, length + 1) if bits >> (length - s) & 1
            )
            assert ice_rule_satisfied(spec, config) == (bits.bit_count() == spec.n)
            if ice_rule_satisfied(spec, config):
                ice.append(k)
        assert config_index(spec, reference_config(spec.n)) == 0
        assert sorted(ice_indices(spec)) == sorted(ice)


def _label_reads(tree) -> list:
    """Line numbers of every ``.alpha`` or ``.beta`` attribute read."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("alpha", "beta")
    ]


def test_only_lattice_maps_config_labels():
    """Inside the package only ``lattice`` reads the labels of a config
    (and ``cli`` and ``pipeline.report_json``, which print them), so the
    config-to-site mapping has one home."""
    assert _label_reads(ast.parse("c.alpha\nx = c.beta[0]\nc.alpha_val")) == [1, 2]
    src = Path(lattice.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name in ("lattice.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        printed = set()
        if path.name == "pipeline.py":
            (writer,) = [f for f in tree.body if getattr(f, "name", None) == "report_json"]
            printed = set(_label_reads(writer))
        reads = [line for line in _label_reads(tree) if line not in printed]
        offenders += [f"{path.relative_to(src)}:{line}" for line in reads]
    assert offenders == []


class TestSweep:
    """``sweep`` on stand-in routes of the one-line lattice, whose configs
    are the reference (1,1) at chain index 0, (2,2) at index 3, and (1,2),
    (2,1) that break the ice rule."""

    CONFIGS = [ExternalConfig((a,), (b,)) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))]

    @staticmethod
    def route(values, calls=None):
        """A route whose entries are ``values``, given by (alpha, beta);
        each call's keys are appended to ``calls``."""
        table = {
            config_index(line_spec(), ExternalConfig((a,), (b,))): x for (a, b), x in values.items()
        }

        def route(spec, keys):
            if calls is not None:
                calls.append(list(keys))
            return table

        return route

    @pytest.mark.parametrize(
        "values, z22",
        [
            pytest.param({(1, 1): 3, (2, 2): 2}, F(2, 3), id="int"),
            pytest.param({(1, 1): -3, (2, 2): 2}, F(-2, 3), id="negative-int-norm"),
            pytest.param({(1, 1): F(3, 2), (2, 2): F(1, 4)}, F(1, 6), id="fraction"),
            pytest.param({(1, 1): 5, (2, 2): 0}, F(0), id="zero"),
        ],
    )
    def test_one_fraction_per_config(self, values, z22):
        values = {**values, (1, 2): 7, (2, 1): F(5, 3)}
        calls = []
        got = sweep(line_spec(), self.CONFIGS, self.route(values, calls))
        assert got == [1, 0, 0, z22]
        assert all(type(v) is F for v in got)
        assert calls == [[0, 3]]

    def test_ice_breaking_configs_read_zero_without_a_component(self):
        def route(spec, keys):
            raise AssertionError("no config satisfies the ice rule")

        got = sweep(line_spec(), self.CONFIGS[1:3], route)
        assert got == [0, 0] and all(type(v) is F for v in got)

    @pytest.mark.parametrize(
        "configs",
        [
            pytest.param([ExternalConfig((1, 2), (1, 1))], id="alpha-first"),
            pytest.param([ExternalConfig((1,), (2, 2))], id="beta-first"),
            pytest.param([ExternalConfig((1,), (1,)), ExternalConfig((2,), ())], id="after-valid"),
        ],
    )
    def test_config_of_wrong_length_rejected(self, configs):
        with pytest.raises(ValueError, match="length 1"):
            sweep(line_spec(), configs, self.route({(1, 1): 3, (2, 2): 2}))

    @pytest.mark.parametrize("as_list", [False, True], ids=["grid", "list"])
    def test_grid_of_wrong_length_rejected(self, as_list):
        configs = all_configs(2)
        with pytest.raises(ValueError, match="length 1"):
            sweep(line_spec(), list(configs) if as_list else configs, self.route({(1, 1): 3}))

    def test_equal_label_tuples_read_alike(self):
        """Label tuples are looked up by value: a config built from new tuple
        objects equal to those seen reads the same value."""
        fig = figure_lattice()
        configs = list(all_configs(fig.n))
        fresh = [ExternalConfig(tuple(list(c.alpha)), tuple(list(c.beta))) for c in configs]
        assert all(f.alpha is not c.alpha for f, c in zip(fresh, configs))
        table = build_invariant(fig).entries
        values = sweep(fig, configs + fresh, lambda spec, keys: table)
        assert values[: len(configs)] == values[len(configs):]
        assert any(values)

    def test_vanishing_reference_component_raises(self):
        with pytest.raises(DegenerateSpecError, match="reference component vanished"):
            sweep(line_spec(), self.CONFIGS, self.route({(1, 1): 0, (2, 2): 2}))


class TestJson:
    def test_spec_round_trip(self):
        fig = figure_lattice()
        assert spec_from_dict(spec_to_dict(fig)) == fig

    def test_config_round_trip(self):
        cfg = ExternalConfig((2, 1), (1, 2))
        report = compute_report(random_spec(random.Random(31), 2), [cfg], ("direct",))
        (row,) = json.loads(report_json(report))["configs"]
        assert row == {"alpha": [2, 1], "beta": [1, 2], "z": {"direct": str(report.values["direct"][0])}}

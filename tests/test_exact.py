import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvb import aba, contraction, exact, monodromy
from sixvb.exact import format_rational, parse_rational, rational
from sixvb.fixtures import figure_lattice
from sixvb.lattice import BetheRootSet, q_function
from sixvb.monodromy import QuantumState, apply_open_b, reference_state

from dense_reference import ExactMatrix, closed_wave, pair_factor

_FIG = figure_lattice()


class TestParse:
    def test_reduces_to_canonical_form(self):
        x = parse_rational("2/4")
        assert x == F(1, 2)
        assert x.numerator == 1 and x.denominator == 2

    def test_integer_form(self):
        assert parse_rational("-3") == F(-3)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("5/0")

    @pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/-2", "1/2/3", "+ 1"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip(self):
        for text in ["0", "-3", "1/2", "-22/7", "100000000000/13"]:
            assert format_rational(parse_rational(text)) == text


class TestFieldOps:
    def test_examples(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)
        assert F(2, 7) * F(7, 2) == 1
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)

    def test_axioms_on_random_draws(self):
        rng = random.Random(7)

        def draw():
            return F(rng.randint(-999, 999), rng.randint(1, 999))

        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    @given(st.fractions(), st.fractions())
    @settings(max_examples=100)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a


def _random_matrix(rng, rows, cols):
    return ExactMatrix(
        tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols))
            for _ in range(rows)
        )
    )


class TestMatrices:
    def test_identity_apply(self):
        v = ExactMatrix(((F(1, 2),), (F(-3),), (F(0),), (F(7, 5),)))
        assert ExactMatrix.identity(4) @ v == v

    def test_tensor_of_identities(self):
        i2 = ExactMatrix.identity(2)
        assert i2.tensor(i2) == ExactMatrix.identity(4)

    def test_tensor_block_convention(self):
        a = ExactMatrix(((1, 2), (3, 4)))
        b = ExactMatrix(((5, 6), (7, 8)))
        t = a.tensor(b)
        # entry ((i)n+k, (j)n+l) = A[i,j] * B[k,l]
        assert t[0, 0] == 5 and t[0, 2] == 10 and t[3, 1] == 24 and t[3, 2] == 28

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: ExactMatrix(((0.5, "1/3"),)), id="float-and-str"),
            pytest.param(lambda: ExactMatrix(((True, 0),)), id="bool"),
            pytest.param(lambda: ExactMatrix.identity(2).scale(0.5), id="scale-float"),
        ],
    )
    def test_non_rational_entries_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_int_entries_equal_fraction_entries(self):
        assert ExactMatrix(((1, 0),)) == ExactMatrix(((F(1), F(0)),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _ = _random_matrix(random.Random(0), 2, 3) @ _random_matrix(random.Random(1), 2, 2)

    def test_associativity_on_vectors(self):
        rng = random.Random(3)
        for _ in range(5):
            a = _random_matrix(rng, 8, 8)
            b = _random_matrix(rng, 8, 8)
            v = _random_matrix(rng, 8, 1)
            assert (a @ b) @ v == a @ (b @ v)

    def test_tensor_mixed_product(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b, c, d = (_random_matrix(rng, 2, 2) for _ in range(4))
            assert a.tensor(b) @ c.tensor(d) == (a @ c).tensor(b @ d)


class TestRationalGate:
    """Every public function taking a rational accepts int or Fraction only."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: QuantumState(1, {0: 1}, 0.5), id="state-scale-float"),
            pytest.param(lambda: BetheRootSet((0.1,)), id="root-set-float"),
            pytest.param(lambda: closed_wave((0.5, "1/3"), (F(1, 4),), (1,)), id="closed-wave"),
            pytest.param(lambda: aba.h_a_coeff(0.5, "1/3"), id="h-a-coeff"),
            pytest.param(lambda: pair_factor(0.5, F(1, 3)), id="pair-factor"),
            pytest.param(lambda: contraction.check_ybe(0.5, F(1, 3), 0), id="check-ybe"),
            pytest.param(lambda: format_rational(0.5), id="format-float"),
            pytest.param(lambda: q_function(_FIG, "1/3"), id="q-function-str"),
            pytest.param(lambda: aba.bethe_state(_FIG, (0.1,)), id="bethe-state"),
            pytest.param(lambda: apply_open_b(_FIG, 0.5, reference_state(_FIG)), id="apply-open-b"),
            pytest.param(lambda: monodromy.check_unitarity(True), id="bool"),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_int_argument_equals_fraction(self):
        assert rational(3, "x") == F(3) and type(rational(3, "x")) is F
        assert aba.h_a_coeff(2, F(1, 3)) == aba.h_a_coeff(F(2), F(1, 3))
        assert contraction.check_bybe(2, F(1, 3), 5) and contraction.check_bybe(F(2), F(1, 3), F(5))
        assert monodromy._r_rows(2) == monodromy._r_rows(F(2))


class TestIntegerGate:
    """Chain lengths, basis indices and root indices must be ints; a bool
    is not one."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: QuantumState(True, {0: 1}), id="state-length-bool"),
            pytest.param(lambda: QuantumState(1.0, {0: 1}), id="state-length-float"),
            pytest.param(lambda: QuantumState(1, {True: 1}), id="state-index-bool"),
            pytest.param(lambda: QuantumState(1, {1.0: 1}), id="state-index-float"),
            pytest.param(lambda: aba.unwanted_terms(_FIG, F(1, 3), True), id="unwanted-k"),
            pytest.param(lambda: aba.unwanted_terms_from_fcr(_FIG, F(1, 3), 1.0), id="fcr-k"),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()


def _coercions(tree) -> list:
    """Line numbers of ``Fraction(x)`` calls whose one argument is not a numeric literal."""

    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
        and len(node.args) + len(node.keywords) == 1
        and not (node.args and literal(node.args[0]))
    ]


class TestOneConversionPath:
    def test_only_the_gate_converts(self):
        """No module but ``exact.rational`` turns an argument into a Fraction."""
        flagged = "Fraction(x)\nfractions.Fraction('1/3')\nFraction(*a)"
        assert _coercions(ast.parse(flagged)) == [1, 2, 3]
        assert _coercions(ast.parse("Fraction(0); Fraction(-1); Fraction(a, b)")) == []
        src = Path(exact.__file__).parent
        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path == src / "exact.py":
                tree.body = [n for n in tree.body if getattr(n, "name", None) != "rational"]
            offenders += [f"{path.relative_to(src)}:{line}" for line in _coercions(tree)]
        assert offenders == []

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvb.exact import ExactMatrix, format_rational, parse_rational


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

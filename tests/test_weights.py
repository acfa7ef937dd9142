import random
from fractions import Fraction as F

import pytest

from sixvb import weights
from sixvb.errors import PoleError
from sixvb.exact import ExactMatrix
from sixvb.weights import (
    ANTISYMMETRIZER,
    PERMUTATION,
    S_MATRIX,
    SINGLET_Y,
    check_bootstrap,
    check_bybe,
    check_special_points,
    check_transpose,
    check_unitarity,
    check_ybe,
    embed_pair,
    k_matrix,
    lax_matrix,
    r_matrix,
    site_transpose,
)


class TestRMatrix:
    def test_zero_argument_is_permutation(self):
        assert r_matrix(F(0)) == PERMUTATION

    def test_unit_argument(self):
        half = F(1, 2)
        want = ExactMatrix(
            ((1, 0, 0, 0), (0, half, half, 0), (0, half, half, 0), (0, 0, 0, 1))
        )
        assert r_matrix(F(1)) == want

    def test_pole(self):
        with pytest.raises(PoleError):
            r_matrix(F(-1))

    def test_middle_block_row_sums(self):
        rng = random.Random(1)
        for _ in range(10):
            theta = F(rng.randint(1, 100), 193)
            m = r_matrix(theta)
            assert m[1, 1] + m[1, 2] == 1
            assert m[2, 1] + m[2, 2] == 1


class TestKMatrix:
    def test_zero_argument_is_identity(self):
        assert k_matrix(F(0), F(2)) == ExactMatrix.identity(2)

    def test_equal_parameters(self):
        assert k_matrix(F(2), F(2)) == ExactMatrix.diagonal((1, 0))

    def test_example_value(self):
        assert k_matrix(F(1), F(2)) == ExactMatrix.diagonal((1, F(1, 3)))

    def test_pole(self):
        with pytest.raises(PoleError):
            k_matrix(F(-2), F(2))


class TestYangBaxter:
    def test_generic_triple(self):
        assert check_ybe(F(1, 2), F(1, 3), F(0))

    def test_permutation_point(self):
        assert check_ybe(F(0), F(0), F(0))

    def test_pole(self):
        with pytest.raises(PoleError):
            check_ybe(F(1, 2), F(3, 2), F(0))

    def test_random_draws_with_sign_flips(self):
        rng = random.Random(5)
        draws = 0
        while draws < 20:
            ts = [F(rng.randint(-96, 96) or 1, 97) for _ in range(3)]
            variants = [
                (s1 * ts[0], s2 * ts[1], s3 * ts[2])
                for s1 in (1, -1)
                for s2 in (1, -1)
                for s3 in (1, -1)
            ]
            if any(a - b == -1 or a - c == -1 or b - c == -1 for a, b, c in variants):
                continue
            draws += 1
            assert all(check_ybe(*v) for v in variants)


class TestBoundaryYangBaxter:
    def test_generic(self):
        assert check_bybe(F(1, 3), F(1, 5), F(7, 2))

    def test_equal_rapidities(self):
        assert check_bybe(F(1, 3), F(1, 3), F(7, 2))

    def test_pole(self):
        with pytest.raises(PoleError):
            check_bybe(F(1, 3), F(1, 5), F(-1, 3))

    def test_random_draws(self):
        rng = random.Random(6)
        for _ in range(20):
            t1 = F(rng.randint(1, 96), 97)
            t2 = F(rng.randint(1, 96), 97)
            q = F(rng.randint(1, 28), 29)
            assert check_bybe(t1, t2, q)


class TestLocalBlocks:
    def test_unitarity_values(self):
        z = F(1, 2)
        prod = lax_matrix(z) @ lax_matrix(-z)
        assert prod == ExactMatrix.identity(4).scale(F(3, 4))
        assert check_unitarity(z)

    def test_unitarity_at_zero_and_one(self):
        assert check_unitarity(F(0))  # permutation squares to identity
        assert check_unitarity(F(1))  # product collapses to the zero matrix

    @pytest.mark.parametrize("z", [F(0), F(2, 7), F(-1)])
    def test_transpose_identity(self, z):
        assert check_transpose(z)

    def test_bootstrap_scalar_values(self):
        for z, scalar in [(F(1, 2), F(-3, 4)), (F(1), F(0)), (F(3), F(8))]:
            assert (z + 1) * (z - 1) == scalar
            assert check_bootstrap(z)

    def test_bootstrap_fails_with_shifted_local_blocks(self, monkeypatch):
        real = weights.lax_matrix
        monkeypatch.setattr(weights, "lax_matrix", lambda z, conjugate=False: real(z + F(1, 7), conjugate))
        assert not check_bootstrap(F(2, 7))

    def test_special_points(self):
        assert check_special_points()
        assert lax_matrix(F(0)) == PERMUTATION
        assert lax_matrix(F(-1)) == ANTISYMMETRIZER.scale(-2)
        assert ANTISYMMETRIZER @ ANTISYMMETRIZER == ANTISYMMETRIZER

    def test_s_squares_to_minus_identity(self):
        assert S_MATRIX @ S_MATRIX == ExactMatrix.identity(2).scale(-1)

    def test_s_conjugation_maps_plain_to_conjugate(self):
        rng = random.Random(9)
        i2 = ExactMatrix.identity(2)
        s_site = i2.tensor(S_MATRIX)
        s_site_inv = i2.tensor(S_MATRIX.scale(-1))  # S^{-1} = -S
        for _ in range(10):
            z = F(rng.randint(-90, 90), 193)
            assert s_site @ lax_matrix(z) @ s_site_inv == lax_matrix(z, conjugate=True)

    def test_site_transpose_involution(self):
        m = lax_matrix(F(2, 5))
        assert site_transpose(site_transpose(m)) == m

    def test_singlet_outer_product(self):
        yyt = ExactMatrix(
            tuple(tuple(SINGLET_Y[i] * SINGLET_Y[j] for j in range(4)) for i in range(4))
        )
        assert ANTISYMMETRIZER.scale(2) == yyt


class TestEmbedding:
    def test_pair_embedding_matches_tensor(self):
        m = r_matrix(F(2, 7))
        assert embed_pair(m, 3, (0, 1)) == m.tensor(ExactMatrix.identity(2))
        assert embed_pair(m, 3, (1, 2)) == ExactMatrix.identity(2).tensor(m)

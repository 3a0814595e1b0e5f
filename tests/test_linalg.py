
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphain.errors import NoConvergenceError, NotOrthonormalError, RankDeficientError
from graphain.linalg import (
    SpectralFilterParams,
    principal_subspace_distance,
    soft_spectral_filter,
    sym_eig,
)
from graphain.oracles import orthonormal_projection


def _random_rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestSymEig:
    def test_identity(self):
        values, u = sym_eig(np.eye(3))
        assert values == pytest.approx([1.0, 1.0, 1.0])
        recon = (u * values) @ u.T
        assert np.abs(recon - np.eye(3)).max() <= 1e-12

    def test_diagonal_input(self):
        values, u = sym_eig(np.diag([4.0, 1.0]))
        assert values == pytest.approx([1.0, 4.0])
        assert np.abs(np.abs(u) - np.eye(2)[::-1]).max() <= 1e-12

    def test_construct_then_recover(self):
        for seed in range(10):
            d = 2 + seed % 7
            q = _random_rotation(d, seed)
            lam = np.sort(np.random.default_rng(seed + 50).uniform(0.1, 5.0, d))
            s = (q * lam) @ q.T
            values, u = sym_eig(s)
            assert np.abs(values - lam).max() <= 1e-9
            recon = (u * values) @ u.T
            assert np.linalg.norm(recon - s) <= 1e-9 * np.linalg.norm(s)

    def test_orthogonality_of_vectors(self):
        s = np.random.default_rng(7).standard_normal((6, 6))
        s = s + s.T
        _, u = sym_eig(s)
        assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-10

    def test_eigenvalue_sum_equals_trace(self):
        for seed in range(8):
            m = np.random.default_rng(seed).standard_normal((5, 5))
            s = m + m.T
            values, _ = sym_eig(s)
            assert abs(values.sum() - np.trace(s)) <= 1e-9 * max(
                1.0, abs(np.trace(s))
            )

    def test_ascending_order(self):
        s = np.diag([1.0, 5.0, 3.0])
        values, _ = sym_eig(s)
        assert list(values) == sorted(values)

    def test_zero_matrix(self):
        values, _ = sym_eig(np.zeros((3, 3)))
        assert values == pytest.approx([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_no_convergence(self, bad):
        for s in (np.full((3, 3), bad), np.diag([1.0, bad, 2.0])):
            with pytest.raises(NoConvergenceError, match="non-finite"):
                sym_eig(s)

    def test_lapack_failure_is_wrapped(self):
        # s + s^T overflows every entry to inf and LAPACK fails; its flag
        # reaches numpy as a warning, as an error under the "error" filter,
        # or as FloatingPointError under errstate(invalid="raise")
        s = np.full((3, 3), 0.6 * np.finfo(np.float64).max)
        for invalid, action in (("warn", "ignore"), ("warn", "error"), ("raise", "ignore")):
            with warnings.catch_warnings(), np.errstate(invalid=invalid, over="ignore"):
                warnings.simplefilter(action)
                with pytest.raises(NoConvergenceError, match="did not converge"):
                    sym_eig(s)


class TestSoftSpectralFilter:
    def test_hard_reduction(self, rng):
        b = rng.standard_normal((10, 4))
        params = SpectralFilterParams(a=1.0, b=1.0, d0=4)
        out = soft_spectral_filter(b, params)
        hard = orthonormal_projection(b)
        assert np.abs(out - hard).max() <= 1e-9
        assert np.abs(out.T @ out - np.eye(4)).max() <= 1e-8

    def test_a_zero_is_identity_exactly(self, rng):
        b = rng.standard_normal((7, 3))
        out = soft_spectral_filter(b, SpectralFilterParams(a=0.0, b=1.0, d0=3))
        assert np.array_equal(out, b)

    def test_b_zero_full_width_is_identity(self, rng):
        b = rng.standard_normal((9, 3))
        out = soft_spectral_filter(b, SpectralFilterParams(a=0.7, b=0.0, d0=3))
        assert np.abs(out - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_singular_value_map(self):
        # columns scaled to singular values (2, 0.5); the map under a=0.5,
        # b=1 sends s to 0.5 s + 0.5, giving (1.5, 0.75)
        b = np.zeros((6, 2))
        b[0, 0] = 2.0
        b[1, 1] = 0.5
        out = soft_spectral_filter(b, SpectralFilterParams(a=0.5, b=1.0, d0=2))
        sv = np.linalg.svd(out, compute_uv=False)
        assert sv == pytest.approx([1.5, 0.75], abs=1e-9)

    def test_singular_value_map_general(self):
        svals = np.array([3.0, 1.2, 0.4])
        q = _random_rotation(3, 11)
        b = np.zeros((8, 3))
        b[:3, :3] = np.diag(svals)
        b = b @ q.T
        a, bexp = 0.6, 0.5
        out = soft_spectral_filter(b, SpectralFilterParams(a=a, b=bexp, d0=3))
        expect = np.sort((1 - a) * svals + a * svals ** (1 - bexp))[::-1]
        sv = np.linalg.svd(out, compute_uv=False)
        assert np.abs(sv - expect).max() <= 1e-9

    def test_truncation_passes_tail_scaled(self):
        # channels beyond d0 only see the (1 - a) identity part
        b = np.zeros((5, 2))
        b[0, 0] = 2.0
        b[1, 1] = 1.0
        out = soft_spectral_filter(b, SpectralFilterParams(a=0.5, b=1.0, d0=1))
        sv = np.sort(np.linalg.svd(out, compute_uv=False))[::-1]
        assert sv == pytest.approx([1.5, 0.5], abs=1e-9)

    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("bexp", [0.0, 0.5, 1.0])
    def test_matches_svd_formula(self, a, bexp):
        # independent route: with b = P S V^T from the SVD, the filter is
        # (1 - a) b + a P_k S_k^(1-bexp) V_k^T on the top k = d0 channels
        for seed in range(4):
            b = np.random.default_rng(seed).standard_normal((12, 6))
            p, svals, vt = np.linalg.svd(b, full_matrices=False)
            for d0 in (1, 3, 5):
                out = soft_spectral_filter(b, SpectralFilterParams(a=a, b=bexp, d0=d0))
                kept = (p[:, :d0] * svals[:d0] ** (1.0 - bexp)) @ vt[:d0]
                expect = (1.0 - a) * b + a * kept
                assert np.abs(out - expect).max() <= 1e-10 * np.abs(b).max()

    def test_degenerate_zero_input(self):
        with pytest.raises(RankDeficientError):
            soft_spectral_filter(
                np.zeros((4, 2)), SpectralFilterParams(a=1.0, b=1.0, d0=2)
            )

    def test_hard_whitening_rejects_rank_deficient_input(self):
        # centred and rank 1 but not zero: dropping the null channel would
        # return a layer whose Gram is 0.8 away from the identity
        v = np.arange(10.0) - 4.5
        b = np.column_stack([v, 2.0 * v])
        with pytest.raises(RankDeficientError, match="keeps 1 of 2 eigenchannels"):
            soft_spectral_filter(b, SpectralFilterParams(a=1.0, b=1.0, d0=2))
        soft = soft_spectral_filter(b, SpectralFilterParams(a=1.0, b=0.5, d0=2))
        assert np.isfinite(soft).all()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SpectralFilterParams(a=1.5, b=0.0, d0=1)
        with pytest.raises(ValueError):
            SpectralFilterParams(a=0.5, b=-0.1, d0=1)
        with pytest.raises(ValueError):
            SpectralFilterParams(a=0.5, b=0.5, d0=0)


class TestOrthonormalProjection:
    def test_fixed_point(self):
        q = _random_rotation(5, 2)[:, :3]
        assert np.abs(orthonormal_projection(q) - q).max() <= 1e-12

    def test_scale_invariance(self):
        q = _random_rotation(6, 4)[:, :2]
        assert np.abs(orthonormal_projection(3.7 * q) - q).max() <= 1e-12

    def test_matches_gram_route(self, rng):
        for seed in range(10):
            m = np.random.default_rng(seed).standard_normal((9, 4))
            via_svd = orthonormal_projection(m)
            via_gram = soft_spectral_filter(m, SpectralFilterParams(a=1.0, b=1.0, d0=4))
            assert np.abs(via_svd - via_gram).max() <= 1e-8

    def test_idempotent(self, rng):
        m = rng.standard_normal((8, 3))
        once = orthonormal_projection(m)
        assert np.abs(orthonormal_projection(once) - once).max() <= 1e-12

    def test_rank_deficient(self):
        m = np.ones((4, 2))
        with pytest.raises(RankDeficientError):
            orthonormal_projection(m)


class TestPrincipalSubspaceDistance:
    def test_same_basis_is_zero(self):
        q = _random_rotation(7, 5)[:, :3]
        assert principal_subspace_distance(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_within_span_is_zero(self):
        q = _random_rotation(7, 6)[:, :3]
        r = _random_rotation(3, 8)
        assert principal_subspace_distance(q @ r, q) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_unit_vectors(self):
        h = np.array([[1.0], [0.0]])
        u = np.array([[0.0], [1.0]])
        assert principal_subspace_distance(h, u) == pytest.approx(1.0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            principal_subspace_distance(np.ones((3, 1)), np.ones((3, 1)))

    @given(st.integers(0, 100))
    def test_symmetry(self, seed):
        local = np.random.default_rng(seed)
        a = orthonormal_projection(local.standard_normal((8, 2)))
        b = orthonormal_projection(local.standard_normal((8, 2)))
        assert principal_subspace_distance(a, b) == pytest.approx(
            principal_subspace_distance(b, a), abs=1e-10
        )

import json

import numpy as np
import pytest
from scipy.integrate import quad

from mbmlt.cli import main
from mbmlt.operator import _correlation_values, covariance_matrix, mh_indicator
from mbmlt.specfun import HurstFunctional, gamma_factor

from .oracles import (correlation_entry, fourier_inner_product, h_inner_product,
                      isometry_quadrature, mh_apply)


class TestMhIndicator:
    def test_degenerate_interval(self):
        u = np.linspace(-3, 3, 11)
        assert np.all(mh_indicator(0.75, 0.0, u) == 0.0)

    def test_closed_form_point(self):
        # interior point u = t/2: both terms equal (t/2)^{H-1/2}
        expected = gamma_factor(0.75) / 0.25 * 2.0 * 0.5 ** 0.25
        assert mh_indicator(0.75, 1.0, 0.5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.9735688556156861, rel=1e-13)

    def test_matches_defining_quadrature(self):
        # closed form vs gamma(H) int |y|^{H-3/2} 1_[0,t)(u+y) dy
        H, t = 0.75, 1.0
        ind = lambda x: 1.0 if 0.0 <= x < t else 0.0
        for u in np.linspace(-2.0, 3.0, 11):
            via_quad = mh_apply(H, ind, u, breaks=(0.0, t), tail=10.0)
            assert via_quad == pytest.approx(mh_indicator(H, t, u), abs=1e-6)

    def test_continuity_at_kinks(self):
        # the kernel has a cusp |u - edge|^{H-1/2} at the interval ends, so
        # the two-sided difference at offset eps shrinks like eps^{H-1/2};
        # check it against that modulus (an absolute 1e-6 is unattainable)
        eps = 1e-9
        for H in (0.55, 0.75, 0.95):
            p = H - 0.5
            modulus = 2.0 * gamma_factor(H) / p * eps ** p
            for edge in (0.0, 1.0):
                left = mh_indicator(H, 1.0, edge - eps)
                right = mh_indicator(H, 1.0, edge + eps)
                assert abs(left - right) <= 1.5 * modulus

    def test_continuity_shrinks_with_offset(self):
        for H in (0.55, 0.95):
            gaps = [
                abs(mh_indicator(H, 1.0, -eps) - mh_indicator(H, 1.0, eps))
                for eps in (1e-3, 1e-6, 1e-9, 1e-12)
            ]
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("H", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_isometry(self, H, t):
        val = isometry_quadrature(lambda u: mh_indicator(H, t, u), t)
        assert val == pytest.approx(t ** (2 * H), rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            mh_indicator(0.4, 1.0, 0.0)
        with pytest.raises(ValueError):
            mh_indicator(0.75, -1.0, 0.0)

    def test_array_domain(self):
        with pytest.raises(ValueError):
            mh_indicator(np.array([0.75, 0.4]), 1.0, 0.0)
        with pytest.raises(ValueError):
            mh_indicator(0.75, np.array([1.0, -1.0]), 0.0)

    def test_broadcast_over_h_and_t(self):
        # one call for many (H, t) pairs equals one call per pair
        H = np.array([0.55, 0.7, 0.95])
        t = np.array([0.0, 0.3, 1.0])
        u = np.linspace(-2.0, 3.0, 11)
        got = mh_indicator(H[:, None], t[:, None], u)
        assert got.shape == (3, 11)
        for Hk, tk, row in zip(H, t, got):
            assert row == pytest.approx(mh_indicator(Hk, tk, u), rel=1e-14, abs=0.0)


class TestMhApply:
    def test_linearity(self):
        H = 0.7
        f = lambda x: np.exp(-0.5 * (x - 0.3) ** 2)
        g = lambda x: np.exp(-2.0 * x ** 2)
        combo = lambda x: 2.0 * f(x) - 0.5 * g(x)
        for x in (-0.5, 0.4, 1.2):
            direct = mh_apply(H, combo, x)
            parts = 2.0 * mh_apply(H, f, x) - 0.5 * mh_apply(H, g, x)
            assert direct == pytest.approx(parts, rel=1e-8)

    def test_self_adjoint(self):
        # int f (M_H g) = int (M_H f) g for Gaussian bumps
        H = 0.75
        f = lambda x: np.exp(-0.5 * x ** 2)
        g = lambda x: 0.8 * np.exp(-1.5 * (x - 0.6) ** 2)
        lhs, _ = quad(lambda x: f(x) * mh_apply(H, g, x), -8, 8, limit=100,
                      epsabs=1e-9)
        rhs, _ = quad(lambda x: mh_apply(H, f, x) * g(x), -8, 8, limit=100,
                      epsabs=1e-9)
        assert lhs == pytest.approx(rhs, rel=1e-5)


class TestHInnerProduct:
    def test_diagonal(self, h_linear):
        grid = np.array([0.2, 0.7, 1.0])
        R = covariance_matrix(grid, h_linear).values
        assert np.diag(R) == pytest.approx(grid ** (2 * h_linear(grid)), rel=1e-12)

    def test_constant_h_reduces_to_fbm(self, h_const_07):
        H = 0.7
        for t, s in [(0.3, 0.7), (0.1, 0.9), (0.5, 0.5)]:
            fbm = 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))
            assert h_inner_product(t, s, h_const_07) == pytest.approx(fbm, rel=1e-12)

    def test_fourier_oracle_linear_h(self, h_linear):
        t, s = 0.3, 0.7
        oracle = fourier_inner_product(t, s, h_linear(t), h_linear(s))
        R = covariance_matrix([t, s], h_linear).values
        assert R[0, 1] == pytest.approx(oracle, rel=1e-4)

    def test_fourier_oracle_constant_h(self, h_const_07):
        for t, s in [(0.3, 0.7), (0.2, 1.0)]:
            oracle = fourier_inner_product(t, s, 0.7, 0.7)
            R = covariance_matrix([t, s], h_const_07).values
            assert R[0, 1] == pytest.approx(oracle, rel=1e-4)


class TestCorrelation:
    @pytest.mark.parametrize("h, T", [
        (HurstFunctional.linear(0.55, 0.2), 1.0),
        (HurstFunctional.sinusoidal(0.7, 0.15, 6.0), 1.0),
        (HurstFunctional.constant(0.7, T=1e220), 1e220),
        (HurstFunctional.constant(0.7, T=1e-300), 1e-300),
    ], ids=["linear", "sin", "const-1e220", "const-1e-300"])
    def test_matches_40_digit_oracle(self, h, T):
        # rho is a function of ratios of grid times: the same error at every T
        grid = np.arange(1, 257) * (T / 256)
        rho, scale = _correlation_values(grid, h)
        hv = h(grid)
        assert np.array_equal(scale, grid ** hv)
        rng = np.random.default_rng(8)
        i, j = rng.integers(0, 256, size=(2, 300))
        ref = [correlation_entry(grid[a], grid[b], hv[a], hv[b]) for a, b in zip(i, j)]
        assert np.max(np.abs(rho[i, j] - ref)) <= 5e-15
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diagonal(rho) == 1.0)


class TestCovarianceMatrix:
    def test_single_point(self, h_linear):
        cov = covariance_matrix([0.5], h_linear)
        assert cov.values[0, 0] == pytest.approx(0.5 ** (2 * h_linear(0.5)))

    def test_constant_h_matches_fbm(self, h_const_07):
        grid = np.linspace(0.1, 1.0, 8)
        cov = covariance_matrix(grid, h_const_07)
        T, S = np.meshgrid(grid, grid, indexing="ij")
        fbm = 0.5 * (T ** 1.4 + S ** 1.4 - np.abs(T - S) ** 1.4)
        assert np.allclose(cov.values, fbm, rtol=1e-12)

    def test_psd_linear_h(self, h_linear):
        grid = np.linspace(1 / 64, 1.0, 64)
        cov = covariance_matrix(grid, h_linear)
        assert cov.min_eigenvalue == np.linalg.eigvalsh(cov.values)[0]
        assert cov.min_eigenvalue >= -1e-8 * np.trace(cov.values)

    @pytest.mark.parametrize("h", [
        HurstFunctional.linear(0.55, 0.2),
        HurstFunctional.sinusoidal(0.7, 0.15, 6.0),
    ], ids=["linear", "sin"])
    def test_matches_scalar_inner_product(self, h):
        # the broadcast against the scalar reference, entry by entry
        grid = np.arange(1, 65) / 64
        R = covariance_matrix(grid, h).values
        ref = np.array([[h_inner_product(t, s, h) for s in grid] for t in grid])
        assert np.max(np.abs(R - ref) / np.abs(ref)) <= 1e-13
        assert np.array_equal(R, R.T)

    def test_bad_grid(self, h_const_07):
        with pytest.raises(ValueError):
            covariance_matrix([0.5, 0.3], h_const_07)
        with pytest.raises(ValueError):
            covariance_matrix([0.0, 0.5], h_const_07)
        with pytest.raises(ValueError, match="nonempty"):
            covariance_matrix([], h_const_07)

    def test_csv_roundtrip(self, h_const_07, tmp_path):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({"hurst": {"const": 0.7}, "s": 4}))
        assert main(["covariance", "--config", str(cfg_path), "--out", str(out)]) == 0
        grid = np.linspace(0.25, 1.0, 4)
        cov = covariance_matrix(grid, h_const_07)
        text = (out / "covariance.csv").read_text()
        expected = ["t," + ",".join(f"{t:.17g}" for t in grid)]
        expected += [f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row)
                     for t, row in zip(grid, cov.values)]
        assert text == "\n".join(expected) + "\n"
        rows = text.strip().split("\n")
        back = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        assert np.array_equal(back, cov.values)  # 17 digits round-trips doubles

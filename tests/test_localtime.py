import math

import numpy as np
import pytest

from mbmlt.errors import AdmissibilityError
from mbmlt.localtime import (
    LocalTimeEstimate,
    RegularizationParams,
    delta_eps,
    expected_local_time,
    local_time_mc,
    occupation_histogram,
)
from mbmlt.simulate import SimulationConfig, simulate_exact
from mbmlt.specfun import HurstFunctional

from .oracles import expected_local_time_quad


class TestDeltaEps:
    def test_origin_value(self):
        # (2 pi eps)^{-d/2} at x = 0
        assert delta_eps(np.zeros(2), 0.5) == pytest.approx(1.0 / (2 * math.pi * 0.5))

    def test_frozen_1d(self):
        # eps = 0.16: (2 pi 0.16)^{-1/2} = 0.9973557010035817
        assert delta_eps(np.zeros(1), 0.16) == pytest.approx(
            0.9973557010035817, rel=1e-13
        )

    def test_normalization(self):
        # integrates to 1 over R (trapezoid on a wide fine grid)
        x = np.linspace(-10, 10, 20001)[:, None]
        total = np.trapezoid(delta_eps(x, 0.3), x[:, 0])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_batch_shape(self):
        x = np.zeros((5, 7, 3))
        out = delta_eps(x, 1.0)
        assert out.shape == (5, 7)

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_eps(np.zeros(1), 0.0)


class TestRegularizationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizationParams(eps=-1.0)
        with pytest.raises(ValueError):
            RegularizationParams(eps=0.1, N=2)


class TestExpectedLocalTime:
    def test_frozen_value(self):
        # d=1, h = 0.6, eps = 0: int_0^1 (2 pi)^{-1/2} t^{-0.6} dt
        #                        = (2 pi)^{-1/2} / 0.4
        h = HurstFunctional.constant(0.6)
        assert expected_local_time(h, 0.0, 1.0, 1) == pytest.approx(
            0.9973557010035817, rel=1e-10
        )

    HURST = {
        "const06": HurstFunctional.constant(0.6),
        "const07": HurstFunctional.constant(0.7),
        "linear": HurstFunctional.linear(0.55, 0.2),
        "sin": HurstFunctional.sinusoidal(0.7, 0.15, 6.0),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("hname", sorted(HURST))
    def test_matches_quad_oracle(self, hname, d):
        # eps = 0 exists only while d sup h < 1, so for d = 1
        h = self.HURST[hname]
        for eps in (0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6) + ((0.0,) if d == 1 else ()):
            assert expected_local_time(h, eps, 1.0, d) == pytest.approx(
                expected_local_time_quad(h, eps, 1.0, d), rel=1e-10)

    def test_eps_zero_divergence(self):
        h = HurstFunctional.constant(0.6)
        with pytest.raises(AdmissibilityError):
            expected_local_time(h, 0.0, 1.0, 2)

    def test_monotone_in_eps(self, h_linear):
        vals = [expected_local_time(h_linear, e, 1.0, 2) for e in (0.5, 0.1, 0.02)]
        assert vals[0] < vals[1] < vals[2]

    def test_partial_horizon(self, h_const_07):
        full = expected_local_time(h_const_07, 0.1, 1.0, 1)
        half = expected_local_time(h_const_07, 0.1, 0.5, 1)
        assert 0 < half < full

    def test_domain(self, h_const_07):
        with pytest.raises(ValueError):
            expected_local_time(h_const_07, -0.1, 1.0, 1)
        with pytest.raises(ValueError):
            expected_local_time(h_const_07, 0.1, 2.0, 1)


class TestLocalTimeMC:
    N_PATHS = 2000

    def _paths(self, h, d=1, s=256, seed=100):
        cfg = SimulationConfig(h=h, s=s, n_paths=self.N_PATHS, d=d, seed=seed)
        return simulate_exact(cfg)

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_matches_expectation_d1(self, h_const_07, eps):
        paths = self._paths(h_const_07)
        est = local_time_mc(paths, RegularizationParams(eps=eps))
        target = expected_local_time(h_const_07, eps, 1.0, 1)
        assert abs(est.estimate - target) < 4 * est.stderr

    def test_matches_expectation_d2(self, h_linear):
        paths = self._paths(h_linear, d=2, seed=101)
        est = local_time_mc(paths, RegularizationParams(eps=0.1))
        target = expected_local_time(h_linear, 0.1, 1.0, 2)
        assert abs(est.estimate - target) < 4 * est.stderr

    def test_centered_when_truncated(self, h_const_07):
        paths = self._paths(h_const_07, seed=102)
        est = local_time_mc(paths, RegularizationParams(eps=0.2, N=1))
        assert abs(est.estimate) < 4 * est.stderr

    def test_truncation_shifts_by_expectation(self, h_const_07):
        paths = self._paths(h_const_07, seed=103)
        raw = local_time_mc(paths, RegularizationParams(eps=0.2, N=0))
        cen = local_time_mc(paths, RegularizationParams(eps=0.2, N=1))
        shift = expected_local_time(h_const_07, 0.2, 1.0, 1)
        assert raw.estimate - cen.estimate == pytest.approx(shift, rel=1e-12)

    def test_deterministic(self, h_const_07):
        paths = self._paths(h_const_07, seed=104)
        a = local_time_mc(paths, RegularizationParams(eps=0.3))
        b = local_time_mc(paths, RegularizationParams(eps=0.3))
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_resolution_warning(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=4, seed=105)
        paths = simulate_exact(cfg)
        with pytest.warns(UserWarning, match="resolution"):
            local_time_mc(paths, RegularizationParams(eps=1e-4))


class TestOccupationHistogram:
    def test_total_mass_is_horizon(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=128, n_paths=50, seed=200)
        paths = simulate_exact(cfg)
        edges = np.linspace(-6, 6, 61)  # covers every path comfortably
        edges_out, dens = occupation_histogram(paths, edges)
        assert np.array_equal(edges_out, edges)
        assert np.sum(dens * np.diff(edges)) == pytest.approx(1.0, rel=1e-12)

    def test_agrees_with_gaussian_local_time(self, h_const_07):
        # smoothing the histogram near 0 with the eps-kernel approximates
        # the regularized local time at the origin
        cfg = SimulationConfig(h=h_const_07, s=256, n_paths=2000, seed=201)
        paths = simulate_exact(cfg)
        edges = np.linspace(-6, 6, 401)
        _, dens = occupation_histogram(paths, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        eps = 0.2
        smoothed = np.sum(dens * delta_eps(centers[:, None], eps) * np.diff(edges))
        est = local_time_mc(paths, RegularizationParams(eps=eps))
        assert smoothed == pytest.approx(est.estimate, rel=2e-2)

    def test_requires_1d(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=2, d=2, seed=202)
        paths = simulate_exact(cfg)
        with pytest.raises(ValueError):
            occupation_histogram(paths, np.linspace(-3, 3, 10))

    def test_bad_bins(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=2, seed=203)
        paths = simulate_exact(cfg)
        with pytest.raises(ValueError):
            occupation_histogram(paths, [0.0, -1.0, 1.0])

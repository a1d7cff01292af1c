import math
import tracemalloc

import numpy as np
import pytest

from mbmlt import localtime as localtime_module
from mbmlt.errors import AdmissibilityError, NumericalError
from mbmlt.localtime import _check_mc_args, delta_eps, expected_local_time, local_time_mc
from mbmlt.simulate import MbmPathSet, SimulationConfig, simulate_exact
from mbmlt.specfun import HurstFunctional

from .oracles import expected_local_time_hyp2f1, expected_local_time_quad, local_time_mc_whole


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
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                delta_eps(np.zeros(1), eps)

    @pytest.mark.parametrize("x", [1e154, 1e200])
    def test_zero_where_the_exponent_overflows(self, x):
        # |x|^2 / (2 eps) passes the floats at 1e154, |x|^2 itself at 1e200;
        # the suite makes a RuntimeWarning an error
        assert delta_eps(x, 0.1) == 0.0
        assert delta_eps([0.0, x], 0.1) == 0.0
        assert np.array_equal(delta_eps(np.array([[x], [-x]]), 0.1), [0.0, 0.0])


class TestMcArgs:
    def test_validation(self):
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                _check_mc_args([0.1, eps], 0)
        for eps in ([], ()):
            with pytest.raises(ValueError, match="empty"):
                _check_mc_args(eps, 0)
        with pytest.raises(ValueError):
            _check_mc_args([0.1], 2)
        _check_mc_args([0.1, 1e-6], 1)

    def test_local_time_mc_checks_first(self, h_const_07):
        paths = simulate_exact(SimulationConfig(h=h_const_07, s=8, n_paths=4, seed=1))
        for eps, N in (([-1.0], 0), ([0.1], 2), ([], 0)):
            with pytest.raises(ValueError):
                local_time_mc(paths, eps, N)


class TestExpectedLocalTime:
    def test_frozen_value(self):
        # d=1, h = 0.6, eps = 0: int_0^1 (2 pi)^{-1/2} t^{-0.6} dt
        #                        = (2 pi)^{-1/2} / 0.4
        h = HurstFunctional.constant(0.6)
        assert expected_local_time(h, 0.0, 1) == pytest.approx(
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
            assert expected_local_time(h, eps, d) == pytest.approx(
                expected_local_time_quad(h, eps, d), rel=1e-10)

    def test_eps_zero_divergence(self):
        h = HurstFunctional.constant(0.6)
        with pytest.raises(AdmissibilityError):
            expected_local_time(h, 0.0, 2)

    def test_monotone_in_eps(self, h_linear):
        vals = [expected_local_time(h_linear, e, 2) for e in (0.5, 0.1, 0.02)]
        assert vals[0] < vals[1] < vals[2]

    def test_partial_horizon(self, h_const_07):
        # a shorter horizon is an h built on it
        full = expected_local_time(h_const_07, 0.1, 1)
        h_half = HurstFunctional(T=0.5, eval=h_const_07.eval)
        half = expected_local_time(h_half, 0.1, 1)
        assert 0 < half < full
        assert half == pytest.approx(expected_local_time_quad(h_half, 0.1, 1), rel=1e-10)

    @pytest.mark.parametrize("T", [1.0, 1e4, 1e8, 1e50, 1e200])
    def test_long_horizon_matches_closed_form(self, T):
        # past T = 1e8 the crossover 0.1^(1/1.4) is far below T, and the rule
        # takes the eps = 0 grading; grading 2 did not converge there
        value = expected_local_time(HurstFunctional.constant(0.7, T=T), 0.1, 1)
        assert value == pytest.approx(expected_local_time_hyp2f1(0.7, T, 0.1, 1), rel=2e-15)

    @pytest.mark.parametrize("T", [1e20, 1e50])
    def test_first_node_past_the_crossover_raises(self, T):
        # d = 2: 1 + e0 = 1 - 2 h(0) < 0, so eps > 0 keeps grading 2 and the
        # density holds its mass below the crossover 0.1^(1/1.4) = 0.19; every
        # doubling's first node T v^2 lies above it.  At T = 1e50 every rule
        # sums to about 1e-17, against 0.88, so the doublings would agree
        with pytest.raises(NumericalError, match="crossover"):
            expected_local_time(HurstFunctional.constant(0.7, T=T), 0.1, 2)

    @pytest.mark.parametrize("T", [1e4, 1e6, 3e6])
    def test_crossover_resolved_by_a_finer_rule(self, T):
        # at T = 3e6 the first node of the 48-panel rule, 0.22, lies above
        # the crossover 0.19; the doublings past it resolve the peak
        value = expected_local_time(HurstFunctional.constant(0.7, T=T), 0.1, 2)
        assert value == pytest.approx(expected_local_time_hyp2f1(0.7, T, 0.1, 2), rel=1e-10)

    def test_not_converged_raises(self, h_const_07, monkeypatch):
        # no doubling: one panel count has nothing to agree with
        monkeypatch.setattr(localtime_module, "_EXPECTATION_DOUBLINGS", 0)
        with pytest.raises(NumericalError, match="not converged"):
            expected_local_time(h_const_07, 0.1, 1)

    def test_domain(self, h_const_07):
        with pytest.raises(ValueError):
            expected_local_time(h_const_07, -0.1, 1)


class TestLocalTimeMC:
    N_PATHS = 2000

    def _paths(self, h, d=1, s=256, seed=100):
        cfg = SimulationConfig(h=h, s=s, n_paths=self.N_PATHS, d=d, seed=seed)
        return simulate_exact(cfg)

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_matches_expectation_d1(self, h_const_07, eps):
        paths = self._paths(h_const_07)
        est, se, target = local_time_mc(paths, [eps])
        assert target[0] == expected_local_time(h_const_07, eps, 1)
        assert abs(est[0] - target[0]) < 4 * se[0]

    def test_matches_expectation_d2(self, h_linear):
        paths = self._paths(h_linear, d=2, seed=101)
        est, se, target = local_time_mc(paths, [0.1])
        assert target[0] == expected_local_time(h_linear, 0.1, 2)
        assert abs(est[0] - target[0]) < 4 * se[0]

    def test_centered_when_truncated(self, h_const_07):
        paths = self._paths(h_const_07, seed=102)
        est, se, target = local_time_mc(paths, [0.2], N=1)
        assert target[0] == 0.0
        assert abs(est[0]) < 4 * se[0]

    def test_truncation_shifts_by_expectation(self, h_const_07):
        paths = self._paths(h_const_07, seed=103)
        raw, raw_se, raw_target = local_time_mc(paths, [0.2], N=0)
        cen, cen_se, _ = local_time_mc(paths, [0.2], N=1)
        shift = expected_local_time(h_const_07, 0.2, 1)
        assert raw_target[0] == shift
        assert raw[0] - cen[0] == pytest.approx(shift, rel=1e-12)
        assert cen_se[0] == pytest.approx(raw_se[0], rel=1e-12)

    def test_long_horizon_stays_in_the_floats(self):
        # at T = 1e200 a path's local time is about 1e198, whose square
        # passes the floats; the spread is taken in units of T
        h = HurstFunctional.constant(0.7, T=1e200)
        paths = simulate_exact(SimulationConfig(h=h, s=64, n_paths=20, seed=3))
        with pytest.warns(UserWarning, match="grid resolution"):
            est, se, target = local_time_mc(paths, [0.1])
        assert np.isfinite([est, se, target]).all() and se[0] > 0
        assert target[0] == pytest.approx(expected_local_time_hyp2f1(0.7, 1e200, 0.1, 1),
                                          rel=2e-15)

    def test_deterministic(self, h_const_07):
        paths = self._paths(h_const_07, seed=104)
        a = local_time_mc(paths, [0.3])
        b = local_time_mc(paths, [0.3])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("N", [0, 1])
    def test_eps_list_equals_one_call_per_eps(self, h_linear, N):
        # a two-eps call is two one-eps calls, bit for bit, target included
        paths = self._paths(h_linear, d=2, s=64, seed=106)
        both = local_time_mc(paths, [0.2, 0.05], N)
        singles = [local_time_mc(paths, [eps], N) for eps in (0.2, 0.05)]
        for k in range(3):
            assert both[k].tolist() == [single[k][0] for single in singles]
        assert both[2].tolist() == ([0.0, 0.0] if N == 1 else
                                    [expected_local_time(h_linear, e, 2) for e in (0.2, 0.05)])

    # paths per block; None keeps the default, one block of all 7 paths
    @pytest.mark.parametrize("block_paths", [None, 1, 3])
    @pytest.mark.parametrize("N", [0, 1])
    def test_blocks_match_whole_array(self, h_linear, N, block_paths, monkeypatch):
        cfg = SimulationConfig(h=h_linear, s=50, n_paths=7, d=2, seed=107)
        paths = simulate_exact(cfg)
        if block_paths is not None:  # a (paths, d, s + 1) float buffer per block
            monkeypatch.setattr(localtime_module, "_BLOCK_BYTES", block_paths * 8 * 2 * 51)
        blocked = local_time_mc(paths, [0.3, 0.05], N)
        whole = local_time_mc_whole(paths, [0.3, 0.05], N)
        assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))

    def test_peak_memory_bounded_by_input(self, h_linear, rng):
        # the reduction holds one block of paths, not a padded copy of all
        cfg = SimulationConfig(h=h_linear, s=1024, n_paths=500, d=2)
        paths = MbmPathSet(cfg, rng.standard_normal((500, 2, 1024)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            local_time_mc(paths, [0.1, 0.01])
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra <= paths.values.nbytes / 2

    def test_resolution_warning(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=4, seed=105)
        paths = simulate_exact(cfg)
        with pytest.warns(UserWarning, match="resolution") as record:
            local_time_mc(paths, [1e-4, 0.5, 1e-3])
        # one warning per eps below the floor (8^-1.4 = 0.054)
        assert [str(w.message).split()[0] for w in record] == ["eps=0.0001", "eps=0.001"]

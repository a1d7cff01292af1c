import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as sp_gamma

from mbmlt.errors import AdmissibilityError
from mbmlt.specfun import (
    HurstFunctional,
    _gamma_1_3,
    gamma_factor,
    hermite_function,
    minimal_truncation,
    normalizing_constant,
    require_truncation_bound,
    truncation_bound,
)

from .oracles import gauss_hermite_inner, hermite_direct


class TestGammaOneThree:
    """Gamma on [1, 3], the only range the constants C(x) and gamma(H) need."""

    def test_dense_grid_against_math_gamma(self):
        x = np.linspace(1.0, 3.0, 200_001)
        ref = np.array([math.gamma(v) for v in x.tolist()])
        assert np.max(np.abs(_gamma_1_3(x) / ref - 1.0)) <= 4e-15

    def test_exact_at_the_integers(self):
        assert _gamma_1_3(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 1.0, 2.0]

    def test_constants_match_the_scipy_formula(self):
        x = np.linspace(0.0, 1.0, 20_001)[1:-1]
        ref = np.sqrt(2 * np.pi / (sp_gamma(2 * x + 1) * np.sin(np.pi * x)))
        assert np.max(np.abs(normalizing_constant(x) / ref - 1.0)) <= 4e-15
        H = np.linspace(0.5, 1.0, 20_001)[1:-1]
        ref = np.sqrt(sp_gamma(2 * H + 1) * np.sin(np.pi * H)) / (
            2 * sp_gamma(H - 0.5) * np.cos(np.pi * (H - 0.5) / 2))
        assert np.max(np.abs(gamma_factor(H) / ref - 1.0)) <= 4e-15


class TestNormalizingConstant:
    def test_half(self):
        # Gamma(2) = 1, sin(pi/2) = 1
        assert normalizing_constant(0.5) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-14)

    def test_three_quarters(self):
        # frozen from Gamma(5/2) = 3 sqrt(pi)/4, sin(3 pi/4) = sqrt(2)/2
        assert normalizing_constant(0.75) == pytest.approx(2.5854094580322607, rel=1e-13)

    @pytest.mark.parametrize("x", [0.55, 0.95])
    def test_finite_positive(self, x):
        c = normalizing_constant(x)
        assert np.isfinite(c) and c > 0

    @pytest.mark.parametrize("x", [-0.1, 0.0, 1.0, 1.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            normalizing_constant(x)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_defining_identity(self, x):
        c = normalizing_constant(x)
        assert c ** 2 * sp_gamma(2 * x + 1) * math.sin(math.pi * x) == pytest.approx(
            2 * math.pi, rel=1e-12
        )


class TestGammaFactor:
    def test_vanishes_at_half(self):
        # Gamma(H - 1/2) pole: gamma_factor -> 0 as H -> 1/2+
        assert abs(gamma_factor(0.5 + 1e-9)) < 1e-8

    def test_frozen_values(self):
        assert gamma_factor(0.75) == pytest.approx(0.14472187625540384, rel=1e-13)
        assert gamma_factor(0.9) == pytest.approx(0.20054477317132445, rel=1e-13)

    @pytest.mark.parametrize("H", [0.5, 1.0, 0.3, 1.2])
    def test_domain(self, H):
        with pytest.raises(ValueError):
            gamma_factor(H)

    @pytest.mark.parametrize("H", [0.5, 1.0, 0.3, 1.2])
    def test_array_domain(self, H):
        with pytest.raises(ValueError):
            gamma_factor(np.array([0.75, H]))

    def test_array_matches_scalar(self):
        H = np.linspace(0.51, 0.99, 49)
        got = gamma_factor(H)
        assert got.shape == H.shape
        for Hk, gk in zip(H, got):
            assert gk == pytest.approx(gamma_factor(float(Hk)), rel=1e-14)


class TestHermiteFunction:
    def test_ground_state(self):
        assert hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_odd_at_zero(self):
        assert hermite_function(1, 0.0) == 0.0

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("k", range(9))
    def test_orthonormality(self, j, k):
        val = gauss_hermite_inner(j, k, hermite_function)
        assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)

    @pytest.mark.parametrize("k", range(11))
    def test_matches_direct_definition(self, k):
        for x in np.linspace(-4.0, 4.0, 20):
            assert hermite_function(k, x) == pytest.approx(
                hermite_direct(k, x), abs=1e-9
            )

    def test_extreme_argument_underflows_to_zero(self):
        assert hermite_function(3, 60.0) == 0.0

    def test_negative_index(self):
        with pytest.raises(ValueError):
            hermite_function(-1, 0.0)


class TestHurstFunctional:
    def test_range_violation(self):
        with pytest.raises(AdmissibilityError):
            HurstFunctional.constant(0.45)
        with pytest.raises(AdmissibilityError):
            HurstFunctional.linear(0.6, 0.5)  # exceeds 1 at t = 0.8

    def test_sinusoidal_wide_range_rejected(self):
        # amplitude takes the range below 1/2
        with pytest.raises(AdmissibilityError):
            HurstFunctional.sinusoidal(0.4, 0.5, 5 * math.pi)

    def test_discontinuous_rejected(self):
        step = lambda t: np.where(t < 0.5, 0.6, 0.8)
        with pytest.raises(AdmissibilityError):
            HurstFunctional(T=1.0, eval=step)

    @pytest.mark.parametrize("h, reference", [
        (HurstFunctional.constant(0.7), lambda t: 0.7 + 0.0 * t),
        (HurstFunctional.linear(0.55, 0.2, T=2.0), lambda t: 0.55 + 0.2 * t),
        (HurstFunctional.sinusoidal(0.7, 0.15, 6.0, T=3.0),
         lambda t: 0.7 + 0.15 * np.sin(6.0 * t)),
    ], ids=["const", "linear", "sin"])
    def test_array_evaluation_matches_reference(self, h, reference):
        grid = np.linspace(0.0, h.T, 10_000)
        assert np.array_equal(h(grid), reference(grid))
        # a scalar time goes through the same expression
        assert h(0.3) == pytest.approx(float(reference(np.float64(0.3))), rel=1e-15)
        assert isinstance(h(0.3), float)

    def test_custom_eval_takes_arrays(self):
        h = HurstFunctional(T=1.0, eval=lambda t: 0.7 + 0.1 * np.cos(3.0 * t))
        grid = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(h(grid), 0.7 + 0.1 * np.cos(3.0 * grid))
        assert h(0.3) == pytest.approx(0.7 + 0.1 * math.cos(0.9), rel=1e-15)
        assert h.sup == pytest.approx(0.8)

    def test_scalar_only_eval_rejected_at_construction(self):
        # eval must map an array of times to an array of the same shape
        with pytest.raises(TypeError):
            HurstFunctional(T=1.0, eval=lambda t: 0.7 + 0.1 * math.cos(3.0 * t))
        with pytest.raises(ValueError, match="same shape") as exc:
            HurstFunctional(T=1.0, eval=lambda t: 0.7)
        assert exc.type is ValueError  # not the AdmissibilityError subclass

    def test_call_and_sup(self, h_linear):
        assert h_linear(0.0) == pytest.approx(0.55)
        assert h_linear(1.0) == pytest.approx(0.75)
        assert h_linear.sup == pytest.approx(0.75, abs=1e-6)

    def test_from_config(self):
        h = HurstFunctional.from_config({"const": 0.7})
        assert h(0.3) == 0.7
        h = HurstFunctional.from_config({"linear": {"a": 0.55, "b": 0.2}})
        assert h(0.5) == pytest.approx(0.65)
        h = HurstFunctional.from_config({"sin": {"a": 0.7, "b": 0.05, "omega": 3.0}})
        assert h(0.0) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            HurstFunctional.from_config({"spline": []})

    def test_out_of_horizon(self, h_const_07):
        with pytest.raises(ValueError):
            h_const_07(1.5)


class TestCheckA2:
    """The truncation bound sup h < (1+2N)/(2N+d), condition A2."""

    def test_d1_passes(self, h_const_06):
        assert truncation_bound(0, 1) == 1.0
        require_truncation_bound(h_const_06, N=0, d=1)

    def test_d3_fails(self, h_const_06):
        assert truncation_bound(0, 3) == pytest.approx(1 / 3)
        with pytest.raises(AdmissibilityError):
            require_truncation_bound(h_const_06, N=0, d=3)

    @pytest.mark.parametrize("N, d", [(-1, 1), (0, 0), (2, -1)])
    def test_domain(self, N, d):
        with pytest.raises(ValueError):
            truncation_bound(N, d)

    def test_require_truncation_bound(self, h_const_06):
        require_truncation_bound(h_const_06, N=2, d=3)
        with pytest.raises(AdmissibilityError, match="minimal N = 2"):
            require_truncation_bound(h_const_06, N=1, d=3)

    def test_minimal_truncation_d3(self, h_const_06):
        # N=1 gives bound 3/5 = 0.6, not strictly above; N=2 gives 5/7
        assert minimal_truncation(h_const_06, d=3) == 2
        assert h_const_06.sup < truncation_bound(2, 3)

    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_minimal_truncation_is_first_admitted(self, sup, d):
        # the closed form against the predicate the old n_max loop tested
        h = HurstFunctional.constant(sup)
        N = minimal_truncation(h, d)

        def admits(n):
            return sup < truncation_bound(n, d)

        assert admits(N)
        assert N == 0 or not admits(N - 1)
        assert not any(admits(n) for n in range(min(N, 10_001)))

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_N(self, N, d):
        h = HurstFunctional.constant(0.72)
        if h.sup < truncation_bound(N, d):
            assert h.sup < truncation_bound(N + 1, d)

    def test_bound_nondecreasing(self):
        for d in (1, 2, 3):
            bounds = [truncation_bound(N, d) for N in range(10)]
            assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

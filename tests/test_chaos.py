import itertools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mbmlt.chaos
from mbmlt.chaos import (
    GaussianBump,
    HermiteCombination,
    TestFunction,
    _a_table,
    _graded_nodes,
    _grading_exponent,
    _power_term,
    _TimeRule,
    chaos_pairing,
    convergence_eps,
    exp_trunc,
    kernel_eval,
    s_transform_local_time,
)
from mbmlt.errors import AdmissibilityError, NumericalError
from mbmlt.localtime import delta_eps, expected_local_time, local_time_mc
from mbmlt.operator import mh_indicator
from mbmlt.simulate import SimulationConfig, simulate_exact
from mbmlt.specfun import HurstFunctional, hermite_function, truncation_bound

from .oracles import (chaos_pairing_every_order, chaos_term, exp_tail_series, exp_trunc_exact,
                      mh_apply)


class TestExpTrunc:
    def test_frozen_value(self):
        # exp(-1/2) - 1 + 1/2 = 0.10653065971263342
        assert exp_trunc(2, -0.5) == pytest.approx(0.10653065971263342, rel=1e-14)

    def test_order_zero_is_exp(self):
        x = np.array([-3.0, -0.2, 0.0, 0.4, 2.0])
        assert np.allclose(exp_trunc(0, x), np.exp(x), rtol=1e-15)

    @pytest.mark.parametrize("N", [0, 1, 2, 5])
    @pytest.mark.parametrize("x", [-4.0, -0.3, -1e-4, 0.2, 3.0])
    def test_matches_series_oracle(self, N, x):
        assert exp_trunc(N, x) == pytest.approx(exp_tail_series(N, x), rel=1e-12, abs=0.0)

    def test_no_cancellation_for_small_argument(self):
        # naive exp(x) - head loses all digits here; the tail series must not
        x = -1e-9
        assert exp_trunc(3, x) == pytest.approx(x ** 3 / 6.0, rel=1e-9, abs=0.0)

    @given(st.integers(min_value=0, max_value=6),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_recursion_identity(self, N, x):
        # exp_N(x) = exp_{N+1}(x) + x^N / N!
        lhs = exp_trunc(N, x)
        rhs = exp_trunc(N + 1, x) + x ** N / math.factorial(N)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_trunc(-1, 0.0)

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 20, 30, 100, 171, 200])
    def test_matches_exact_oracle(self, N):
        # both branches and their boundary |x| = N + 1, for N past the
        # factorials a float holds, wherever the result is a normal float.
        # Tiny tails such as N = 20 at x = 0.3 or -1 must keep their
        # relative precision, and their sign
        x = np.array([-250.0, -100.0, -30.0, -10.0, -3.0, -1.0, -0.6, -0.5, -0.3, -1e-4,
                      0.0, 1e-4, 0.3, 0.5, 0.6, 1.0, 3.0, 10.0, 30.0,
                      N + 0.5, N + 1.0, N + 1.5, -N - 0.5, -N - 1.0, -N - 1.5])
        got = exp_trunc(N, x)
        checked = 0
        for xi, gi in zip(x, got):
            exact = exp_trunc_exact(N, xi)
            if not np.finfo(float).tiny <= abs(exact) <= np.finfo(float).max:
                continue
            assert gi == pytest.approx(float(exact), rel=1e-13, abs=0.0), xi
            assert exp_trunc(N, xi) == gi  # each element stops on its own
            checked += 1
        assert checked >= 14

    def test_huge_order_returns(self):
        # N = 10^7: each branch stops once every term or partial sum has left
        # the normal floats, so the call returns at once: 0 where every term
        # underflows (the correctly rounded value), non-finite where the
        # value is past the floats
        start = time.perf_counter()
        small = exp_trunc(10**7, np.array([-3.0, -0.5, -0.0, 0.5]))
        huge = exp_trunc(10**7, np.array([-5e6, -2e7]))  # one per branch
        assert time.perf_counter() - start < 20.0
        assert np.all(small == 0.0) and not np.isfinite(huge).any()

    def test_past_the_floats_keeps_the_sign(self):
        # the first tail term (-5e6)^N / N! overflows with the sign of x^N,
        # and no later term of opposite sign turns the sum into nan
        assert exp_trunc(10**7, -5e6) == math.inf
        assert exp_trunc(10**7 + 1, -5e6) == -math.inf

    @pytest.mark.parametrize("N", [300, 301])
    def test_power_term_stops_with_the_sign_of_the_whole_product(self, N):
        # every term is 0 or infinite before order N; the early stop must
        # still give the running product to order N bit for bit, signs of
        # its zeros and infinities included
        x = np.array([-3.0, -0.5, -0.0, 0.0, 0.5, -2000.0, 2000.0])
        whole = np.ones_like(x)
        with np.errstate(over="ignore"):  # as exp_trunc and chaos_pairing call it
            for n in range(1, N + 1):
                whole *= x / n
            got = _power_term(N, x)
        assert np.array_equal(got, whole) and np.array_equal(np.signbit(got), np.signbit(whole))


class TestTestFunctions:
    def test_gaussian_bump(self):
        g = GaussianBump(2.0, 1.0, 0.5)
        assert g(1.0) == 2.0
        norm_sq, _ = quad(lambda x: g(x) ** 2, -np.inf, np.inf)
        assert norm_sq == pytest.approx(4.0 * 0.5 * math.sqrt(math.pi))
        with pytest.raises(ValueError):
            GaussianBump(width=0.0)

    def test_hermite_combination(self):
        hc = HermiteCombination((1.0, 0.0, 2.0))
        assert sum(c * c for c in hc.coeffs) == pytest.approx(5.0)  # orthonormal h_k
        val, _ = quad(lambda x: hc(x) ** 2, -15, 15, limit=200)
        assert val == pytest.approx(5.0, rel=1e-8)

    @pytest.mark.parametrize("K", [0, 1, 40])
    def test_hermite_combination_is_the_per_k_sum(self, K):
        # one recurrence for all k gives the sum of the h_k bit for bit,
        # also where a coefficient is 0 and where the Gaussian underflows
        x = np.linspace(-40.0, 40.0, 801)
        coeffs = [1.0 / (k + 1) for k in range(K + 1)]
        coeffs[K // 2] = 0.0
        expected = np.zeros_like(x)
        for k, c in enumerate(coeffs):
            if c != 0.0:
                expected = expected + c * hermite_function(k, x)
        assert np.array_equal(HermiteCombination(coeffs)(x), expected)
        assert HermiteCombination(coeffs)(x[410]) == expected[410]  # one point

    def test_zero(self):
        z = TestFunction.zero(3)
        assert z.d == 3
        assert all(c(0.7) == 0.0 for c in z.components)

    def test_from_config(self):
        phi = TestFunction.from_config({"components": [
            {"gaussian": {"amplitude": 0.5, "center": 0.2, "width": 0.8}},
            {"hermite": {"coeffs": [1.0, -0.5]}},
        ]})
        assert phi.d == 2
        assert phi.components[0](0.2) == 0.5
        with pytest.raises(ValueError):
            TestFunction.from_config({"components": [{"wavelet": {}}]})

    @pytest.mark.parametrize("components", [(1.0,), (GaussianBump(), lambda x: 0.0 * x)],
                             ids=["float", "callable"])
    def test_components_are_bumps_or_hermite(self, components):
        # rejected when built, not later inside the a(t) table
        with pytest.raises(ValueError, match="GaussianBump or HermiteCombination"):
            TestFunction(components)


def _a_at(h, t, phi):
    """a_j(t) at one node: the one-row table."""
    nodes = np.array([t])
    return _a_table(nodes, h(nodes), phi)[0]


class TestAVector:
    def test_zero_time(self, phi_2d):
        assert np.array_equal(_a_at(HurstFunctional.constant(0.7), 0.0, phi_2d),
                              np.zeros(2))

    @pytest.mark.parametrize("t", [1e-2, 0.3, 1.0])
    def test_quad_oracle(self, h_linear, phi_1d, t):
        H = h_linear(t)
        comp = phi_1d.components[0]
        oracle = 0.0
        for a, b in [(-10.0, 0.0), (0.0, t), (t, 10.0)]:
            v, _ = quad(lambda x: comp(x) * mh_indicator(H, t, x), a, b, limit=400)
            oracle += v
        got = _a_at(h_linear, t, phi_1d)[0]
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_adjoint_route(self, h_const_07, phi_1d):
        # int phi (M_H 1_[0,t)) = int_0^t (M_H phi) by self-adjointness
        t = 0.6
        comp = phi_1d.components[0]
        oracle, _ = quad(lambda x: mh_apply(0.7, comp, x), 0.0, t, limit=200)
        got = _a_at(h_const_07, t, phi_1d)[0]
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_linearity_in_phi(self, h_const_07, phi_1d):
        a1 = _a_at(h_const_07, 0.5, phi_1d)
        tripled = TestFunction((GaussianBump(1.5, 0.2, 0.8),))  # 3 phi_1d
        a3 = _a_at(h_const_07, 0.5, tripled)
        assert a3 == pytest.approx(3.0 * a1, rel=1e-12)


def _per_node_rule(f, a, b, kinks, n_panels=12, n_gl=10):
    """Reference for one node and component: the composite rule, panel by
    panel, with the panels of each piece graded geometrically toward the
    kink nearest to the piece (floor offset 1e-12 when the piece touches it).
    """
    kinks = sorted(set(kinks))
    cuts = sorted({a, b} | {k for k in kinks if a < k < b})
    xg, wg = np.polynomial.legendre.leggauss(n_gl)
    u = np.arange(n_panels + 1) / n_panels
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo in kinks and hi in kinks:
            mid = 0.5 * (lo + hi)
            pieces = [(lo, mid, lo), (mid, hi, hi)]
        else:
            k0 = min(kinks, key=lambda k: min(abs(k - lo), abs(k - hi)))
            pieces = [(lo, hi, k0)]
        for p_lo, p_hi, k0 in pieces:
            r0, r1 = (p_lo - k0, p_hi - k0) if k0 <= p_lo else (k0 - p_hi, k0 - p_lo)
            if r0 == 0.0:
                r0 = r1 * 1e-12
                offsets = np.concatenate([[0.0], r0 * (r1 / r0) ** u])
            else:
                offsets = r0 * (r1 / r0) ** u
            edges = k0 + offsets if k0 <= p_lo else (k0 - offsets)[::-1]
            for e0, e1 in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
                total += float(np.dot(half * wg, f(mid + half * xg)))
    return total


class TestATable:
    COMPONENTS = {
        "gaussian": GaussianBump(0.5, 0.2, 0.8),
        "hermite": HermiteCombination((1.0, -0.5, 0.3)),
        # support [0.44, 1.16] starts inside (0, T): nodes below, inside and
        # above its left end get different panel layouts
        "bump_inside": GaussianBump(1.0, 0.8, 0.03),
        # supports left of 0, inside (0, T), beyond T, starting exactly at 0,
        # and straddling 0 to end inside (0, T)
        "bump_left": GaussianBump(1.0, -3.0, 0.2),
        "bump_narrow": GaussianBump(1.0, 0.5, 0.01),
        "bump_beyond": GaussianBump(1.0, 3.0, 0.1),
        "bump_from_0": GaussianBump(1.0, 3.0, 0.25),
        "bump_straddle": GaussianBump(1.0, -0.5, 0.05),
    }

    @pytest.mark.parametrize("name", sorted(COMPONENTS))
    def test_matches_per_node_rule(self, h_linear, name):
        comp = self.COMPONENTS[name]
        phi = TestFunction((comp,))
        # a t = 0 row and 80 graded nodes: three blocks, the last one partial
        nodes = np.concatenate([[0.0], _graded_nodes(1.0, 16.0, 8)[0]])
        table = _a_table(nodes, h_linear(nodes), phi)
        assert table.shape == (len(nodes), 1)
        assert table[0, 0] == 0.0
        lo, hi = comp.support()
        for t, got in zip(nodes[1:], table[1:, 0]):
            H = h_linear(t)
            ref = _per_node_rule(lambda x: comp(x) * mh_indicator(H, t, x),
                                 lo, hi, kinks=(0.0, t))
            assert got == pytest.approx(ref, rel=1e-12)

    def test_zero_test_function(self, h_linear):
        nodes = _graded_nodes(1.0, 2.0, 8)[0]
        table = _a_table(nodes, h_linear(nodes), TestFunction.zero(2))
        assert np.array_equal(table, np.zeros((len(nodes), 2)))

    # the chaos-gap benchmark config: eps = 0 grades with 8.75, as do 1e-3
    # and 1e-4, whose crossovers eps^(1/1.1) are below 1e-2 T; 0.1 and 0.01
    # share one grading-2 mesh
    GAP_H = HurstFunctional.linear(0.55, 0.15)
    GAP_PHI = TestFunction((GaussianBump(1.0, 1.0, 0.3), GaussianBump(1.0, 1.5, 0.3)))

    @pytest.fixture
    def built(self, monkeypatch):
        """One entry per a(t) table built in the test: the number of h
        evaluations made while it was built."""
        built, h_calls = [], []
        h_call = HurstFunctional.__call__

        def counting_h(h, t):
            h_calls.append(t)
            return h_call(h, t)

        def counting(*args):
            start = len(h_calls)
            table = _a_table(*args)
            built.append(len(h_calls) - start)
            return table

        monkeypatch.setattr(HurstFunctional, "__call__", counting_h)
        monkeypatch.setattr(mbmlt.chaos, "_a_table", counting)
        return built

    @pytest.mark.parametrize("eps, at_zero", [(1e-4, True), (1e-3, True), (1e-2, False),
                                              (0.1, False)])
    def test_crossover_grading(self, eps, at_zero):
        zero = _grading_exponent(self.GAP_H, 1, 2, 0.0)
        assert zero == pytest.approx(8.75, rel=1e-15)
        assert _grading_exponent(self.GAP_H, 1, 2, eps) == (zero if at_zero else 2.0)

    def test_crossover_grading_needs_integrable_endpoint(self):
        # d h(0) = 2.1 > 1 at N = 0: t^e0 is not integrable at 0, so eps > 0
        # keeps grading 2 however small its crossover
        assert _grading_exponent(HurstFunctional.constant(0.7), 0, 3, 1e-12) == 2.0

    def test_convergence_builds_one_table_per_mesh(self, built):
        rows = convergence_eps(self.GAP_H, 1, self.GAP_PHI, (0.1, 0.01, 0.001, 1e-4))
        assert len(rows) == 4
        assert len(built) == 2

    def test_tables_evaluate_no_h(self, built):
        # a table reads the h values its time rule holds
        convergence_eps(self.GAP_H, 1, self.GAP_PHI, (0.1, 0.01, 0.001, 1e-4))
        assert built == [0, 0]

    def test_eps_list_matches_scalar_calls(self, built):
        eps_list = [0.0, 0.1, 0.01]
        values = s_transform_local_time(self.GAP_H, 1, self.GAP_PHI, eps_list)
        assert len(built) == 2
        assert values == [s_transform_local_time(self.GAP_H, 1, self.GAP_PHI, eps)
                          for eps in eps_list]
        assert all(type(v) is float for v in values)


class TestSTransformLocalTime:
    def test_zero_phi_is_expectation(self, h_linear):
        for eps, d in [(0.1, 1), (0.05, 2)]:
            target = expected_local_time(h_linear, eps, d)
            got = s_transform_local_time(h_linear, 0, TestFunction.zero(d),
                                         eps=eps)
            assert got == pytest.approx(target, rel=1e-8)

    def test_frozen_unregularized_value(self):
        # d=1, h=0.6, N=0, eps=0, zero phi: (2 pi)^{-1/2} / 0.4
        h = HurstFunctional.constant(0.6)
        got = s_transform_local_time(h, 0, TestFunction.zero(1))
        assert got == pytest.approx(0.9973557010035817, rel=1e-8)

    def test_unregularized_gating(self, h_const_06):
        with pytest.raises(AdmissibilityError):
            s_transform_local_time(h_const_06, 0, TestFunction.zero(3))

    def test_bound_taken_over_the_horizon(self):
        # h = 0.55 + 0.4 t: sup h is 0.65 on [0, 0.25], under the N = 1, d = 2
        # bound 0.75, and 0.95 on [0, 1], which needs N = 10
        phi = TestFunction((GaussianBump(1.0, 1.0, 0.3), GaussianBump(1.0, 1.5, 0.3)))
        short = HurstFunctional(T=0.25, eval=lambda t: 0.55 + 0.4 * t)
        assert s_transform_local_time(short, 1, phi) == pytest.approx(-2.186e-4, rel=1e-3)
        with pytest.raises(AdmissibilityError, match="sup h = 0.95 .* minimal N = 10"):
            s_transform_local_time(HurstFunctional.linear(0.55, 0.4), 1, phi)

    @pytest.mark.parametrize("H", [0.6, 0.8, 0.9, 0.95, 0.975, 0.99])
    def test_unregularized_closed_form(self, H):
        # d = 1, N = 0, eps = 0, zero phi: int_0^1 (2 pi)^{-1/2} t^{-H} dt;
        # the order-0 kernel is the same integral.  Near H = 1 the graded
        # nodes leave the float range: a value must then still be right, or
        # the call must raise NumericalError
        h = HurstFunctional.constant(H)
        exact = (2 * math.pi) ** -0.5 / (1 - H)
        for value in (lambda: expected_local_time(h, 0.0, 1),
                      lambda: s_transform_local_time(h, 0, TestFunction.zero(1)),
                      lambda: kernel_eval(h, 0, (0,), [])):
            if H <= 0.975:
                assert value() == pytest.approx(exact, rel=1e-12)
                continue
            try:
                got = value()
            except NumericalError:
                continue
            assert got == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("H", [0.995, 0.999])
    def test_float_range_raised_before_any_table(self, H, phi_1d, monkeypatch):
        # grading >= 200: the first nodes of the time rule leave the float
        # range.  Every route raises NumericalError from the rule, without a
        # RuntimeWarning and before any a(t) table is built
        built = []
        monkeypatch.setattr(mbmlt.chaos, "_a_table",
                            lambda *args: built.append(args) or _a_table(*args))
        h = HurstFunctional.constant(H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (lambda: s_transform_local_time(h, 0, phi_1d),
                          lambda: chaos_pairing(h, 0, phi_1d, 2),
                          lambda: kernel_eval(h, 0, (0,), [])):
                with pytest.raises(NumericalError):
                    value()
        assert built == []

    @staticmethod
    def _on_finer_rule(h, N, phi, n_panels):
        # the eps = 0 S-transform on a time rule with more than the 48 panels
        rule = _TimeRule(h, N, phi.d, 0.0, n_panels=n_panels)
        return rule.direct(_a_table(rule.nodes, rule.hvals, phi), N)

    def test_mesh_refinement_stable(self, h_linear, phi_1d):
        coarse = s_transform_local_time(h_linear, 1, phi_1d)
        fine = self._on_finer_rule(h_linear, 1, phi_1d, 96)
        assert fine == pytest.approx(coarse, rel=1e-5)

    @pytest.mark.parametrize("H, N, d", [(0.7, 1, 1), (0.6, 1, 2)])
    def test_unregularized_mesh_converged(self, H, N, d, phi_1d, phi_2d):
        # with eps = 0 and phi != 0, a(t) adds fractional powers of t to the
        # endpoint power t^e0; the default 48 panels must still resolve them
        h = HurstFunctional.constant(H)
        phi = phi_1d if d == 1 else phi_2d
        coarse = s_transform_local_time(h, N, phi)
        fine = self._on_finer_rule(h, N, phi, 192)
        assert coarse == pytest.approx(fine, rel=1e-10)

    def test_truncation_removes_leading_order(self, h_const_07, phi_1d):
        # N = 0 minus N = 1 equals the order-0 pairing (the expectation)
        eps = 0.1
        n0 = s_transform_local_time(h_const_07, 0, phi_1d, eps=eps)
        n1 = s_transform_local_time(h_const_07, 1, phi_1d, eps=eps)
        assert n0 - n1 == pytest.approx(
            expected_local_time(h_const_07, eps, 1), rel=1e-8
        )


class TestArgumentChecks:
    """Every t-integral checks its arguments in the time rule, before any
    a(t) table is built."""

    ROUTES = {
        "s_transform_local_time":
            lambda h, N, eps, phi: s_transform_local_time(h, N, phi, eps),
        "chaos_pairing": lambda h, N, eps, phi: chaos_pairing(h, N, phi, 2, eps),
        "kernel_eval": lambda h, N, eps, phi: kernel_eval(h, N, (2,), [0.3, 0.4], eps),
        # no truncation order: d = 0 stands in for N = -1
        "expected_local_time":
            lambda h, N, eps, phi: expected_local_time(h, eps, phi.d if N >= 0 else 0),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("N, eps", [(-1, 0.1), (0, -0.1), (0, math.nan)],
                             ids=["N=-1", "eps<0", "eps=nan"])
    def test_rejected_before_any_table(self, route, N, eps, h_const_07, phi_1d, monkeypatch):
        built = []
        monkeypatch.setattr(mbmlt.chaos, "_a_table",
                            lambda *args: built.append(args) or _a_table(*args))
        with pytest.raises(ValueError) as exc:
            self.ROUTES[route](h_const_07, N, eps, phi_1d)
        assert exc.type is ValueError  # not the AdmissibilityError subclass
        assert built == []


class TestCounts:
    """Every count of the library is a whole number: an int or numpy integer,
    not a float or a bool."""

    # each route takes the count n where the named argument goes; n = 1 is valid
    ROUTES = {
        "s_transform_local_time-N":
            ("N", lambda n, h, phi: s_transform_local_time(h, n, phi, 0.1)),
        "chaos_pairing-N": ("N", lambda n, h, phi: chaos_pairing(h, n, phi, 3, 0.1)),
        "chaos_pairing-n_max":
            ("n_max", lambda n, h, phi: chaos_pairing(h, 1, phi, n, 0.1)),
        "kernel_eval-N": ("N", lambda n, h, phi: kernel_eval(h, n, (2,), [0.2, 0.3], 0.1)),
        "exp_trunc-N": ("N", lambda n, h, phi: exp_trunc(n, -0.5)),
        "expected_local_time-d": ("d", lambda n, h, phi: expected_local_time(h, 0.1, n)),
        "truncation_bound-N": ("N", lambda n, h, phi: truncation_bound(n, 2)),
        "truncation_bound-d": ("d", lambda n, h, phi: truncation_bound(0, n)),
        "hermite_function-k": ("k", lambda n, h, phi: hermite_function(n, 0.3)),
        "TestFunction.zero-d": ("d", lambda n, h, phi: TestFunction.zero(n)),
        "local_time_mc-N": ("N", lambda n, h, phi: local_time_mc(
            simulate_exact(SimulationConfig(h=h, s=8, n_paths=3, seed=1)), [0.1], n)),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_counts_are_whole_numbers(self, route, h_const_07, phi_1d):
        name, call = self.ROUTES[route]
        for bad in (1.5, True):
            with pytest.raises(ValueError, match=f"^{name} must be a whole number >= "):
                call(bad, h_const_07, phi_1d)
        np.testing.assert_equal(call(np.int64(1), h_const_07, phi_1d),
                                call(1, h_const_07, phi_1d))


#: every public route that takes eps, as (zero_ok, call with eps = e): zero_ok
#: where eps = 0 is the unregularized limit, else eps is a width and must be > 0
EPS_ROUTES = {
    "s_transform_local_time":
        (True, lambda e, h, phi: s_transform_local_time(h, 1, phi, e)),
    "convergence_eps": (False, lambda e, h, phi: convergence_eps(h, 1, phi, [e])),
    "chaos_pairing": (True, lambda e, h, phi: chaos_pairing(h, 1, phi, 3, e)),
    "kernel_eval": (True, lambda e, h, phi: kernel_eval(h, 1, (2,), [0.2, 0.3], e)),
    "expected_local_time": (True, lambda e, h, phi: expected_local_time(h, e, 1)),
    "local_time_mc": (False, lambda e, h, phi: local_time_mc(
        simulate_exact(SimulationConfig(h=h, s=8, n_paths=3, seed=1)), [e])),
    "delta_eps": (False, lambda e, h, phi: delta_eps(np.zeros(1), e)),
}
EPS_CASES = [(route, bad) for route, (zero_ok, _) in sorted(EPS_ROUTES.items())
             for bad in [True, "0.1", math.nan, math.inf, -1, *([] if zero_ok else [0])]]


class TestEps:
    """Every eps passes one rule: a finite real number, not a bool or a
    string, > 0, or >= 0 where eps = 0 is the unregularized limit."""

    @pytest.mark.parametrize("route, bad", EPS_CASES,
                             ids=[f"{route}-{bad!r}" for route, bad in EPS_CASES])
    def test_rejected_naming_the_value(self, route, bad, h_const_07, phi_1d):
        with pytest.raises(ValueError, match=f"^eps must be a finite real .* got "
                                             f"{re.escape(repr(bad))}$") as exc:
            EPS_ROUTES[route][1](bad, h_const_07, phi_1d)
        assert exc.type is ValueError  # not the AdmissibilityError subclass


#: Hurst functions of the kernel grid test, and its cases: eps = 0 only
#: where the truncation bound holds at the test's N = 1
GRID_HURST = {
    "const": HurstFunctional.constant(0.7),
    "linear": HurstFunctional.linear(0.55, 0.2),
    "sin": HurstFunctional.sinusoidal(0.7, 0.15, 6.0),
}
GRID_CASES = [(name, n_vec, eps) for name, h in GRID_HURST.items()
              for n_vec in [(2,), (4,), (2, 2), (2, 0)] for eps in (0.1, 0.0)
              if eps > 0 or h.sup < truncation_bound(1, len(n_vec))]


class TestKernelEval:
    def test_odd_index_is_exact_zero(self, h_const_07):
        assert kernel_eval(h_const_07, 0, (1,), [0.3], eps=0.1) == 0.0
        assert kernel_eval(h_const_07, 0, (2, 1), [0.3, 0.4, 0.5], eps=0.1) == 0.0

    def test_below_truncation_is_zero(self, h_const_07):
        assert kernel_eval(h_const_07, 1, (0,), [], eps=0.1) == 0.0

    def test_order_zero_is_expectation(self, h_linear):
        got = kernel_eval(h_linear, 0, (0,), [], eps=0.2)
        assert got == pytest.approx(
            expected_local_time(h_linear, 0.2, 1), rel=1e-6
        )

    def test_permutation_invariance(self, h_const_07):
        u = [0.3, 0.8]
        assert (kernel_eval(h_const_07, 0, (2,), u, eps=0.1)
                == kernel_eval(h_const_07, 0, (2,), u[::-1], eps=0.1))
        u4 = [0.2, 0.5, 0.7, 0.9]
        assert (kernel_eval(h_const_07, 0, (4,), u4, eps=0.1)
                == kernel_eval(h_const_07, 0, (4,), [0.7, 0.2, 0.9, 0.5], eps=0.1))

    def test_sign_alternation(self, h_const_07):
        # (-1/2)^n prefactor: order 2 negative, order 4 positive at the
        # positive bulk of the kernel
        k2 = kernel_eval(h_const_07, 0, (2,), [0.3, 0.4], eps=0.1)
        k4 = kernel_eval(h_const_07, 0, (4,), [0.3, 0.4, 0.5, 0.6], eps=0.1)
        assert k2 < 0 < k4

    def test_argument_count(self, h_const_07):
        with pytest.raises(ValueError):
            kernel_eval(h_const_07, 0, (2,), [0.3], eps=0.1)
        with pytest.raises(ValueError):
            kernel_eval(h_const_07, 0, (2,), np.zeros((5, 3)), eps=0.1)

    def test_index_entries_are_whole_and_nonnegative(self, h_const_07):
        # 2.7 is not truncated to 2, nor True read as 1
        for index, u in [((2.7,), [0.2, 0.3]), ((True,), [0.3]), ((-1,), [])]:
            with pytest.raises(ValueError, match="^index entry must be a whole number >= 0, "):
                kernel_eval(h_const_07, 0, index, u, 0.1)
        # numpy integers are whole numbers
        assert (kernel_eval(h_const_07, 0, np.array([2]), [0.2, 0.3], 0.1)
                == kernel_eval(h_const_07, 0, (2,), [0.2, 0.3], 0.1))

    def test_unregularized_requires_bound_at_N(self, h_const_06):
        # d = 3: bound is 1/3 at N = 0, so 0.6 is inadmissible, for the
        # zero kernels of odd or truncated-away indices as well
        for n_vec, u in [((0, 0, 0), []), ((1, 0, 0), [0.3])]:
            with pytest.raises(AdmissibilityError):
                kernel_eval(h_const_06, 0, n_vec, u)
        # N = 1 gives bound 3/5, not above 0.6, although the order-2 kernel
        # alone would meet its bound 5/7
        with pytest.raises(AdmissibilityError):
            kernel_eval(h_const_06, 1, (4, 0, 0), [0.2, 0.4, 0.6, 0.8])
        # N = 2 raises the bound to 5/7 > 0.6
        assert kernel_eval(h_const_06, 2, (0, 0, 0), []) == 0.0
        assert math.isfinite(kernel_eval(h_const_06, 2, (4, 0, 0), [0.2, 0.4, 0.6, 0.8]))

    def test_regularized_always_admissible(self, h_const_06):
        assert kernel_eval(h_const_06, 0, (0, 0, 0), [], eps=0.1) > 0

    def test_bad_horizon_and_dimension(self, h_const_06):
        # the horizon is h.T, checked once where h is built
        with pytest.raises(ValueError, match="time horizon"):
            HurstFunctional.constant(0.6, T=-1.0)
        with pytest.raises(ValueError):
            kernel_eval(h_const_06, 0, (), [], eps=0.1)

    def test_rule_graded_for_the_kernel_order(self):
        # at h = 0.98, d = 1 the N = 0 rule leaves the float range; the
        # order-2 kernel runs on its own, softer grading, and a kernel
        # truncated away is 0 without any rule
        h = HurstFunctional.constant(0.98)
        with pytest.raises(NumericalError):
            _TimeRule(h, 0, 1, 0.0)
        assert math.isfinite(kernel_eval(h, 0, (2,), [0.3, 0.3]))
        assert kernel_eval(HurstFunctional.constant(0.999), 1, (0,), []) == 0.0

    @pytest.mark.parametrize("name, n_vec, eps", GRID_CASES)
    def test_grid_matches_points(self, name, n_vec, eps):
        # the (m, 2n) grid form runs every point on one time rule; it must
        # give the values of the one-point calls bit for bit
        h = GRID_HURST[name]
        rng = np.random.default_rng(sum(n_vec) * 10 + len(n_vec))
        u = rng.uniform(-0.3, 1.3, (50, sum(n_vec)))
        grid = kernel_eval(h, 1, n_vec, u, eps)
        assert grid.shape == (50,) and np.all(grid != 0.0)
        assert np.array_equal(grid, [kernel_eval(h, 1, n_vec, p, eps) for p in u])
        permuted = u[:, rng.permutation(u.shape[1])]
        assert np.array_equal(kernel_eval(h, 1, n_vec, permuted, eps), grid)

    def test_grid_memory_bounded(self):
        # points go in blocks: a large grid holds no (points x nodes x order)
        # broadcast at once
        u = np.random.default_rng(3).uniform(-0.3, 1.3, (5000, 4))
        kernel_eval(GRID_HURST["sin"], 1, (2, 2), u[:10], 0.1)  # warm-up
        tracemalloc.start()
        try:
            kernel_eval(GRID_HURST["sin"], 1, (2, 2), u, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20

    def test_pairing_matches_second_derivative(self, h_const_07, phi_1d):
        # 1/2 d^2/dlam^2 S(lam phi)|_0 equals the order-2 chaos pairing;
        # S is even in lam, so the central second difference is
        # 2 (S(lam) - S(0)) / lam^2 with an O(lam^2) bias
        eps = 0.1
        pair2 = chaos_pairing(h_const_07, 1, phi_1d, n_max=1, eps=eps)[0]
        lam = 0.05
        s0 = s_transform_local_time(h_const_07, 0, TestFunction.zero(1),
                                    eps=eps)
        scaled = TestFunction((GaussianBump(0.5 * lam, 0.2, 0.8),))  # lam phi_1d
        s1 = s_transform_local_time(h_const_07, 0, scaled, eps=eps)
        fd = (s1 - s0) / lam ** 2
        assert fd == pytest.approx(pair2, rel=1e-3)


class TestChaosPairing:
    SETTINGS = [
        # (h-name, d, N, eps)
        ("const07", 1, 0, 0.1),
        ("const07", 1, 1, 0.0),
        ("linear", 1, 0, 0.0),
        ("linear", 2, 1, 0.05),
        ("const06", 2, 1, 0.0),
        ("const07", 2, 0, 0.2),
    ]

    @pytest.mark.parametrize("hname,d,N,eps", SETTINGS)
    def test_matches_direct_s_transform(self, hname, d, N, eps, request):
        h = {"const07": HurstFunctional.constant(0.7),
             "const06": HurstFunctional.constant(0.6),
             "linear": HurstFunctional.linear(0.55, 0.2)}[hname]
        if d == 1:
            phi = request.getfixturevalue("phi_1d")
        else:
            phi = request.getfixturevalue("phi_2d")
        direct = s_transform_local_time(h, N, phi, eps=eps)
        partial = chaos_pairing(h, N, phi, n_max=N + 20, eps=eps)
        assert partial[-1] == pytest.approx(direct, rel=1e-3)

    def test_high_order_matches_direct(self):
        # N = 20: every exponent y <= 0.5 falls in the tail series of
        # exp_trunc, which must keep its relative precision there
        h = HurstFunctional.constant(0.995)
        phi = TestFunction((GaussianBump(3.0, 0.5, 0.5),) * 3)
        direct = s_transform_local_time(h, 20, phi, eps=0.1)
        partial = chaos_pairing(h, 20, phi, n_max=60, eps=0.1)
        assert direct == pytest.approx(partial[-1], rel=1e-12, abs=0.0)

    def test_partial_sums_converge(self, h_const_07, phi_1d):
        direct = s_transform_local_time(h_const_07, 0, phi_1d, eps=0.1)
        partial = chaos_pairing(h_const_07, 0, phi_1d, n_max=12, eps=0.1)
        gaps = np.abs(partial - direct)
        assert gaps[-1] < 1e-10
        assert gaps[-1] < gaps[0]

    def test_stops_once_every_term_is_zero(self, h_const_07):
        # the terms underflow to 0 after a few hundred orders; the partial
        # sums after that are the last one, without an integral per order
        phi = TestFunction((GaussianBump(1.0, 0.5, 0.3),))
        start = time.perf_counter()
        sums = chaos_pairing(h_const_07, 0, phi, 10**6, 0.1)
        assert time.perf_counter() - start < 2.0
        assert len(sums) == 10**6 + 1 and np.all(sums[2000:] == sums[-1])
        assert np.array_equal(chaos_pairing(h_const_07, 0, phi, 2000, 0.1),
                              chaos_pairing_every_order(h_const_07, 0, phi, 2000, 0.1))

    @pytest.mark.parametrize("n_max", [1, -5])
    def test_n_max_below_N_rejected(self, n_max, h_const_07):
        with pytest.raises(ValueError, match="n_max"):
            chaos_pairing(h_const_07, 2, TestFunction.zero(1), n_max=n_max, eps=0.1)

    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_chaos_term_oracle(self, d, N, h_linear):
        # one time integral per order equals the sum of its multi-index terms
        phi = TestFunction((GaussianBump(0.6, 0.0, 1.0), GaussianBump(0.4, 0.5, 0.7),
                            HermiteCombination((0.3, -0.2, 0.1)))[:d])
        eps = 0.01
        rule = _TimeRule(h_linear, N, d, eps)
        a = _a_table(rule.nodes, rule.hvals, phi)
        n_max = N + 8
        orders = [sum(chaos_term(rule, a, n_vec)
                      for n_vec in itertools.product(range(n + 1), repeat=d)
                      if sum(n_vec) == n)
                  for n in range(N, n_max + 1)]
        got = chaos_pairing(h_linear, N, phi, n_max, eps)
        assert np.allclose(got, np.cumsum(orders), rtol=1e-13, atol=0.0)

    def test_unregularized_gating(self, h_const_06, phi_2d):
        h3 = HurstFunctional.constant(0.6)
        phi3 = TestFunction.zero(3)
        with pytest.raises(AdmissibilityError):
            chaos_pairing(h3, 0, phi3, n_max=2)


class TestConvergenceEps:
    EPS_LIST = (0.1, 0.01, 0.001, 1e-4)

    def test_gaps_decrease(self, h_linear, phi_1d):
        rows = convergence_eps(h_linear, 1, phi_1d, self.EPS_LIST)
        gaps = [r.gap for r in rows]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        # a numpy eps array is a sequence too
        assert convergence_eps(h_linear, 1, phi_1d, np.array(self.EPS_LIST)) == rows

    def test_final_gap_small(self, h_linear, phi_1d):
        rows = convergence_eps(h_linear, 1, phi_1d, self.EPS_LIST)
        limit = s_transform_local_time(h_linear, 1, phi_1d)
        assert rows[-1].gap <= 1e-2 * abs(limit)

    def test_requires_bound(self, phi_2d):
        h3 = HurstFunctional.constant(0.6)
        with pytest.raises(AdmissibilityError):
            convergence_eps(h3, 0, TestFunction.zero(3), (0.1,))

    def test_rejects_nonpositive_eps(self, h_linear, phi_1d):
        with pytest.raises(ValueError):
            convergence_eps(h_linear, 1, phi_1d, (0.1, 0.0))

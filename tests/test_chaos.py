import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mbmlt.chaos
from mbmlt.chaos import (
    ChaosIndex,
    GaussianBump,
    HermiteCombination,
    KernelSpec,
    TestFunction,
    _a_table,
    _graded_nodes,
    _TimeRule,
    a_vector,
    chaos_pairing,
    convergence_eps,
    exp_trunc,
    kernel_eval,
    s_transform_delta,
    s_transform_local_time,
)
from mbmlt.errors import AdmissibilityError, NumericalError
from mbmlt.localtime import expected_local_time
from mbmlt.operator import mh_indicator
from mbmlt.specfun import HurstFunctional

from .oracles import exp_tail_series, mh_apply


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
        assert exp_trunc(N, x) == pytest.approx(exp_tail_series(N, x), rel=1e-12)

    def test_no_cancellation_for_small_argument(self):
        # naive exp(x) - head loses all digits here; the tail series must not
        x = -1e-9
        assert exp_trunc(3, x) == pytest.approx(x ** 3 / 6.0, rel=1e-9)

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


class TestTestFunctions:
    def test_gaussian_bump(self):
        g = GaussianBump(2.0, 1.0, 0.5)
        assert g(1.0) == 2.0
        assert g.l2_norm_sq() == pytest.approx(4.0 * 0.5 * math.sqrt(math.pi))
        assert g.scaled(0.5)(1.0) == 1.0
        with pytest.raises(ValueError):
            GaussianBump(width=0.0)

    def test_hermite_combination(self):
        hc = HermiteCombination((1.0, 0.0, 2.0))
        assert hc.l2_norm_sq() == pytest.approx(5.0)
        val, _ = quad(lambda x: hc(x) ** 2, -15, 15, limit=200)
        assert val == pytest.approx(5.0, rel=1e-8)

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


class TestChaosIndex:
    def test_basics(self):
        m = ChaosIndex((2, 0, 1))
        assert m.d == 3 and m.total == 3 and m.factorial == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosIndex((1, -1))


class TestKernelSpec:
    def test_unregularized_requires_bound(self, h_const_06):
        # d = 3: bound is 1/3 at N = 0, so 0.6 is inadmissible
        with pytest.raises(AdmissibilityError):
            KernelSpec(h=h_const_06, T=1.0, N=0, index=ChaosIndex((0, 0, 0)))
        # N = 2 raises the bound to 5/7 > 0.6
        KernelSpec(h=h_const_06, T=1.0, N=2, index=ChaosIndex((0, 0, 0)))

    def test_regularized_always_admissible(self, h_const_06):
        KernelSpec(h=h_const_06, T=1.0, N=0, index=ChaosIndex((0, 0, 0)), eps=0.1)

    def test_validation(self, h_const_06):
        with pytest.raises(ValueError):
            KernelSpec(h=h_const_06, T=-1.0, N=0, index=ChaosIndex((0,)))
        with pytest.raises(ValueError):
            KernelSpec(h=h_const_06, T=1.0, N=0, index=ChaosIndex((0,)), eps=0.0)


class TestAVector:
    def test_zero_time(self, phi_2d):
        assert np.array_equal(a_vector(HurstFunctional.constant(0.7), 0.0, phi_2d),
                              np.zeros(2))

    @pytest.mark.parametrize("t", [1e-2, 0.3, 1.0])
    def test_quad_oracle(self, h_linear, phi_1d, t):
        H = h_linear(t)
        comp = phi_1d.components[0]
        oracle = 0.0
        for a, b in [(-10.0, 0.0), (0.0, t), (t, 10.0)]:
            v, _ = quad(lambda x: comp(x) * mh_indicator(H, t, x), a, b, limit=400)
            oracle += v
        got = a_vector(h_linear, t, phi_1d)[0]
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_adjoint_route(self, h_const_07, phi_1d):
        # int phi (M_H 1_[0,t)) = int_0^t (M_H phi) by self-adjointness
        t = 0.6
        comp = phi_1d.components[0]
        oracle, _ = quad(lambda x: mh_apply(0.7, comp, x), 0.0, t, limit=200)
        got = a_vector(h_const_07, t, phi_1d)[0]
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_linearity_in_phi(self, h_const_07, phi_1d):
        a1 = a_vector(h_const_07, 0.5, phi_1d)
        a3 = a_vector(h_const_07, 0.5, phi_1d.scaled(3.0))
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
    }

    @pytest.mark.parametrize("name", sorted(COMPONENTS))
    def test_matches_per_node_rule(self, h_linear, name):
        comp = self.COMPONENTS[name]
        phi = TestFunction((comp,))
        # a t = 0 row and 80 graded nodes: three blocks, the last one partial
        nodes = np.concatenate([[0.0], _graded_nodes(1.0, 16.0, 8)[0]])
        table = _a_table(h_linear, nodes, phi)
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
        table = _a_table(h_linear, nodes, TestFunction.zero(2))
        assert np.array_equal(table, np.zeros((len(nodes), 2)))

    def test_convergence_builds_one_table_per_mesh(self, monkeypatch):
        # the chaos-gap benchmark config: eps = 0 grades with 8.75, and every
        # eps > 0 shares one grading-2 mesh
        built = []

        def counting(h, nodes, phi):
            built.append(len(nodes))
            return _a_table(h, nodes, phi)

        monkeypatch.setattr(mbmlt.chaos, "_a_table", counting)
        h = HurstFunctional.linear(0.55, 0.15)
        phi = TestFunction((GaussianBump(1.0, 1.0, 0.3), GaussianBump(1.0, 1.5, 0.3)))
        rows = convergence_eps(h, 1, 1.0, phi, (0.1, 0.01, 0.001, 1e-4))
        assert len(rows) == 4
        assert len(built) == 2


class TestSTransformDelta:
    def test_zero_phi_reduction(self, h_linear):
        for t in (0.2, 1.0):
            var = t ** (2 * h_linear(t))
            target = (2 * math.pi * var) ** -0.5
            got = s_transform_delta(h_linear, t, TestFunction.zero(1))
            assert got == pytest.approx(target, rel=1e-12)

    def test_frozen_zero_phi_value(self):
        # h = 0.6, t = 1: (2 pi)^{-1/2} = 0.3989422804014327
        h = HurstFunctional.constant(0.6)
        got = s_transform_delta(h, 1.0, TestFunction.zero(1))
        assert got == pytest.approx((2 * math.pi) ** -0.5, rel=1e-13)

    def test_log_is_quadratic_in_scale(self, h_const_07, phi_1d):
        # log S(lam phi) = c0 - c2 lam^2 exactly
        lams = np.array([0.0, 0.5, 1.0, 2.0])
        logs = np.array([
            math.log(s_transform_delta(h_const_07, 0.7, phi_1d.scaled(l)))
            for l in lams
        ])
        coeffs = np.polyfit(lams ** 2, logs, 1)
        fit = np.polyval(coeffs, lams ** 2)
        assert np.allclose(fit, logs, atol=1e-10)
        assert coeffs[0] < 0  # decreasing in the scale

    def test_regularization_lowers_peak(self, h_const_07, phi_1d):
        bare = s_transform_delta(h_const_07, 0.3, phi_1d)
        reg = s_transform_delta(h_const_07, 0.3, phi_1d, eps=0.5)
        assert reg < bare

    def test_domain(self, h_const_07, phi_1d):
        with pytest.raises(ValueError):
            s_transform_delta(h_const_07, 0.0, phi_1d)
        with pytest.raises(ValueError):
            s_transform_delta(h_const_07, 0.5, phi_1d, eps=-1.0)


class TestSTransformLocalTime:
    def test_zero_phi_is_expectation(self, h_linear):
        for eps, d in [(0.1, 1), (0.05, 2)]:
            target = expected_local_time(h_linear, eps, 1.0, d)
            got = s_transform_local_time(h_linear, 0, 1.0, TestFunction.zero(d),
                                         eps=eps)
            assert got == pytest.approx(target, rel=1e-8)

    def test_frozen_unregularized_value(self):
        # d=1, h=0.6, N=0, eps=0, zero phi: (2 pi)^{-1/2} / 0.4
        h = HurstFunctional.constant(0.6)
        got = s_transform_local_time(h, 0, 1.0, TestFunction.zero(1))
        assert got == pytest.approx(0.9973557010035817, rel=1e-8)

    def test_unregularized_gating(self, h_const_06):
        with pytest.raises(AdmissibilityError):
            s_transform_local_time(h_const_06, 0, 1.0, TestFunction.zero(3))

    @pytest.mark.parametrize("H", [0.6, 0.8, 0.9, 0.95, 0.975, 0.99])
    def test_unregularized_closed_form(self, H):
        # d = 1, N = 0, eps = 0, zero phi: int_0^1 (2 pi)^{-1/2} t^{-H} dt;
        # the order-0 kernel is the same integral.  Near H = 1 the graded
        # nodes leave the float range: a value must then still be right, or
        # the call must raise NumericalError
        h = HurstFunctional.constant(H)
        exact = (2 * math.pi) ** -0.5 / (1 - H)
        spec = KernelSpec(h=h, T=1.0, N=0, index=ChaosIndex((0,)))
        for value in (lambda: expected_local_time(h, 0.0, 1.0, 1),
                      lambda: s_transform_local_time(h, 0, 1.0, TestFunction.zero(1)),
                      lambda: kernel_eval(spec, [])):
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
        spec = KernelSpec(h=h, T=1.0, N=0, index=ChaosIndex((0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (lambda: s_transform_local_time(h, 0, 1.0, phi_1d),
                          lambda: chaos_pairing(h, 0, 1.0, phi_1d, 2),
                          lambda: kernel_eval(spec, [])):
                with pytest.raises(NumericalError):
                    value()
        assert built == []

    @staticmethod
    def _on_finer_rule(h, N, phi, n_panels):
        # the eps = 0 S-transform on a time rule with more than the 48 panels
        rule = _TimeRule(h, 1.0, N, phi.d, 0.0, n_panels=n_panels)
        return rule.direct(_a_table(h, rule.nodes, phi), N)

    def test_mesh_refinement_stable(self, h_linear, phi_1d):
        coarse = s_transform_local_time(h_linear, 1, 1.0, phi_1d)
        fine = self._on_finer_rule(h_linear, 1, phi_1d, 96)
        assert fine == pytest.approx(coarse, rel=1e-5)

    @pytest.mark.parametrize("H, N, d", [(0.7, 1, 1), (0.6, 1, 2)])
    def test_unregularized_mesh_converged(self, H, N, d, phi_1d, phi_2d):
        # with eps = 0 and phi != 0, a(t) adds fractional powers of t to the
        # endpoint power t^e0; the default 48 panels must still resolve them
        h = HurstFunctional.constant(H)
        phi = phi_1d if d == 1 else phi_2d
        coarse = s_transform_local_time(h, N, 1.0, phi)
        fine = self._on_finer_rule(h, N, phi, 192)
        assert coarse == pytest.approx(fine, rel=1e-10)

    def test_truncation_removes_leading_order(self, h_const_07, phi_1d):
        # N = 0 minus N = 1 equals the order-0 pairing (the expectation)
        eps = 0.1
        n0 = s_transform_local_time(h_const_07, 0, 1.0, phi_1d, eps=eps)
        n1 = s_transform_local_time(h_const_07, 1, 1.0, phi_1d, eps=eps)
        assert n0 - n1 == pytest.approx(
            expected_local_time(h_const_07, eps, 1.0, 1), rel=1e-8
        )


class TestKernelEval:
    def _spec(self, h, n_vec, N=0, eps=None, d=None):
        return KernelSpec(h=h, T=1.0, N=N, index=ChaosIndex(n_vec), eps=eps)

    def test_odd_index_is_exact_zero(self, h_const_07):
        spec = self._spec(h_const_07, (1,), eps=0.1)
        assert kernel_eval(spec, [0.3]) == 0.0
        spec2 = self._spec(h_const_07, (2, 1), eps=0.1)
        assert kernel_eval(spec2, [0.3, 0.4, 0.5]) == 0.0

    def test_below_truncation_is_zero(self, h_const_07):
        spec = self._spec(h_const_07, (0,), N=1, eps=0.1)
        assert kernel_eval(spec, []) == 0.0

    def test_order_zero_is_expectation(self, h_linear):
        spec = self._spec(h_linear, (0,), eps=0.2)
        got = kernel_eval(spec, [])
        assert got == pytest.approx(
            expected_local_time(h_linear, 0.2, 1.0, 1), rel=1e-6
        )

    def test_permutation_invariance(self, h_const_07):
        spec = self._spec(h_const_07, (2,), eps=0.1)
        u = [0.3, 0.8]
        assert kernel_eval(spec, u) == kernel_eval(spec, u[::-1])
        spec4 = self._spec(h_const_07, (4,), eps=0.1)
        u4 = [0.2, 0.5, 0.7, 0.9]
        assert kernel_eval(spec4, u4) == kernel_eval(spec4, [0.7, 0.2, 0.9, 0.5])

    def test_sign_alternation(self, h_const_07):
        # (-1/2)^n prefactor: order 2 negative, order 4 positive at the
        # positive bulk of the kernel
        u2 = [0.3, 0.4]
        u4 = [0.3, 0.4, 0.5, 0.6]
        k2 = kernel_eval(self._spec(h_const_07, (2,), eps=0.1), u2)
        k4 = kernel_eval(self._spec(h_const_07, (4,), eps=0.1), u4)
        assert k2 < 0 < k4

    def test_argument_count(self, h_const_07):
        spec = self._spec(h_const_07, (2,), eps=0.1)
        with pytest.raises(ValueError):
            kernel_eval(spec, [0.3])

    def test_pairing_matches_second_derivative(self, h_const_07, phi_1d):
        # 1/2 d^2/dlam^2 S(lam phi)|_0 equals the order-2 chaos pairing;
        # S is even in lam, so the central second difference is
        # 2 (S(lam) - S(0)) / lam^2 with an O(lam^2) bias
        eps = 0.1
        pair2 = chaos_pairing(h_const_07, 1, 1.0, phi_1d, n_max=1, eps=eps)[0]
        lam = 0.05
        s0 = s_transform_local_time(h_const_07, 0, 1.0, TestFunction.zero(1),
                                    eps=eps)
        s1 = s_transform_local_time(h_const_07, 0, 1.0, phi_1d.scaled(lam),
                                    eps=eps)
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
        direct = s_transform_local_time(h, N, 1.0, phi, eps=eps)
        partial = chaos_pairing(h, N, 1.0, phi, n_max=N + 20, eps=eps)
        assert partial[-1] == pytest.approx(direct, rel=1e-3)

    def test_partial_sums_converge(self, h_const_07, phi_1d):
        direct = s_transform_local_time(h_const_07, 0, 1.0, phi_1d, eps=0.1)
        partial = chaos_pairing(h_const_07, 0, 1.0, phi_1d, n_max=12, eps=0.1)
        gaps = np.abs(partial - direct)
        assert gaps[-1] < 1e-10
        assert gaps[-1] < gaps[0]

    def test_unregularized_gating(self, h_const_06, phi_2d):
        h3 = HurstFunctional.constant(0.6)
        phi3 = TestFunction.zero(3)
        with pytest.raises(AdmissibilityError):
            chaos_pairing(h3, 0, 1.0, phi3, n_max=2)


class TestConvergenceEps:
    EPS_LIST = (0.1, 0.01, 0.001, 1e-4)

    def test_gaps_decrease(self, h_linear, phi_1d):
        rows = convergence_eps(h_linear, 1, 1.0, phi_1d, self.EPS_LIST)
        gaps = [r.gap for r in rows]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_final_gap_small(self, h_linear, phi_1d):
        rows = convergence_eps(h_linear, 1, 1.0, phi_1d, self.EPS_LIST)
        limit = s_transform_local_time(h_linear, 1, 1.0, phi_1d)
        assert rows[-1].gap <= 1e-2 * abs(limit)

    def test_requires_bound(self, phi_2d):
        h3 = HurstFunctional.constant(0.6)
        with pytest.raises(AdmissibilityError):
            convergence_eps(h3, 0, 1.0, TestFunction.zero(3), (0.1,))

    def test_rejects_nonpositive_eps(self, h_linear, phi_1d):
        with pytest.raises(ValueError):
            convergence_eps(h_linear, 1, 1.0, phi_1d, (0.1, 0.0))

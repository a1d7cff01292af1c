"""Analytic S-transforms, chaos-expansion kernels, and eps -> 0 diagnostics.

Everything here is a deterministic quadrature around one scalar family

    a_j(t) = int phi_j(x) (M_{h(t)} 1_[0,t))(x) dx,   j = 1..d,

the pairing of the test-function components with the fractional kernel of
the indicator.  The S-transform of the regularized, order-N-truncated local
time is

    int_0^{h.T} (2 pi (eps + t^{2h(t)}))^{-d/2}
                exp_N(-|a(t)|^2 / (2 (eps + t^{2h(t)}))) dt,

with exp_N the exponential series starting at order N; eps = 0 requires the
truncation bound sup h < (1+2N)/(2N+d).  The chaos kernels are pure products
of the indicator kernel under the same time integral, so the pairing with
phi tensor powers factorizes through a(t).  Every time integral, the phi = 0
expected_local_time included, is the density (2 pi (eps + t^{2h(t)}))^{-d/2}
against a pairing on one graded Gauss-Legendre rule, _TimeRule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .operator import mh_indicator
from .specfun import (HurstFunctional, _config_keys, _config_list, _eps, _hermite_functions,
                      _real, _whole_number, require_truncation_bound, truncation_bound)

__all__ = [
    "GaussianBump",
    "HermiteCombination",
    "TestFunction",
    "exp_trunc",
    "s_transform_local_time",
    "kernel_eval",
    "chaos_pairing",
    "ConvergenceRow",
    "convergence_eps",
]


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """phi(x) = amplitude * exp(-(x-center)^2 / (2 width^2))."""

    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.center, self.width))):
            raise ValueError("Gaussian bump parameters must be finite")
        if self.width <= 0:
            raise ValueError("width must be positive")

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * z * z)

    def support(self) -> tuple[float, float]:
        r = 12.0 * self.width
        return self.center - r, self.center + r


@dataclass(frozen=True)
class HermiteCombination:
    """phi(x) = sum_k coeffs[k] h_k(x) with orthonormal Hermite functions."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("Hermite coefficients must be finite")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(under="ignore"):  # one recurrence for all k, summed in order
            h = _hermite_functions(len(self.coeffs) - 1, x)
            return sum((c * h_k for c, h_k in zip(self.coeffs, h) if c != 0.0), np.zeros_like(x))

    def support(self) -> tuple[float, float]:
        # Hermite functions live on |x| <~ sqrt(2(K+1)); pad generously
        r = math.sqrt(2.0 * len(self.coeffs)) + 12.0
        return -r, r


@dataclass(frozen=True)
class TestFunction:
    """A d-tuple of smooth rapidly decaying components."""

    __test__ = False  # not a pytest class, despite the name

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("need at least one component")
        if not all(isinstance(c, (GaussianBump, HermiteCombination)) for c in self.components):
            raise ValueError(f"components must be GaussianBump or HermiteCombination, "
                             f"got {self.components!r}")

    @property
    def d(self) -> int:
        return len(self.components)

    @classmethod
    def zero(cls, d: int) -> "TestFunction":
        _whole_number(d, "d", 1)
        return cls(tuple(GaussianBump(amplitude=0.0) for _ in range(d)))

    @classmethod
    def from_config(cls, spec: dict) -> "TestFunction":
        """Parse {"components": [{"gaussian": {...}} | {"hermite": {"coeffs"}}]}.

        A gaussian takes amplitude, center and width (defaults 1, 0, 1); any
        other key, and a component with other than one kind, is a ValueError.
        """
        comps = []
        components = _config_keys(spec, ("components",), "test_function")["components"]
        for c in _config_list(components, "test_function components"):
            if not isinstance(c, dict) or len(c) != 1:
                raise ValueError(f"a test-function component needs one kind, got {c!r}")
            if "gaussian" in c:
                g = _config_keys(c["gaussian"], ("amplitude", "center", "width"), "gaussian")
                comps.append(GaussianBump(**{k: _real(v, f"gaussian {k}") for k, v in g.items()}))
            elif "hermite" in c:
                coeffs = _config_keys(c["hermite"], ("coeffs",), "hermite")["coeffs"]
                coeffs = _config_list(coeffs, "hermite coeffs")
                comps.append(HermiteCombination(tuple(_real(v, "hermite coefficient")
                                                      for v in coeffs)))
            else:
                raise ValueError(f"unknown test-function component {c!r}")
        return cls(tuple(comps))


# ---------------------------------------------------------------------------
# truncated exponential
# ---------------------------------------------------------------------------

def _power_term(N: int, x: np.ndarray) -> np.ndarray:
    """x^N / N! as a running product, so that no factorial leaves the floats;
    once no term is finite and nonzero, later factors only flip signs."""
    term = np.ones_like(x)
    for n in range(1, N + 1):
        term *= x / n
        if not (np.isfinite(term) & (term != 0.0)).any():
            return np.where(np.signbit(x) & ((N - n) % 2 == 1), -term, term)
    return term


def exp_trunc(N: int, x):
    """exp(x) minus its first N Taylor terms, sum_{n >= N} x^n / n!.

    For every N >= 0: where |x| <= N + 1 the terms of that tail series never
    grow, and each element sums them until its last term is below 2^-54 of its
    sum, so that no later term can move it: no cancellation, full relative
    precision for either sign of x; a first term x^N / N! past the floats gives
    inf with its sign.  Elsewhere it is exp(x) minus the compensated sum of the
    first N terms, left non-finite past the floats.
    """
    _whole_number(N, "N", 0)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    tail = np.abs(x) <= N + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(tail):
            xs = x[tail]
            term = _power_term(N, xs)
            acc = term.copy()
            live = np.flatnonzero(np.isfinite(term))  # sums that can move; inf keeps its sign
            n = N
            while live.size:
                n += 1
                term[live] *= xs[live] / n
                acc[live] += term[live]
                live = live[np.abs(term[live]) > 2.0 ** -54 * np.abs(acc[live])]
            out[tail] = acc
        if not np.all(tail):
            xl = x[~tail]
            head = np.zeros_like(xl)
            comp = np.zeros_like(xl)
            term = np.ones_like(xl)
            for n in range(N):
                # Kahan-compensated accumulation of the partial sum
                y = term - comp
                t = head + y
                comp = (t - head) - y
                head = t
                if not np.isfinite(head).any():
                    break  # every partial sum has left the floats
                term = term * xl / (n + 1)
            out[~tail] = np.exp(xl) - head
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the pairing a_j(t) and graded time quadrature
# ---------------------------------------------------------------------------

#: nodes per pass of the a(t) table.  A pass holds ~520 points per node, so
#: blocks keep its arrays near 17k entries; one pass over a whole mesh
#: (~250k points per component) raised the peak RSS of a two-component
#: `converge` run from 56 to 73 MB.  kernel_eval takes its u points in
#: passes of the same size
_A_BLOCK = 32

#: panels per piece, and Gauss-Legendre points per panel, of the a(t) rule
_A_PANELS = 12
_A_GL = 10


def _piece_edges(p_lo, p_hi, k0, n_panels: int) -> np.ndarray:
    """Panel edges of pieces [p_lo, p_hi], one row per piece, with a
    geometric ladder toward the singular point k0 at one end of the piece,
    which resolves power-law behavior spread over many scales with one panel
    per constant ratio.

    The ladder runs over the offsets from k0 between r0, the near end, and
    r1, the far end.  A piece that touches k0 (r0 = 0) starts its ladder at
    the floor r1 * 1e-12 and its first panel absorbs [0, floor]; for any
    other piece that first panel is empty.  An empty piece has panels of
    zero width, also at k0 (r0 = r1 = 0).  Rows toward a k0 above the piece
    descend.
    """
    up = k0 <= p_lo
    r0 = np.where(up, p_lo - k0, k0 - p_hi)
    r1 = np.where(up, p_hi - k0, k0 - p_lo)
    start = np.where(r0 == 0.0, r1 * 1e-12, r0)
    ratio = np.divide(r1, start, out=np.ones_like(r1), where=start > 0.0)
    u = np.arange(n_panels + 1) / n_panels
    offsets = np.column_stack([r0, start[:, None] * ratio[:, None] ** u])
    return k0[:, None] + np.where(up, 1.0, -1.0)[:, None] * offsets


def _kinked_rule(lo: float, hi: float, t: np.ndarray, xg, wg):
    """Points and weights of the composite rule, Gauss-Legendre nodes xg and
    weights wg per panel, for the integral over [lo, hi] at each node
    t >= 0, one row per node.

    Each node has four pieces, [lo, hi] clipped to [-inf, 0] and [0, m],
    graded toward the kink 0, and to [m, t] and [t, inf], graded toward t.
    If [lo, hi] holds [0, t], m = t / 2; otherwise the part [a, b] between
    the kinks is one piece, graded toward the nearer kink: m = b if
    a <= t - b, else m = a.  A piece column that is empty at every node is
    dropped; an empty piece elsewhere has zero weights.
    """
    a, b = np.clip(lo, 0.0, t), np.clip(hi, 0.0, t)
    m = np.where((lo <= 0.0) & (t <= hi), 0.5 * t, np.where(a <= t - b, b, a))
    p_lo = np.column_stack([np.full_like(t, min(lo, 0.0)), a, m, np.maximum(lo, t)])
    p_hi = np.column_stack([np.full_like(t, min(hi, 0.0)), m, b, np.maximum(hi, t)])
    k0 = np.column_stack([np.zeros_like(t), np.zeros_like(t), t, t])
    keep = np.any(p_lo < p_hi, axis=0)
    edges = _piece_edges(p_lo[:, keep].ravel(), p_hi[:, keep].ravel(),
                         k0[:, keep].ravel(), _A_PANELS)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    halves = 0.5 * np.abs(np.diff(edges, axis=1))
    x = mids[..., None] + halves[..., None] * xg
    w = halves[..., None] * wg
    return x.reshape(len(t), -1), w.reshape(len(t), -1)


def _a_table(nodes: np.ndarray, hvals: np.ndarray, phi: TestFunction) -> np.ndarray:
    """a_j(t) at every node t >= 0, shape (len(nodes), d), with hvals = h(nodes).

    Nodes go in blocks of _A_BLOCK: per block and component, the integrand
    phi_j(x) (M_{h(t)} 1_[0,t))(x) is evaluated at all points of all nodes
    in one broadcast and summed per node.  At t = 0 the indicator kernel,
    and so the row, is exactly zero.
    """
    xg, wg = np.polynomial.legendre.leggauss(_A_GL)
    table = np.empty((len(nodes), phi.d))
    for start in range(0, len(nodes), _A_BLOCK):
        t, H = nodes[start:start + _A_BLOCK], hvals[start:start + _A_BLOCK]
        for j, comp in enumerate(phi.components):
            x, w = _kinked_rule(*comp.support(), t, xg, wg)
            f = comp(x) * mh_indicator(H[:, None], t[:, None], x)
            table[start:start + _A_BLOCK, j] = np.sum(w * f, axis=1)
    return table


#: Gauss-Legendre points per panel of the time rule
_N_GL = 10


def _graded_nodes(T: float, gamma: float, n_panels: int):
    """Composite Gauss-Legendre nodes on uniform panels in v in [0, 1] mapped
    by t = T v^gamma, so t^e dt becomes gamma T^(1+e) v^(gamma (1+e) - 1) dv."""
    xg, wg = np.polynomial.legendre.leggauss(_N_GL)
    half = 0.5 / n_panels
    v = ((np.arange(n_panels)[:, None] + 0.5) / n_panels + half * xg).ravel()
    w = np.tile(half * wg, n_panels)
    return T * v ** gamma, w * T * gamma * v ** (gamma - 1.0)


def _grading_exponent(h: HurstFunctional, N: int, d: int, eps: float) -> float:
    """Grading of the time rule from the endpoint exponent at t = 0.

    At eps = 0 the integrand behaves like t^e0 near 0, e0 = 2N(1-h(0)) -
    d h(0) > -1 by the truncation bound, and the grading is the least
    k/(1+e0) >= 8, k whole: t^e0 maps to the polynomial v^(k-1), and the
    fractional powers that a(t) adds are flattened.  With regularization
    the integrand is bounded, and like t^e0 beyond the crossover t* =
    eps^(1/(2h(0))), where t^(2h) passes eps.  So eps > 0 takes that same
    grading where t* < 1e-2 h.T and 1 + e0 > 0, since the t^e0 stretch
    then spans most of [0, h.T], and grading 2 otherwise.
    """
    h0 = float(h(0.0))
    e0 = 2.0 * N * (1.0 - h0) - d * h0
    if eps > 0 and not (1.0 + e0 > 0 and eps ** (0.5 / h0) < 1e-2 * h.T):
        return 2.0
    return math.ceil(8.0 * (1.0 + e0)) / (1.0 + e0)


class _TimeRule:
    """The graded time rule of one (h, N, d, eps) on [0, h.T].

    Every time integral of the analytic route is the density
    base = (2 pi var)^{-d/2}, var = eps + t^{2h(t)}, against a pairing:
    exp_N(-|a(t)|^2 / (2 var)) for the S-transform, a product of indicator
    kernels for a chaos kernel, 1 for the expectation.  N sets the grading
    and, at eps = 0, the truncation bound the integral needs.  The rule owns
    the argument checks of every t-integral, and makes them first.
    """

    def __init__(self, h: HurstFunctional, N: int, d: int, eps: float, n_panels: int = 48):
        self.check(h, N, d, eps)
        self.gamma = _grading_exponent(h, N, d, eps)
        self.nodes, self.weights = _graded_nodes(h.T, self.gamma, n_panels)
        self.hvals = h(self.nodes)
        # steep gradings put t^{2h(t)} below the normal floats, or base above;
        # a long horizon puts t^{2h(t)} above them
        with np.errstate(divide="ignore", over="ignore"):
            self.var = eps + self.nodes ** (2.0 * self.hvals)
            self.base = (2.0 * np.pi * self.var) ** (-d / 2.0)
        if self.var.min() < np.finfo(float).tiny or not np.isfinite(self.base).all():
            raise NumericalError("the time rule leaves the float range near t = 0")
        if not np.isfinite(self.var).all():
            raise NumericalError(f"t^(2h(t)) leaves the float range below h.T = {h.T:g}")

    @staticmethod
    def check(h: HurstFunctional, N: int, d: int, eps: float) -> None:
        """Raise unless whole N >= 0 and d >= 1, eps passes the eps rule and, at
        eps = 0, the truncation bound holds (AdmissibilityError)."""
        truncation_bound(N, d)  # checks N and d
        _eps([eps], zero_ok=True)
        if eps == 0.0:
            require_truncation_bound(h, N, d)

    def integral(self, pairing) -> float:
        """int_0^{h.T} base(t) pairing(t) dt; pairing is one value per node, or 1."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.sum(self.weights * self.base * pairing))
        if not math.isfinite(value):
            raise NumericalError(f"the t-integral is {value}: its integrand leaves the floats")
        return value

    def exponent(self, a: np.ndarray) -> np.ndarray:
        """y = |a(t)|^2 / (2 var) at the nodes, from the a(t) table; it stays
        bounded at the graded nodes near 0 where var alone is tiny; inf past the floats."""
        with np.errstate(over="ignore"):
            return np.sum(a * a, axis=1) / (2.0 * self.var)

    def direct(self, a: np.ndarray, N: int) -> float:
        """The order-N-truncated S-transform from the a(t) table on the nodes."""
        return self.integral(exp_trunc(N, -self.exponent(a)))


def s_transform_local_time(h: HurstFunctional, N: int, phi: TestFunction,
                           eps: float | Sequence[float] = 0.0) -> float | list[float]:
    """S-transform of the order-N-truncated (optionally regularized) local time.

    Graded-mesh Gauss-Legendre time quadrature; eps = 0 requires the
    truncation bound, else the integral diverges at t = 0.  ``eps`` is one
    value, which gives a float, or a nonempty sequence, which gives a list.
    Every eps's rule is built, and so checked, before any a(t) table, and
    a(t) is tabulated once per grading since it does not depend on eps:
    an eps > 0 whose crossover eps^(1/(2h(0))) is below 1e-2 h.T shares
    the eps = 0 grading, and every other eps > 0 shares grading 2.
    """
    eps_list = eps if np.ndim(eps) else [eps]
    _eps(eps_list, zero_ok=True)
    rules = [_TimeRule(h, N, phi.d, e) for e in eps_list]
    meshes = {rule.gamma: rule for rule in rules}
    tables = {gamma: _a_table(r.nodes, r.hvals, phi) for gamma, r in meshes.items()}
    values = [rule.direct(tables[rule.gamma], N) for rule in rules]
    return values if np.ndim(eps) else values[0]


def kernel_eval(h: HurstFunctional, N: int, index: Sequence[int], u, eps: float = 0.0):
    """Pointwise chaos kernel of the (truncated, regularized) local time.

    For even index 2n_vec with n = sum n_vec >= N:

        (1/n_vec!) (-1/2)^n int_0^{h.T} (2 pi var(t))^{-d/2}
            prod_{j=1}^{2n} (M_{h(t)} 1_[0,t))(u_j) / sqrt(var(t)) dt,

    with var = eps + t^{2h(t)}, and eps = 0 unregularized, which needs the
    truncation bound at N.  ``index`` holds the order per component, each a
    whole number >= 0, not a float or a bool.  ``u`` is one point of
    index-total coordinates, which gives a float, or an (m, total) array of
    points, which gives m values from one time rule and one indicator-kernel
    broadcast.  Any odd index entry gives exactly 0, as does an order below
    the truncation; the arguments are checked first.
    """
    index = tuple(index)
    for nj in index:
        _whole_number(nj, "index entry", 0)
    _TimeRule.check(h, N, len(index), eps)  # the bound at N, before any zero
    # C order: the node sums then run along rows, as for one point
    u = np.asarray(u, dtype=float, order="C")
    points = np.atleast_2d(u)
    total = sum(index)
    if u.ndim > 2 or points.shape[1] != total:
        raise ValueError(f"kernel of order {total} needs points of "
                         f"{total} coordinates, got shape {u.shape}")
    if not np.isfinite(points).all():
        raise ValueError("kernel points must be finite")
    half = [nj // 2 for nj in index]
    n = sum(half)
    if any(nj % 2 == 1 for nj in index) or n < N:
        values = np.zeros(len(points))  # odd, or truncated away
    else:
        rule = _TimeRule(h, n, len(index), eps)  # graded for the order n
        # symmetric kernel: sorting makes the invariance bit-exact
        points = np.sort(points, axis=1)
        sums = np.empty(len(points))
        for start in range(0, len(points), _A_BLOCK):
            block = points[start:start + _A_BLOCK, None, :]
            # one sqrt(var) per indicator kernel: each ratio stays bounded
            # near 0, as y = |a|^2 / (2 var) does
            ratio = (mh_indicator(rule.hvals[:, None], rule.nodes[:, None], block)
                     / np.sqrt(rule.var)[:, None])
            integrand = rule.weights * rule.base * np.prod(ratio, axis=2)
            sums[start:start + _A_BLOCK] = np.sum(integrand, axis=1)
        values = (-0.5) ** n / math.prod(map(math.factorial, half)) * sums
    return values if u.ndim == 2 else float(values[0])


def chaos_pairing(h: HurstFunctional, N: int, phi: TestFunction, n_max: int,
                  eps: float = 0.0) -> np.ndarray:
    """Partial sums of the chaos expansion paired with phi tensor powers.

    Entry i is the sum of kernel pairings over all multi-indices with total
    order in [N, N + i]; the sums converge to the direct S-transform value.
    Kernel pairings factorize through the tabulated a_j(t), and by the
    multinomial theorem the pairings of one order n sum to one time integral,
    int base (-y)^n / n! dt with y = |a(t)|^2 / (2 var): one integral per order
    until the term is 0 at every node.  n_max < N is a ValueError.
    """
    rule = _TimeRule(h, N, phi.d, eps)
    _whole_number(n_max, "n_max", N)
    x = -rule.exponent(_a_table(rule.nodes, rule.hvals, phi))
    sums = []
    with np.errstate(over="ignore"):  # a term past the floats fails its integral
        term = _power_term(N, x)
        for n in range(N, n_max + 1):
            sums.append(rule.integral(term))
            if not term.any():
                break  # every later term is 0 too
            term *= x / (n + 1)
    return np.cumsum(np.pad(sums, (0, n_max + 1 - N - len(sums))))


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    value: float
    gap: float
    limit: float


def convergence_eps(h: HurstFunctional, N: int, phi: TestFunction,
                    eps_list: Sequence[float]) -> list[ConvergenceRow]:
    """S-transform gaps between the regularized and limiting local times.

    Requires the truncation bound (so the eps = 0 limit S_0, which every row
    carries, exists); the gap |S_eps - S_0| shrinks to 0 as eps decreases.
    """
    _eps(eps_list)
    limit, *values = s_transform_local_time(h, N, phi, [0.0, *eps_list])
    return [ConvergenceRow(eps=eps, value=val, gap=abs(val - limit), limit=limit)
            for eps, val in zip(eps_list, values)]

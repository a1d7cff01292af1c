"""Analytic S-transforms, chaos-expansion kernels, and eps -> 0 diagnostics.

Everything here is a deterministic quadrature around one scalar family

    a_j(t) = int phi_j(x) (M_{h(t)} 1_[0,t))(x) dx,   j = 1..d,

the pairing of the test-function components with the fractional kernel of
the indicator.  The S-transform of the regularized, order-N-truncated local
time is

    int_0^T (2 pi (eps + t^{2h(t)}))^{-d/2}
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
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError
from .operator import mh_indicator
from .specfun import HurstFunctional, hermite_function, require_truncation_bound

__all__ = [
    "GaussianBump",
    "HermiteCombination",
    "TestFunction",
    "ChaosIndex",
    "KernelSpec",
    "exp_trunc",
    "a_vector",
    "s_transform_delta",
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
        if self.width <= 0:
            raise ValueError("width must be positive")

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * z * z)

    def l2_norm_sq(self) -> float:
        return self.amplitude ** 2 * self.width * math.sqrt(math.pi)

    def support(self) -> tuple[float, float]:
        r = 12.0 * self.width
        return self.center - r, self.center + r

    def scaled(self, lam: float) -> "GaussianBump":
        return GaussianBump(self.amplitude * lam, self.center, self.width)


@dataclass(frozen=True)
class HermiteCombination:
    """phi(x) = sum_k coeffs[k] h_k(x) with orthonormal Hermite functions."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                out = out + c * hermite_function(k, x)
        return out

    def l2_norm_sq(self) -> float:
        return sum(c * c for c in self.coeffs)

    def support(self) -> tuple[float, float]:
        # Hermite functions live on |x| <~ sqrt(2(K+1)); pad generously
        r = math.sqrt(2.0 * len(self.coeffs)) + 12.0
        return -r, r

    def scaled(self, lam: float) -> "HermiteCombination":
        return HermiteCombination(tuple(lam * c for c in self.coeffs))


@dataclass(frozen=True)
class TestFunction:
    """A d-tuple of smooth rapidly decaying components."""

    __test__ = False  # not a pytest class, despite the name

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("need at least one component")

    @property
    def d(self) -> int:
        return len(self.components)

    def scaled(self, lam: float) -> "TestFunction":
        return TestFunction(tuple(c.scaled(lam) for c in self.components))

    @classmethod
    def zero(cls, d: int) -> "TestFunction":
        return cls(tuple(GaussianBump(amplitude=0.0) for _ in range(d)))

    @classmethod
    def from_config(cls, spec: dict) -> "TestFunction":
        comps = []
        for c in spec["components"]:
            if "gaussian" in c:
                g = c["gaussian"]
                comps.append(GaussianBump(float(g.get("amplitude", 1.0)),
                                          float(g.get("center", 0.0)),
                                          float(g.get("width", 1.0))))
            elif "hermite" in c:
                comps.append(HermiteCombination(tuple(c["hermite"]["coeffs"])))
            else:
                raise ValueError(f"unknown test-function component {c!r}")
        return cls(tuple(comps))


# ---------------------------------------------------------------------------
# chaos indices and kernel specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosIndex:
    """Multi-index over the d components; order per component."""

    n_vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_vec", tuple(int(n) for n in self.n_vec))
        if any(n < 0 for n in self.n_vec):
            raise ValueError("multi-index entries must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.n_vec)

    @property
    def total(self) -> int:
        return sum(self.n_vec)

    @property
    def factorial(self) -> int:
        return math.prod(map(math.factorial, self.n_vec))


@dataclass(frozen=True)
class KernelSpec:
    """Parameters selecting one chaos kernel of the (truncated) local time.

    ``index`` holds the kernel order per component; odd entries give the
    zero kernel.  With no regularization the truncation bound must hold and
    only orders >= N survive the truncation.
    """

    h: HurstFunctional
    T: float
    N: int
    index: ChaosIndex
    eps: Optional[float] = None

    def __post_init__(self):
        if self.T <= 0 or self.T > self.h.T + 1e-12:
            raise ValueError("bad horizon")
        if self.N < 0:
            raise ValueError("truncation order must be nonnegative")
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive when given")
        if self.eps is None:
            require_truncation_bound(self.h, self.N, self.index.d)


# ---------------------------------------------------------------------------
# truncated exponential
# ---------------------------------------------------------------------------

def exp_trunc(N: int, x):
    """exp(x) minus its first N Taylor terms, computed stably.

    Tail series for |x| <= 0.5 (no cancellation); otherwise exp(x) minus the
    compensated partial sum.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) <= 0.5
    if np.any(small):
        xs = x[small]
        term = xs ** N / math.factorial(N)
        acc = term.copy()
        n = N
        while np.max(np.abs(term)) > 1e-18 * max(1.0, np.max(np.abs(acc))):
            n += 1
            term = term * xs / n
            acc += term
            if n > N + 120:
                break
        out[small] = acc
    if np.any(~small):
        xl = x[~small]
        head = np.zeros_like(xl)
        comp = np.zeros_like(xl)
        term = np.ones_like(xl)
        for n in range(N):
            # Kahan-compensated accumulation of the partial sum
            y = term - comp
            t = head + y
            comp = (t - head) - y
            head = t
            term = term * xl / (n + 1)
        out[~small] = np.exp(xl) - head
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the pairing a_j(t) and graded time quadrature
# ---------------------------------------------------------------------------

#: nodes per pass of the a(t) table.  A pass holds ~520 points per node, so
#: blocks keep its arrays near 17k entries; one pass over a whole mesh
#: (~250k points per component) raised the peak RSS of a two-component
#: `converge` run from 56 to 73 MB
_A_BLOCK = 32


def _piece_edges(p_lo, p_hi, k0, n_panels: int) -> np.ndarray:
    """Panel edges of pieces [p_lo, p_hi], one row per piece, with a
    geometric ladder toward the singular point k0 at one end of the piece,
    which resolves power-law behavior spread over many scales with one panel
    per constant ratio.

    The ladder runs over the offsets from k0 between r0, the near end, and
    r1, the far end.  A piece that touches k0 (r0 = 0) starts its ladder at
    the floor r1 * 1e-12 and its first panel absorbs [0, floor]; for any
    other piece that first panel is empty.  Rows toward a k0 above the piece
    descend.
    """
    up = k0 <= p_lo
    r0 = np.where(up, p_lo - k0, k0 - p_hi)
    r1 = np.where(up, p_hi - k0, k0 - p_lo)
    start = np.where(r0 == 0.0, r1 * 1e-12, r0)
    u = np.arange(n_panels + 1) / n_panels
    offsets = np.column_stack([r0, start[:, None] * (r1 / start)[:, None] ** u])
    return k0[:, None] + np.where(up, 1.0, -1.0)[:, None] * offsets


def _pieces(lo: float, hi: float, t: float) -> list:
    """Pieces (p_lo, p_hi, k0) of [lo, hi] for the kinks 0 and t > 0.

    The kinks inside cut [lo, hi] into segments; each segment is graded
    toward its nearest kink, and a segment between the two kinks is halved
    and graded toward both.
    """
    kinks = (0.0, t)
    cuts = sorted({lo, hi} | {k for k in kinks if lo < k < hi})
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a in kinks and b in kinks:
            mid = 0.5 * (a + b)
            out += [(a, mid, a), (mid, b, b)]
        else:
            out.append((a, b, min(kinks, key=lambda k: min(abs(k - a), abs(k - b)))))
    return out


def _kinked_rule(lo: float, hi: float, t: np.ndarray, n_panels: int = 12,
                 n_gl: int = 10):
    """Points and weights of the composite Gauss-Legendre rule for the
    integral over [lo, hi] at each node t > 0, one row per node.

    Rows hold the panels of every piece of their node; a node with fewer
    pieces than the widest one in the block is padded with zero weights.
    """
    pieces = [_pieces(lo, hi, tk) for tk in t]
    width = max(map(len, pieces))
    slots = [i * width + k for i, ps in enumerate(pieces) for k in range(len(ps))]
    p_lo, p_hi, k0 = np.array([p for ps in pieces for p in ps]).T
    edges = _piece_edges(p_lo, p_hi, k0, n_panels)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    halves = 0.5 * np.abs(np.diff(edges, axis=1))
    xg, wg = np.polynomial.legendre.leggauss(n_gl)
    x = np.zeros((len(t) * width, n_panels + 1, n_gl))
    w = np.zeros_like(x)
    x[slots] = mids[..., None] + halves[..., None] * xg
    w[slots] = halves[..., None] * wg
    return x.reshape(len(t), -1), w.reshape(len(t), -1)


def _a_table(h: HurstFunctional, nodes, phi: TestFunction) -> np.ndarray:
    """a_j(t) at every node, shape (len(nodes), d); rows for t <= 0 are zero.

    h is evaluated once on the node array.  Nodes go in blocks of _A_BLOCK:
    per block and component, the integrand phi_j(x) (M_{h(t)} 1_[0,t))(x)
    is evaluated at all points of all nodes in one broadcast and summed per
    node.
    """
    nodes = np.asarray(nodes, dtype=float)
    table = np.zeros((len(nodes), phi.d))
    live = np.flatnonzero(nodes > 0)
    hvals = h(nodes[live])
    for start in range(0, len(live), _A_BLOCK):
        rows = live[start:start + _A_BLOCK]
        t, H = nodes[rows], hvals[start:start + _A_BLOCK]
        for j, comp in enumerate(phi.components):
            x, w = _kinked_rule(*comp.support(), t)
            f = comp(x) * mh_indicator(H[:, None], t[:, None], x)
            table[rows, j] = np.sum(w * f, axis=1)
    return table


def a_vector(h: HurstFunctional, t: float, phi: TestFunction) -> np.ndarray:
    """a_j(t) = int phi_j(x) (M_{h(t)} 1_[0,t))(x) dx, one entry per component.

    The integrand is smooth except for derivative singularities of the
    indicator kernel at x = 0 and x = t; the composite rule grades its
    panels toward those points.  This is the one-node case of the table
    that the time rules use.
    """
    return _a_table(h, [t], phi)[0]


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

    With regularization the integrand is bounded (grading 2 suffices).
    Otherwise it behaves like t^e0, e0 = 2N(1-h(0)) - d h(0) > -1 by the
    truncation bound, and the grading is the least k/(1+e0) >= 8, k whole:
    t^e0 maps to the polynomial v^(k-1), and the fractional powers that
    a(t) adds are flattened.
    """
    if eps > 0:
        return 2.0
    h0 = float(h(0.0))
    e0 = 2.0 * N * (1.0 - h0) - d * h0
    return math.ceil(8.0 * (1.0 + e0)) / (1.0 + e0)


class _TimeRule:
    """The graded time rule of one (h, N, d, eps).

    Every time integral of the analytic route is the density
    base = (2 pi var)^{-d/2}, var = eps + t^{2h(t)}, against a pairing:
    exp_N(-|a(t)|^2 / (2 var)) for the S-transform, a product of indicator
    kernels for a chaos kernel, 1 for the expectation.  N sets the grading
    and, at eps = 0, the truncation bound the integral needs.
    """

    def __init__(self, h: HurstFunctional, T: float, N: int, d: int,
                 eps: float, n_panels: int = 48):
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if eps == 0.0:
            require_truncation_bound(h, N, d)
        self.gamma = _grading_exponent(h, N, d, eps)
        self.nodes, self.weights = _graded_nodes(T, self.gamma, n_panels)
        self.hvals = h(self.nodes)
        self.var = eps + self.nodes ** (2.0 * self.hvals)
        # steep gradings put t^{2h(t)} below the normal floats, or base above
        with np.errstate(divide="ignore", over="ignore"):
            self.base = (2.0 * np.pi * self.var) ** (-d / 2.0)
        if self.var.min() < np.finfo(float).tiny or not np.isfinite(self.base).all():
            raise NumericalError("the time rule leaves the float range near t = 0")

    def integral(self, pairing) -> float:
        """int_0^T base(t) pairing(t) dt; pairing is one value per node, or 1."""
        return float(np.sum(self.weights * self.base * pairing))

    def direct(self, a: np.ndarray, N: int) -> float:
        """The order-N-truncated S-transform from the a(t) table on the nodes."""
        y = np.sum(a * a, axis=1) / (2.0 * self.var)
        return self.integral(exp_trunc(N, -y))

    def chaos_term(self, a: np.ndarray, n_vec: Sequence[int]) -> float:
        """Pairing of one kernel with the matching phi tensor power."""
        index = ChaosIndex(n_vec)
        # group each a_j^2 with a factor of var: a_j^2/var stays bounded at
        # the graded nodes near 0 where var alone is tiny
        ratio = a ** 2 / self.var[:, None]
        prod = np.prod(ratio ** np.array(n_vec), axis=1)
        return ((-0.5) ** index.total / index.factorial
                * float(np.sum(self.weights * (self.base * prod))))


def s_transform_delta(h: HurstFunctional, t: float, phi: TestFunction,
                      eps: float = 0.0) -> float:
    """S-transform of the (regularized) delta of the process at time t.

    (2 pi (eps + t^{2h(t)}))^{-d/2} exp(-|a(t)|^2 / (2 (eps + t^{2h(t)}))).
    """
    if not 0.0 < t <= h.T + 1e-12:
        raise ValueError(f"t must be in (0, {h.T}]")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    var = eps + t ** (2.0 * h(t))
    a = a_vector(h, t, phi)
    return (2.0 * np.pi * var) ** (-phi.d / 2.0) * math.exp(
        -float(np.dot(a, a)) / (2.0 * var)
    )


def _quadratures(h: HurstFunctional, N: int, T: float, phi: TestFunction,
                 eps_list: Sequence[float]) -> list[tuple[_TimeRule, np.ndarray]]:
    """The time rule of each eps with its a(t) table, tabulated once per
    grading since a(t) does not depend on eps: every eps > 0 shares grading 2,
    and eps = 0 shares it unless the truncation needs a harder grading.  Every
    rule is built, and so checked, before any table."""
    rules = [_TimeRule(h, T, N, phi.d, eps) for eps in eps_list]
    meshes = {rule.gamma: rule.nodes for rule in rules}
    tables = {gamma: _a_table(h, nodes, phi) for gamma, nodes in meshes.items()}
    return [(rule, tables[rule.gamma]) for rule in rules]


def _s_transform_eps(h: HurstFunctional, N: int, T: float, phi: TestFunction,
                     eps_list: Sequence[float]) -> list[float]:
    """s_transform_local_time at each eps of the list, one a(t) table per mesh."""
    return [rule.direct(a, N) for rule, a in _quadratures(h, N, T, phi, eps_list)]


def s_transform_local_time(h: HurstFunctional, N: int, T: float,
                           phi: TestFunction, eps: float = 0.0) -> float:
    """S-transform of the order-N-truncated (optionally regularized) local time.

    Graded-mesh Gauss-Legendre time quadrature; eps = 0 requires the
    truncation bound, else the integral diverges at t = 0.
    """
    return _s_transform_eps(h, N, T, phi, [eps])[0]


def kernel_eval(spec: KernelSpec, u) -> float:
    """Pointwise chaos kernel of the (truncated, regularized) local time.

    For even index 2n_vec with n = sum n_vec >= N:

        (1/n_vec!) (-1/2)^n int_0^T (2 pi var(t))^{-d/2}
            prod_{j=1}^{2n} (M_{h(t)} 1_[0,t))(u_j) / sqrt(var(t)) dt,

    with var = eps + t^{2h(t)}, and eps = 0 unregularized.  Any odd index
    entry gives exactly 0, as does an order below the truncation.
    """
    m = spec.index
    if any(nj % 2 == 1 for nj in m.n_vec):
        return 0.0
    half = ChaosIndex(tuple(nj // 2 for nj in m.n_vec))
    n = half.total
    if n < spec.N:
        return 0.0  # truncated away
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if len(u) != 2 * n:
        raise ValueError(f"kernel of order {2 * n} needs {2 * n} arguments, got {len(u)}")
    u = np.sort(u)  # symmetric kernel: make the invariance bit-exact
    rule = _TimeRule(spec.h, spec.T, n, m.d, 0.0 if spec.eps is None else spec.eps)
    # one sqrt(var) per indicator kernel, bounded near 0 as in chaos_term
    ratio = (mh_indicator(rule.hvals[:, None], rule.nodes[:, None], u[None, :])
             / np.sqrt(rule.var)[:, None])
    return (-0.5) ** n / half.factorial * rule.integral(np.prod(ratio, axis=1))


def chaos_pairing(h: HurstFunctional, N: int, T: float, phi: TestFunction,
                  n_max: int, eps: float = 0.0) -> np.ndarray:
    """Partial sums of the chaos expansion paired with phi tensor powers.

    Entry i is the sum of kernel pairings over all multi-indices with total
    order in [N, N + i]; the sums converge to the direct S-transform value.
    Kernel pairings factorize through the tabulated a_j(t), so the cost is
    O(n_max * nodes) per diagonal plus the multi-index combinatorics.
    """
    rule, a = _quadratures(h, N, T, phi, [eps])[0]
    partial = []
    acc = 0.0
    for n in range(N, n_max + 1):
        for n_vec in _compositions(n, phi.d):
            acc += rule.chaos_term(a, n_vec)
        partial.append(acc)
    return np.array(partial)


def _compositions(n: int, d: int):
    """All d-tuples of nonnegative integers summing to n."""
    if d == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, d - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    value: float
    gap: float
    limit: float


def convergence_eps(h: HurstFunctional, N: int, T: float, phi: TestFunction,
                    eps_list: Sequence[float]) -> list[ConvergenceRow]:
    """S-transform gaps between the regularized and limiting local times.

    Requires the truncation bound (so the eps = 0 limit S_0, which every row
    carries, exists); the gap |S_eps - S_0| shrinks to 0 as eps decreases.
    """
    if any(eps <= 0 for eps in eps_list):
        raise ValueError("eps entries must be positive")
    limit, *values = _s_transform_eps(h, N, T, phi, [0.0, *eps_list])
    return [ConvergenceRow(eps=eps, value=val, gap=abs(val - limit), limit=limit)
            for eps, val in zip(eps_list, values)]

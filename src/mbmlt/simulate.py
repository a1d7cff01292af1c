"""Sample-path generation on a regular time grid.

Two generators:

* exact: one Cholesky of the correlation rho of the grid covariance,
  R_h = D rho D with D = diag(t^{h(t)}) (the factorization is the PSD
  check), then each time scaled by t^{h(t)}.  O(s^3), intended for s up to
  ~2000.  The verification baseline.
* wood_chan: FFT circulant embedding of the stationary increment process for
  constant Hurst index, extended to a time-varying index by simulating a
  field of constant-index paths on the 65 Chebyshev-Lobatto Hurst nodes
  from shared noise and interpolating in the index.  The field has low
  rank in the index: it is compressed, in one pass, to the fewest amplitude
  modes whose exactly computed variance error is at most _VAR_RTOL, so
  constant h takes one mode, and the mode count and that error are
  returned with the paths.  Fast but approximate for non-constant h.
  Paths are synthesized in blocks of pairs, and within a block the modes
  are streamed: each is synthesized, cumulated and folded into the block's
  output in turn.  One generator per component draws the noise block by
  block, Re and Im interleaved, so working memory beyond the output is
  four block buffers of about 1 MB each, not O(n_paths * M) (M the
  embedding size) nor O(modes * n_paths * s).

All randomness flows from a single 64-bit seed through numpy SeedSequence
spawning, so output does not depend on scheduling.  It is byte-identical
across thread counts only when BLAS runs on one thread: the exact method's
Cholesky factor (OpenBLAS threads potrf at s = 128) changes in the last
bits with the BLAS thread count.  The CLI pins BLAS to one thread; a
library caller must set OPENBLAS_NUM_THREADS / OMP_NUM_THREADS (etc.) to 1
before numpy is first imported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operator import _correlation_values, _grid_scale
from .specfun import HurstFunctional, _whole_number

__all__ = [
    "SimulationConfig",
    "MbmPathSet",
    "simulate_exact",
    "simulate_wood_chan_mbm",
    "simulate",
]

#: eigenvalue floor for the circulant embedding (unit-variance increments)
EMBED_TOL = 1e-9
#: largest computed relative error of the Wood-Chan variance t^{2h(t)} at
#: which the amplitude mode count stops growing
_VAR_RTOL = 1e-4
#: bytes of one block buffer: the complex spectrum of a block of path pairs
#: in the Wood-Chan synthesis, the zero-padded block of paths that
#: localtime.local_time_mc reduces
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce a path set."""

    h: HurstFunctional
    s: int = 256
    n_paths: int = 1
    d: int = 1
    seed: int = 0
    method: str = "exact"  # "exact" | "wood_chan"

    def __post_init__(self):
        for name, least in (("s", 2), ("n_paths", 1), ("d", 1), ("seed", 0)):
            _whole_number(getattr(self, name), name, least)
        if self.method not in ("exact", "wood_chan"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def grid(self) -> np.ndarray:
        """t_k = k T / s for k = 1..s; time 0 is implicit (value 0)."""
        return np.arange(1, self.s + 1) * (self.h.T / self.s)


@dataclass(frozen=True)
class MbmPathSet:
    """Simulated values, indexed (path, component, time)."""

    config: SimulationConfig
    values: np.ndarray  # shape (n_paths, d, s)
    #: Wood-Chan only: the amplitude mode count (one FFT each per block) and
    #: the computed variance error of those modes
    wood_chan: dict | None = None

    def __post_init__(self):
        # in blocks of paths, so the check makes no full-size bool array
        rows = max(1, _BLOCK_BYTES // max(1, self.values[:1].nbytes))
        for a in range(0, len(self.values), rows):
            if not np.isfinite(self.values[a:a + rows]).all():
                raise NumericalError("simulated values contain non-finite entries")


def simulate(config: SimulationConfig) -> MbmPathSet:
    """Dispatch on config.method."""
    if config.method == "exact":
        return simulate_exact(config)
    return simulate_wood_chan_mbm(config)


# ---------------------------------------------------------------------------
# exact method
# ---------------------------------------------------------------------------

def simulate_exact(config: SimulationConfig) -> MbmPathSet:
    """Zero-mean Gaussian paths with the exact grid covariance R_h = D rho D:
    L Z scaled at each time by t^{h(t)}, L the Cholesky factor of rho.

    The one factorization, with no jitter, is the PSD check: a rho it cannot
    factor raises NumericalError.  The d components are independent; each
    uses its own spawned RNG stream.
    """
    rho, scale = _correlation_values(config.grid, config.h)
    try:
        L = np.linalg.cholesky(rho)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"correlation factorization failed ({exc}); invalid h?") from exc
    streams = np.random.SeedSequence(config.seed).spawn(config.d)
    values = np.empty((config.n_paths, config.d, config.s))
    for j in range(config.d):
        rng = np.random.default_rng(streams[j])
        Z = rng.standard_normal((config.s, config.n_paths))
        np.multiply((L @ Z).T, scale, out=values[:, j, :])
    return MbmPathSet(config=config, values=values)


# ---------------------------------------------------------------------------
# circulant embedding (Wood-Chan)
# ---------------------------------------------------------------------------

def _fgn_autocov(H: float, m: int) -> np.ndarray:
    """rho(0..m), the unit-spacing fGn autocovariance: the direct form for
    k < 8, and for k >= 8 the series k^{2H} sum_j binom(2H, 2j) k^{-2j},
    whose terms share one sign, so it loses no digits to cancellation."""
    k = np.arange(m + 1, dtype=float)
    near, x = k[:8], k[8:] ** -2.0
    c = [H * (2 * H - 1)]  # binom(2H, 2j) for j = 1..10; 8 reach the last bit at k = 8
    for j in range(2, 11):
        c.append(c[-1] * (2 * H - 2 * j + 2) * (2 * H - 2 * j + 1) / ((2 * j - 1) * 2 * j))
    series = 0.0
    for cj in c[::-1]:  # Horner in k^-2
        series = (series + cj) * x
    return np.concatenate([0.5 * ((near + 1) ** (2 * H) - 2 * near ** (2 * H)
                                  + np.abs(near - 1) ** (2 * H)), k[8:] ** (2 * H) * series])


def _embedding_size(H_levels, s: int) -> tuple[int, np.ndarray]:
    """Half-size m, the power of two >= s, and the eigenvalues of the
    circulant embedding of size 2m, clipped at 0, one row per level.

    For H in (1/2, 1) the fGn autocovariance is positive, decreasing and
    convex, so every embedding size is nonnegative in exact arithmetic
    (Dietrich & Newsam, 1997).  A negative eigenvalue beyond EMBED_TOL can
    come only from rounding, which a larger m does not cure, so it raises.
    """
    m = 1 << (s - 1).bit_length()  # power of two >= s, for FFT speed
    rhos = (_fgn_autocov(H, m) for H in H_levels)  # each mirrored to size 2m
    eigs = np.array([np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real for r in rhos])
    if eigs.min() < -EMBED_TOL:
        raise NumericalError(f"circulant embedding of size {2 * m} is not "
                             f"nonnegative (min eigenvalue {eigs.min():g})")
    return m, np.clip(eigs, 0.0, None)


def _barycentric_weights(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """W[t, k] = l_k(x_t), the Lagrange basis of the Chebyshev-Lobatto nodes
    in barycentric form, with the closed-form weights (-1)^k halved at both
    ends (Berrut & Trefethen, SIAM Review 46, 2004): an x_t equal to a node
    gives an exact one-hot row, on the first such node."""
    w = (-1.0) ** np.arange(len(nodes))
    w[[0, -1]] /= 2
    diff = x[:, None] - nodes
    hit = diff == 0
    terms = w / np.where(hit, 1.0, diff)
    rows = hit.any(axis=1)
    terms[rows] = np.eye(len(nodes))[np.argmax(hit[rows], axis=1)]
    return terms / np.sum(terms, axis=1, keepdims=True)


def _hurst_nodes(grid: np.ndarray, hvals: np.ndarray, dt: float):
    """The field of the 65 Chebyshev-Lobatto Hurst nodes on [min h, max h]
    (node k at lo + (hi - lo)(1 + cos(pi k / 64)) / 2, the ends exact),
    compressed to R amplitude modes: the mode weights (s, R) at the times,
    the modes (R, M) and the variance error of that field.

    The field has low rank in H: each step of a pivoted Gram-Schmidt on the
    65 amplitude rows takes the largest remaining residual, unnormalized, as
    mode q_r, so amps[k] = sum_r C[k, r] q_r with |C| <= 1, and the mode
    weights are W'[:, r] = sum_k W[:, k] C[k, r], W the barycentric weights.
    R is the first count whose error max_t |Var(out_t) / t^{2h(t)} - 1|, taken
    in units of dt^{max h}, so free of the scale of T, is at most _VAR_RTOL,
    else 65.  The error is exact: the real paths of modes a and b have
    covariance c_ab(j) = Re fft(q_a q_b)(j) at lag j, so cumulated to time
    index t, (t + 1) c(0) + 2 sum_{1 <= j <= t} (t + 1 - j) c(j), two
    cumsums; step r adds its pair curves with modes 0..r to the running
    variance as each is made, so no per-pair state is kept.  Constant h has
    65 equal nodes, every row one-hot on node 0, so the first step leaves a
    residual of exactly 0: one mode, weight 1.0, the node's own amplitudes.
    FFTs, sums and elementwise operations only, so R does not depend on BLAS
    threads.
    """
    lo, hi = float(hvals.min()), float(hvals.max())
    nodes = lo + (hi - lo) * (1 + np.cos(np.pi * np.arange(65) / 64)) / 2
    nodes[[0, -1]] = hi, lo
    unit = dt ** nodes[:1]  # dt^{max h} by array pow; libm's scalar pow can differ by 1 ulp
    target = (_grid_scale(grid, hvals) / unit) ** 2
    m, eigs = _embedding_size(nodes, len(grid))
    res = np.sqrt(eigs / (2 * m)) * (dt ** (nodes - hi))[:, None]
    W = _barycentric_weights(hvals, nodes)
    modes, weights = np.empty_like(res), np.empty_like(W)
    var = np.zeros(len(grid))
    for r in range(65):
        norms = np.sum(res * res, axis=1)
        modes[r] = res[np.argmax(norms)]
        C = np.sum(res * modes[r], axis=1) / norms.max()  # C[k, r]; 1.0 at the pivot
        res -= C[:, None] * modes[r]
        weights[:, r] = np.sum(W * C, axis=1)
        for a in range(r + 1):
            c = np.fft.rfft(modes[a] * modes[r]).real[:len(grid)]
            c[1:] *= 2
            var += ((1 + (a < r)) * weights[:, a] * weights[:, r]) * np.cumsum(np.cumsum(c))
        err = float(np.max(np.abs(var / target - 1)))
        if err <= _VAR_RTOL:
            break
    return weights[:, :r + 1], modes[:r + 1] * unit, err


def simulate_wood_chan_mbm(config: SimulationConfig) -> MbmPathSet:
    """Field construction: constant-index paths on the Hurst nodes of
    _hurst_nodes, interpolated in the index at each time, and synthesized
    from the amplitude modes that _hurst_nodes compresses them to, each
    with its weight per time.

    Per component one complex noise array drives every mode, so paths vary
    smoothly across nodes: one (n_pairs, 2M) draw from the component's
    stream read as (n_pairs, M) complex, with n_pairs = ceil(n_paths / 2)
    and M the embedding size.  Pairs of paths are synthesized in blocks of
    B pairs, B chosen so that the block's spectrum takes about
    _BLOCK_BYTES; one generator draws each block's noise straight into a
    complex (B, M) buffer.  Within a block mode k is one in-place FFT of the
    noise times the mode's amplitudes, which hold the dt ** H of its nodes,
    cumulated over the s times and added to the output with weight W[:, k].
    Path 2p is the real part and path 2p + 1 the imaginary part of row p,
    so each step acts on the interleaved float view of the complex rows,
    with amplitudes and weights doubled.  Every step acts on each row
    alone, so the output does not depend on B.  Working memory beyond the output is four block buffers,
    reused for every block, component and mode: the noise and the spectrum,
    (B, M) complex; the cumulated mode and the output pairs, (B, s) complex.

    Approximate for non-constant h; the result carries the mode count and
    the variance error.  For constant h there is one mode with weight 1,
    so the result is exact in law: fBm is the constant-h, d = 1 case.
    """
    s, n_paths = config.s, config.n_paths
    W, modes, err = _hurst_nodes(config.grid, config.h(config.grid), config.h.T / s)
    M = modes.shape[1]
    # the block's float views interleave Re and Im, so modes and per-time
    # weights are doubled
    modes2, W2 = np.repeat(modes, 2, axis=1), np.repeat(W.T, 2, axis=1)
    n_pairs = (n_paths + 1) // 2
    B = min(n_pairs, max(1, _BLOCK_BYTES // (16 * M)))
    zeta = np.empty((B, M), dtype=complex)  # the block's noise
    spec = np.empty((B, M), dtype=complex)
    field = np.empty((B, s), dtype=complex)  # cumulated mode, Re and Im paths
    acc = np.empty((B, s), dtype=complex)  # the block's output pairs
    streams = np.random.SeedSequence(config.seed).spawn(config.d)
    values = np.empty((n_paths, config.d, s))
    for j in range(config.d):
        rng = np.random.default_rng(streams[j])
        for a in range(0, n_pairs, B):
            b = min(B, n_pairs - a)
            z = spec[:b]
            noise_f, z_f, f_f, out_f = (x[:b].view(float) for x in (zeta, spec, field, acc))
            rng.standard_normal(out=noise_f)
            for k in range(len(modes)):
                np.multiply(noise_f, modes2[k], out=z_f)
                np.fft.fft(z, axis=1, out=z)
                np.cumsum(z[:, :s], axis=1, out=field[:b])
                if k == 0:
                    np.multiply(W2[0], f_f, out=out_f)
                else:
                    f_f *= W2[k]
                    out_f += f_f
            out = values[2 * a:2 * (a + b), j, :]  # the last pair may lack its Im path
            out[0::2] = acc.real[:b]
            out[1::2] = acc.imag[:len(out) // 2]
    return MbmPathSet(config=config, values=values,
                      wood_chan={"modes": len(modes), "var_error": err})

"""Sample-path generation on a regular time grid.

Two generators:

* exact: factorize the exact covariance on the grid (Cholesky with diagonal
  jitter escalation; the factorization is the PSD check).  O(s^3), intended
  for s up to ~2000: the covariance is one O(s^2) array expression, so at
  that size the O(s^3) factorization takes most of the time.  This is the
  verification baseline.
* wood_chan: FFT circulant embedding of the stationary increment process for
  constant Hurst index, extended to a time-varying index by simulating a
  field of constant-index paths on Chebyshev-Lobatto Hurst nodes from
  shared noise and interpolating in the index.  The node count is the
  fewest, from one up, whose exactly computed variance error is at most
  _VAR_RTOL, so constant h takes one node; the count and the error are
  returned with the paths.  Fast but approximate for non-constant h.
  Paths are synthesized in blocks of pairs, and within a block the nodes
  are streamed: each is synthesized, cumulated and folded into the
  block's output in turn.  One generator per component draws the noise
  block by block, Re and Im interleaved, so working memory beyond the
  output is four block buffers of about 1 MB each, not O(n_paths * M)
  (M the embedding size) nor O(nodes * n_paths * s).

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
from .operator import _covariance_values, _grid_variance
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
#: which the Hurst node count stops growing
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
    #: Wood-Chan only: the Hurst node count and the computed variance error
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

def _cholesky_with_jitter(R: np.ndarray) -> np.ndarray:
    """Cholesky factor, escalating diagonal jitter up to 1e-10 * trace."""
    trace = float(np.trace(R))
    for rung in (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10):
        try:
            return np.linalg.cholesky(R + rung * trace * np.eye(len(R)))
        except np.linalg.LinAlgError:
            pass
    raise NumericalError(
        "covariance factorization failed after jitter escalation; invalid h?"
    )


def simulate_exact(config: SimulationConfig) -> MbmPathSet:
    """Zero-mean Gaussian paths with the exact grid covariance.

    The Cholesky factorization is the PSD check: a covariance it cannot
    factor even with jitter raises NumericalError.  The d components are
    independent; each uses its own spawned RNG stream.
    """
    R = _covariance_values(config.grid, config.h)
    L = _cholesky_with_jitter(R)
    streams = np.random.SeedSequence(config.seed).spawn(config.d)
    values = np.empty((config.n_paths, config.d, config.s))
    for j in range(config.d):
        rng = np.random.default_rng(streams[j])
        Z = rng.standard_normal((config.s, config.n_paths))
        values[:, j, :] = (L @ Z).T
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


def _lagrange_weights(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """W[t, k] = l_k(x_t), the Lagrange basis of the nodes in product form:
    an x_t equal to a node gives an exact one-hot row, with no division by 0,
    and one node gives a column of ones, the empty product."""
    W = np.empty((len(x), len(nodes)))
    for k, xk in enumerate(nodes):
        others = np.delete(nodes, k)
        W[:, k] = np.prod((x[:, None] - others) / (xk - others), axis=1)
    return W


def _hurst_nodes(grid: np.ndarray, hvals: np.ndarray, dt: float):
    """Chebyshev-Lobatto Hurst nodes on [min h, max h] (node k of n at
    lo + (hi - lo)(1 + cos(pi k / (n - 1))) / 2, the ends exact), their
    weights W (s, n) at the times, amplitudes (n, M) and variance error.

    n is the first of 1, 2, 3, 5, 9, 17, 33, 65 whose error
    max_t |Var(out_t) / t^{2h(t)} - 1| is at most _VAR_RTOL, else 65.  Each
    set is taken from the 65-node one, which holds every smaller one; the
    one-node set is [max h], weight 1, which is all that constant h needs.
    The error is exact: the real paths of nodes k and l have covariance
    c_kl(j) = Re fft(a_k a_l)(j) at lag j (a the amplitudes), so cumulated
    to time index t, (t + 1) c(0) + 2 sum_{1 <= j <= t} (t + 1 - j) c(j),
    two cumsums; each pair's curve is added to the variance as it is made,
    and every set is computed afresh, so no per-pair state is kept.  FFTs
    and elementwise operations only, so n does not depend on BLAS threads.
    """
    target = _grid_variance(grid, hvals)
    lo, hi = float(hvals.min()), float(hvals.max())
    fine = lo + (hi - lo) * (1 + np.cos(np.pi * np.arange(65) / 64)) / 2
    fine[[0, -1]] = hi, lo
    scale = dt ** fine  # array pow; libm's scalar pow can differ by 1 ulp
    for n in (1, 2, 3, 5, 9, 17, 33, 65):
        pos = np.linspace(0, 64, n).astype(int)
        m, eigs = _embedding_size(fine[pos], len(grid))
        amps = np.sqrt(eigs / (2 * m)) * scale[pos, None]
        W = _lagrange_weights(hvals, fine[pos])
        var = np.zeros(len(grid))
        for a in range(n):
            for b in range(a, n):
                c = np.fft.rfft(amps[a] * amps[b]).real[:len(grid)]
                c[1:] *= 2
                var += ((1 + (a < b)) * W[:, a] * W[:, b]) * np.cumsum(np.cumsum(c))
        err = float(np.max(np.abs(var / target - 1)))
        if err <= _VAR_RTOL:
            break
    return fine[pos], W, amps, err


def simulate_wood_chan_mbm(config: SimulationConfig) -> MbmPathSet:
    """Field construction: constant-index paths on the Hurst nodes of
    _hurst_nodes, then Lagrange interpolation in the index at each time.

    Per component one complex noise array drives every node, so paths vary
    smoothly across nodes: one (n_pairs, 2M) draw from the component's
    stream read as (n_pairs, M) complex, with n_pairs = ceil(n_paths / 2)
    and M the embedding size.  Pairs of paths are synthesized in blocks of
    B pairs, B chosen so that the block's spectrum takes about
    _BLOCK_BYTES; one generator draws each block's noise straight into a
    complex (B, M) buffer.  Within a block node k is one in-place FFT of the
    noise times amplitudes that hold dt ** H_k, cumulated over the s times
    and added to the output with weight W[:, k].  Path 2p is the real part
    and path 2p + 1 the imaginary part of row p, so each step acts on the
    interleaved float view of the complex rows, with amplitudes and weights
    doubled.  Every step acts on each row alone, so the output does not
    depend on B.  Working memory beyond the output is four block buffers,
    reused for every block, component and node: the noise and the spectrum,
    (B, M) complex; the cumulated node and the output pairs, (B, s) complex.

    Approximate for non-constant h; the result carries the node count and
    the variance error.  For constant h there is one node with weight 1, so
    the result is exact in law: fBm is the constant-h, d = 1 case.
    """
    s, n_paths = config.s, config.n_paths
    nodes, W, amps, err = _hurst_nodes(config.grid, config.h(config.grid), config.h.T / s)
    M = amps.shape[1]
    # the block's float views interleave Re and Im, so amplitudes and
    # per-time weights are doubled
    amps2, W2 = np.repeat(amps, 2, axis=1), np.repeat(W.T, 2, axis=1)
    n_pairs = (n_paths + 1) // 2
    B = min(n_pairs, max(1, _BLOCK_BYTES // (16 * M)))
    zeta = np.empty((B, M), dtype=complex)  # the block's noise
    spec = np.empty((B, M), dtype=complex)
    field = np.empty((B, s), dtype=complex)  # cumulated node, Re and Im paths
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
            for k in range(len(nodes)):
                np.multiply(noise_f, amps2[k], out=z_f)
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
                      wood_chan={"nodes": len(nodes), "var_error": err})

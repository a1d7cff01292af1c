"""Sample-path generation on a regular time grid.

Two generators:

* exact: factorize the exact covariance on the grid (Cholesky with diagonal
  jitter escalation; the factorization is the PSD check).  O(s^3), intended
  for s up to ~2000: the covariance is one O(s^2) array expression, so at
  that size the O(s^3) factorization takes most of the time.  This is the
  verification baseline.
* wood_chan: FFT circulant embedding of the stationary increment process for
  constant Hurst index, extended to a time-varying index by simulating a
  field of constant-index paths on an index grid from shared noise and
  interpolating.  Fast but approximate for non-constant h.  The levels are
  streamed: each is synthesized, cumulated and folded into the output in
  turn, in two buffers allocated once per call, so working memory is
  O(n_paths * M) (M the embedding size), not O(levels * n_paths * s).

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
from .operator import _covariance_values
from .specfun import HurstFunctional

__all__ = [
    "SimulationConfig",
    "MbmPathSet",
    "simulate_exact",
    "simulate_wood_chan_mbm",
    "simulate",
]

#: eigenvalue floor for the circulant embedding (unit-variance increments)
EMBED_TOL = 1e-9
#: spacing of the Hurst-level grid of the Wood-Chan field
_LEVEL_SPACING = 0.02


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
        if self.s < 2:
            raise ValueError("need at least 2 grid points")
        if self.n_paths < 1 or self.d < 1:
            raise ValueError("n_paths and d must be positive")
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

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
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

def _embedding_eigs(H: float, m: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding of size 2m: the FFT of the
    unit-spacing fGn autocovariance rho(0..m), mirrored."""
    k = np.arange(m + 1, dtype=float)
    rho = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    return np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real


def _embedding_size(H_levels, s: int) -> tuple[int, np.ndarray]:
    """Half-size m, the power of two >= s, and the embedding eigenvalues
    clipped at 0, one row per level.

    For H in (1/2, 1) the fGn autocovariance is positive, decreasing and
    convex, so every embedding size is nonnegative in exact arithmetic
    (Dietrich & Newsam, 1997).  A negative eigenvalue beyond EMBED_TOL comes
    from rounding in rho(k), which a larger m makes worse, so it raises.
    """
    m = 1 << (s - 1).bit_length()  # power of two >= s, for FFT speed
    eigs = np.array([_embedding_eigs(H, m) for H in H_levels])
    if eigs.min() < -EMBED_TOL:
        raise NumericalError(f"circulant embedding of size {2 * m} is not "
                             f"nonnegative (min eigenvalue {eigs.min():g})")
    return m, np.clip(eigs, 0.0, None)


def _hurst_levels(hvals: np.ndarray) -> np.ndarray:
    """The Hurst levels spanning the values of h on the grid."""
    lo, hi = float(hvals.min()), float(hvals.max())
    if hi - lo < 1e-14:
        return np.array([lo])
    n = max(2, int(np.ceil((hi - lo) / _LEVEL_SPACING)) + 1)
    return np.linspace(lo, hi, n)


def _level_runs(idx: np.ndarray, n_levels: int) -> list:
    """Per level, the slices of time indices whose lower neighbour it is and
    those whose upper neighbour it is; idx is constant on each slice."""
    runs = [([], []) for _ in range(n_levels)]
    cuts = [0, *(np.flatnonzero(np.diff(idx)) + 1), len(idx)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        runs[idx[a]][0].append(slice(a, b))
        if idx[a] + 1 < n_levels:
            runs[idx[a] + 1][1].append(slice(a, b))
    return runs


def simulate_wood_chan_mbm(config: SimulationConfig) -> MbmPathSet:
    """Field construction: constant-index paths on an index grid, then
    linear interpolation in the index at each time.

    Per component one complex noise array drives every level, so paths vary
    smoothly across levels.  The levels are streamed in increasing order:
    level i is synthesized by one in-place FFT, cumulated and scaled by
    dt ** H_i up to the last time it serves, then stored with weight 1 - w
    on the runs of times whose lower neighbour it is and added with weight
    w on the runs where it is the upper one.  Working memory is the noise
    and two buffers, reused for every component and level: the spectrum,
    (n_pairs, M) complex, and the cumulated field, (2 n_pairs, s), with
    n_pairs = ceil(n_paths / 2) and M the embedding size.

    Approximate for non-constant h.  For constant h there is a single level
    and no interpolation, so the result is exact in law: fBm is the
    constant-h, d = 1 case.
    """
    s, n_paths = config.s, config.n_paths
    hvals = config.h(config.grid)
    levels = _hurst_levels(hvals)
    scale = (config.h.T / s) ** levels  # array pow; libm's scalar pow can differ by 1 ulp
    if len(levels) == 1:  # the one level is stored with weight 1 - 0
        idx, w = np.zeros(s, dtype=int), np.zeros(s)
    else:  # per time index: the bracketing levels and the weight of the upper
        idx = np.clip(np.searchsorted(levels, hvals) - 1, 0, len(levels) - 2)
        w = (hvals - levels[idx]) / (levels[idx + 1] - levels[idx])
    runs = _level_runs(idx, len(levels))
    m, eigs = _embedding_size(levels, s)
    M = 2 * m
    amps = np.sqrt(eigs / M)
    n_pairs = (n_paths + 1) // 2
    zeta = np.empty((n_pairs, M), dtype=complex)
    spec = np.empty((n_pairs, M), dtype=complex)
    field = np.empty((2 * n_pairs, s))  # path 2p is Re, path 2p + 1 is Im
    streams = np.random.SeedSequence(config.seed).spawn(config.d)
    values = np.empty((n_paths, config.d, s))
    for j in range(config.d):
        rng = np.random.default_rng(streams[j])
        zeta.real = rng.standard_normal((n_pairs, M))
        zeta.imag = rng.standard_normal((n_pairs, M))
        out = values[:, j, :]
        for i, (lower, upper) in enumerate(runs):
            K = max((r.stop for r in lower + upper), default=0)
            np.multiply(amps[i], zeta, out=spec)
            np.fft.fft(spec, axis=1, out=spec)
            np.cumsum(spec.real[:, :K], axis=1, out=field[0::2, :K])
            np.cumsum(spec.imag[:, :K], axis=1, out=field[1::2, :K])
            F = field[:n_paths, :K]
            F *= scale[i]
            for r in lower:
                np.multiply(1 - w[r], F[:, r], out=out[:, r])
            for r in upper:
                F[:, r] *= w[r]
                out[:, r] += F[:, r]
    return MbmPathSet(config=config, values=values)

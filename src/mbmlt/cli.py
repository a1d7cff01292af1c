"""Command-line entry point: config parsing, dispatch, and file output.

Subcommands: simulate, covariance, localtime, stransform, kernels, converge.
The numerical routes live in the library modules; this file parses
configuration, calls them, and writes CSV plus a JSON manifest, which also
holds the checks against theory: simulate's variance_rel_rms, localtime's
per-eps target and z, converge's limit and per-eps rel_gap.  The acceptance
suite runs from a source checkout with `pytest tests/test_acceptance.py`.

Exit codes: 1 config error, 2 math-domain error (range/truncation-bound
violation or divergence), 3 numerical failure (quadrature/factorization),
4 internal error (any other exception, e.g. MemoryError; its traceback is
printed first).  Every failure ends stderr with a one-line JSON reason.
BLAS runs on one thread: main() sets every BLAS/OpenMP thread variable to 1
before numpy is loaded, so outputs are byte-identical regardless of the
ambient OMP/BLAS environment (a threaded Cholesky changes the last bits of
the exact paths).  The CLI does not read MBMLT_NUM_THREADS.  The pinning
takes effect only when the CLI is the process entry point (`mbmlt ...` or
`python -m mbmlt.cli`); a main() called after numpy has been imported does
not pin.  main() restores the caller's values of those variables when it
returns, so an in-process caller's environment is left as it was.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import AdmissibilityError, NumericalError

FMT = "%.17g"

#: values per write of _write_csv; its buffers peak at about 260 bytes a value
_CHUNK = 1 << 13

#: the top-level config keys, as the README's example lists them
_CONFIG_KEYS = frozenset({"hurst", "T", "d", "N", "s", "n_paths", "seed", "method",
                          "eps", "test_function", "kernel_index", "u_grid"})

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@contextmanager
def _pinned_threads():
    """Set every BLAS/OpenMP thread variable to 1; restore the prior values.

    BLAS libraries read these variables only when numpy is loaded, so
    restoring them afterwards does not change the thread count of the run.
    """
    saved = {var: os.environ.get(var) for var in _THREAD_VARS}
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _load_config(path: str) -> dict:
    """The config file's JSON object; a config error unless it is an object
    whose keys are all known."""
    from .specfun import _config_keys

    with open(path) as fh:
        return _config_keys(json.load(fh), _CONFIG_KEYS, "config")


def _whole(value, name: str) -> int:
    """value as an int; ValueError unless it is whole, so neither 1.5 nor
    true is read as 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value % 1 != 0):  # NaN and inf too
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _build(cfg: dict):
    """h, d, N and the test function, zero when absent, of the parsed config."""
    from .chaos import TestFunction
    from .specfun import HurstFunctional, _real

    T = _real(cfg.get("T", 1.0), "T")
    h = HurstFunctional.from_config(cfg["hurst"], T=T)
    d = _whole(cfg.get("d", 1), "d")
    N = _whole(cfg.get("N", 0), "N")
    phi = (TestFunction.from_config(cfg["test_function"]) if "test_function" in cfg
           else TestFunction.zero(d))
    if phi.d != d:
        raise ValueError(f"test function has {phi.d} components, d = {d}")
    return h, d, N, phi


def _eps_list(cfg: dict, default: list) -> list:
    """The config's eps list, each entry a real number; default if absent."""
    from .specfun import _config_list, _real

    return [_real(e, "eps") for e in _config_list(cfg.get("eps", default), "eps")]


def _simulation(cfg: dict, h, d: int, n_paths: int):
    """The SimulationConfig that cfg asks for; n_paths is the command's default."""
    from .simulate import SimulationConfig

    return SimulationConfig(h=h, s=_whole(cfg.get("s", 256), "s"), d=d,
                            n_paths=_whole(cfg.get("n_paths", n_paths), "n_paths"),
                            seed=_whole(cfg.get("seed", 0), "seed"),
                            method=cfg.get("method", "exact"))


@functools.cache
def _digit_tables():
    """_format17's tables, built at its first call, not at import: lanes,
    trailing zeros and lane masks of 4-digit groups, prefix and exponent
    words of E = -6..15, the doubles 1e-5..1e15, and 10^k with its Veltkamp
    high half."""
    import numpy as np

    g = np.arange(10000, dtype=np.uint16)[:, None]
    lanes = (48 + g // np.array([1000, 100, 10, 1], np.uint16) % 10).astype("<u2")
    zeros = (g % np.array([10, 100, 1000, 10000], np.uint16) == 0).sum(axis=1, dtype=np.uint8)
    keep = ((np.arange(20) < np.arange(18)[:, None]) * 0xFFFF).astype("<u2")
    pre = [b"\0" + (b"0." + b"0" * (-e - 1)) * (-4 <= e < 0) for e in range(-6, 16)]
    post = [b"\0\0e-0%d" % -e * (e < -4) for e in range(-6, 16)]
    decades = np.array([float(f"1e{k}") for k in range(-5, 16)])  # correctly rounded
    p10 = np.array([float(f"1e{k}") for k in range(23)])
    c = 134217729.0 * p10
    return (lanes.view("<u8").ravel(), zeros, keep.view("<u8").T,
            np.array(pre, "S8").view("<u8"), np.array(post, "S8").view("<u8"),
            decades, p10, c - (c - p10))


def _format17(x):
    """FMT % v for each v of the 1-D float array x, as the rows of an
    (x.size, 48) uint8 array whose NUL bytes are not part of the text.

    For 10^-6 < |v| < 10^16 the exponent E of |v| is -6 plus the count of
    the doubles 1e-5..1e15 at or below |v| (exact: each is 10^k or the next
    double above it), Dekker's product gives |v| 10^(16 - E) = hi + lo
    exactly, and hi + lo rounded half to even gives the 17 digits (never
    10^17: the doubles next below 10^-5..10^16 all round down).  A row holds
    the sign and the "0.000" of -4 <= E < 0, the digits in 16-bit lanes with
    '.' in the high byte of lane E (lane 0 in the e-05, e-06 forms), and the
    exponent; zeros past the last significant and integer digit are NUL.
    Any other v is FMT % v itself.  Only exact operations decide a digit, so
    the bytes do not depend on numpy's SIMD dispatch."""
    import numpy as np

    lanes, tz, masks, pre, post, decades, p10, p10_hi = _digit_tables()
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)  # the double 1e-6 is below 10^-6
    a[~fast] = 1.0  # keeps the arithmetic below finite
    e = np.searchsorted(decades, a, side="right") - 6
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b, b_hi = p10[16 - e], p10_hi[16 - e]
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * (b - b_hi) + a_lo * b_hi) + a_lo * (b - b_hi)
    floor = np.floor(lo)
    d = hi.astype(np.int64) + floor.astype(np.int64)
    d += (lo - floor > 0.5) | ((lo - floor == 0.5) & (d % 2 == 1))
    q, last = np.divmod(d, 10)  # digit 16
    groups = []  # digits 0-3, 4-7, 8-11, 12-15
    for _ in range(4):
        q, g = np.divmod(q, 10000)
        groups.insert(0, g)
    trailing = last == 0
    nd = 17 - trailing  # significant digits
    for g in groups[::-1]:
        nd -= trailing * tz[g]
        trailing &= g == 0
    keep = np.maximum(nd, e + 1)
    cells = np.empty((x.size, 6), "<u8")
    cells[:, 0] = pre[e + 6] | (x < 0) * np.uint64(ord("-"))
    for j, g in enumerate(groups):
        cells[:, j + 1] = lanes[g] & masks[j][keep]
    cells[:, 5] = post[e + 6] | (48 + last).astype(np.uint64) & masks[4][keep]
    dot = np.flatnonzero((nd > np.maximum(e + 1, 1)) & ((e >= 0) | (e < -4)))
    lane = np.maximum(e[dot], 0)
    shift = (16 * (lane % 4) + 8).astype(np.uint64)
    cells.ravel()[6 * dot + 1 + lane // 4] |= np.uint64(ord(".")) << shift
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [(FMT % v).encode() for v in x[slow].tolist()]
        cells[slow] = np.array(text, dtype="S48").view("<u8").reshape(-1, 6)
    return cells.view(np.uint8)


def _write_csv(path: Path, header: list, table, labels=None, lead=None) -> None:
    """Write a header line, then every row of each block of the float table
    of shape (blocks, rows, cols), each value as FMT (17 significant digits,
    so doubles round-trip exactly).  The float labels[i] starts each row of
    block i (paths.csv's path index), and the float lead[k] starts row k of
    every block (the times of paths.csv and covariance.csv); both are
    formatted once per table.  Every value goes through _format17, whose
    array operations give the bytes of FMT % v, exactly for 1e-6 < |v| <
    1e16 and by FMT % v itself for any other v.  Rows are gathered about
    _CHUNK values at a time, so the buffers do not grow with the table."""
    import numpy as np

    def column(values):  # one NUL-padded "FMT," row per value
        cells = _format17(np.asarray(values, dtype=float))
        cells[:, 46] = ord(",")
        text = [cell.tobytes().translate(None, b"\0") for cell in cells]
        return np.array(text, dtype="S").view(np.uint8).reshape(len(text), -1)

    table = np.asarray(table, dtype=float)
    blocks, rows, cols = table.shape
    labels, lead = (None if t is None else column(t) for t in (labels, lead))
    step = max(1, _CHUNK // cols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for k in range(0, blocks * rows, step):
            block, row = np.divmod(np.arange(k, min(k + step, blocks * rows)), rows)
            cells = _format17(table[block, row].ravel()).reshape(len(row), cols, 48)
            cells[:, :, 46] = ord(",")
            cells[:, -1, 46] = ord("\n")
            columns = [t[i] for t, i in ((labels, block), (lead, row)) if t is not None]
            columns.append(cells.reshape(len(row), -1))
            fh.write(np.concatenate(columns, axis=1).tobytes().translate(None, b"\0"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .operator import _grid_scale
    from .simulate import simulate

    h, d, _, _ = _build(cfg)
    sim = _simulation(cfg, h, d, n_paths=1)
    paths = simulate(sim)
    values, grid = paths.values, sim.grid
    _write_csv(outdir / "paths.csv", ["path", "t", *(f"v{j+1}" for j in range(d))],
               values.transpose(0, 2, 1), labels=np.arange(sim.n_paths), lead=grid)
    # the paths are written: divided in place by t^{h(t)}, their mean square estimates 1
    values /= _grid_scale(grid, h(grid))
    rel = np.einsum("ijk,ijk->k", values, values) / (sim.n_paths * d) - 1.0
    return {"method": sim.method, "seed": sim.seed, "s": sim.s, "n_paths": sim.n_paths,
            "d": d, "T": h.T, "wood_chan": paths.wood_chan,
            "variance_rel_rms": float(np.sqrt(np.mean(rel * rel)))}


def _cmd_covariance(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .operator import covariance_matrix
    from .specfun import _whole_number

    h, _, _, _ = _build(cfg)
    s = _whole(cfg.get("s", 64), "s")
    _whole_number(s, "s", 1)
    grid = np.arange(1, s + 1) * (h.T / s)
    cov = covariance_matrix(grid, h)
    _write_csv(outdir / "covariance.csv", ["t", *(FMT % t for t in grid.tolist())],
               cov.values[None], lead=grid)
    return {"grid_points": s, "min_eigenvalue": cov.min_eigenvalue}


def _cmd_localtime(cfg: dict, outdir: Path) -> dict:
    from .localtime import _check_mc_args, local_time_mc
    from .simulate import simulate

    h, d, N, _ = _build(cfg)
    eps = _eps_list(cfg, [0.1])
    _check_mc_args(eps, N)  # before the paths exist, so a bad eps costs no simulation
    sim = _simulation(cfg, h, d, n_paths=1000)
    paths = simulate(sim)
    estimate, stderr, target = local_time_mc(paths, eps, N)
    _write_csv(outdir / "localtime.csv", ["eps", "N", "estimate", "stderr", "n_paths"],
               [[(e, N, est, se, sim.n_paths) for e, est, se in zip(eps, estimate, stderr)]])
    z = [(e - t) / se if se > 0 else None
         for e, se, t in zip(estimate.tolist(), stderr.tolist(), target.tolist())]
    return {"n_paths": sim.n_paths, "seed": sim.seed, "method": sim.method,
            "wood_chan": paths.wood_chan, "target": target.tolist(), "z": z}


def _cmd_stransform(cfg: dict, outdir: Path) -> dict:
    from .chaos import s_transform_local_time

    h, _, N, phi = _build(cfg)
    eps_list = _eps_list(cfg, [0.0])
    values = s_transform_local_time(h, N, phi, eps_list)
    rows = [(eps, N, val) for eps, val in zip(eps_list, values)]
    _write_csv(outdir / "stransform.csv", ["eps", "N", "value"], [rows])
    return {"N": N}


def _cmd_kernels(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .chaos import kernel_eval
    from .specfun import _config_list, _eps, _real

    h, d, N, _ = _build(cfg)
    eps_list = _eps_list(cfg, [0.0])  # eps = 0: unregularized
    _eps(eps_list, zero_ok=True)
    n_vec = [_whole(n, "kernel index entry")
             for n in _config_list(cfg["kernel_index"], "kernel_index")]
    if len(n_vec) != d:
        raise ValueError(f"kernel index has {len(n_vec)} components, d = {d}")
    order = sum(n_vec)
    points = [_config_list(p, "u_grid point") for p in _config_list(cfg["u_grid"], "u_grid")]
    if not points:
        raise ValueError("u_grid must list at least one point")
    if any(len(p) != order for p in points):
        raise ValueError(f"every u point needs {order} coordinates")
    u = np.array([[_real(x, "u_grid coordinate") for x in p] for p in points],
                 dtype=float).reshape(len(points), order)
    # a list, so every kernel is computed before the file is opened
    blocks = [np.column_stack([np.full(len(u), e), u, kernel_eval(h, N, n_vec, u, e)])
              for e in eps_list]
    _write_csv(outdir / "kernels.csv", ["eps", *(f"u{i+1}" for i in range(order)), "value"],
               blocks)
    return {"index": n_vec, "order": order}


def _cmd_converge(cfg: dict, outdir: Path) -> dict:
    from .chaos import convergence_eps

    h, _, N, phi = _build(cfg)
    eps_list = _eps_list(cfg, [1e-1, 1e-2, 1e-3, 1e-4])
    rows = convergence_eps(h, N, phi, eps_list)
    _write_csv(outdir / "converge.csv", ["eps", "value", "gap"],
               [[(r.eps, r.value, r.gap) for r in rows]])
    limit = rows[0].limit
    return {"N": N, "final_gap": rows[-1].gap, "limit": limit,
            "rel_gap": [r.gap / abs(limit) if limit else None for r in rows]}


COMMANDS = {
    "simulate": _cmd_simulate,
    "covariance": _cmd_covariance,
    "localtime": _cmd_localtime,
    "stransform": _cmd_stransform,
    "kernels": _cmd_kernels,
    "converge": _cmd_converge,
}


def _classify(exc: Exception) -> tuple[str, int]:
    """The JSON error name and exit code of an exception a command raised."""
    if isinstance(exc, AdmissibilityError):
        return "math-domain", 2
    # numpy's LinAlgError subclasses ValueError; if it was raised, numpy.linalg
    # is loaded, so the check imports no numpy
    linalg = sys.modules.get("numpy.linalg")
    if isinstance(exc, NumericalError) or (linalg and isinstance(exc, linalg.LinAlgError)):
        return "numerical", 3
    if isinstance(exc, (KeyError, TypeError, ValueError, OSError)):  # incl. JSONDecodeError
        return "config", 1
    return "internal", 4


def main(argv=None) -> int:
    with _pinned_threads():
        return _main(argv)


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="mbmlt",
        description="Multifractional Brownian motion, local times, and "
                    "chaos-expansion kernels",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--eps", type=float, action="append",
                        help="override config eps list (repeatable)")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        cfg = _load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.eps:
            cfg["eps"] = args.eps
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if "hurst" not in cfg:
            raise ValueError("config must define a 'hurst' entry")
        extra = COMMANDS[args.command](cfg, outdir)
    except Exception as exc:
        error, code = _classify(exc)
        if error == "internal":  # a defect or resource failure: keep its traceback
            traceback.print_exc()
        reason = repr(exc) if error == "internal" else str(exc)
        print(json.dumps({"error": error, "reason": reason}), file=sys.stderr)
        return code
    manifest = {"command": args.command, "config": cfg, "version": __version__,
                "wall_time_s": round(time.time() - t0, 3), **extra}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

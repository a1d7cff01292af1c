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

#: the top-level config keys, as the README's example lists them
_CONFIG_KEYS = frozenset({"hurst", "T", "d", "N", "s", "n_paths", "seed", "method",
                          "eps", "test_function", "kernel_index", "kernel_eps", "u_grid"})

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


def _write_csv(path: Path, header: list, blocks, labels=None, lead=None) -> None:
    """Write a header line, then every row of each 2-D float block, each
    value as FMT (17 significant digits, so doubles round-trip exactly).
    Row templates are built once per table; one % formats a block.  labels[i]
    starts each row of block i (paths.csv's path index); lead[k] is row k's
    first column as text, shared by every block (the times of paths.csv and
    covariance.csv), so it is formatted once."""
    import numpy as np

    row = ",".join([FMT] * (len(header) - (labels is not None) - (lead is not None))) + "\n"
    rows = None if lead is None else [t + "," + row for t in lead]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, block in enumerate(blocks):
            block = np.asarray(block, dtype=float)
            text = ("" if labels is None else labels[i]).join(["", *(rows or [row] * len(block))])
            fh.write(text % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .simulate import simulate

    h, d, _, _ = _build(cfg)
    sim = _simulation(cfg, h, d, n_paths=1)
    values, grid = simulate(sim).values, sim.grid
    _write_csv(outdir / "paths.csv", ["path", "t", *(f"v{j+1}" for j in range(d))],
               (v.T for v in values), labels=[f"{p}," for p in range(sim.n_paths)],
               lead=[FMT % t for t in grid.tolist()])
    # mean square over paths and components, relative to t^{2h(t)}
    sample = np.einsum("ijk,ijk->k", values, values) / (sim.n_paths * d)
    rel = sample / grid ** (2.0 * h(grid)) - 1.0
    return {"method": sim.method, "seed": sim.seed, "s": sim.s, "n_paths": sim.n_paths,
            "d": d, "T": h.T,
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
    times = [FMT % t for t in grid.tolist()]
    _write_csv(outdir / "covariance.csv", ["t", *times], [cov.values], lead=times)
    return {"grid_points": s, "min_eigenvalue": cov.min_eigenvalue}


def _cmd_localtime(cfg: dict, outdir: Path) -> dict:
    from .localtime import _check_mc_args, local_time_mc
    from .simulate import simulate

    h, d, N, _ = _build(cfg)
    eps = _eps_list(cfg, [0.1])
    _check_mc_args(eps, N)  # before the paths exist, so a bad eps costs no simulation
    sim = _simulation(cfg, h, d, n_paths=1000)
    estimate, stderr, target = local_time_mc(simulate(sim), eps, N)
    _write_csv(outdir / "localtime.csv", ["eps", "N", "estimate", "stderr", "n_paths"],
               [[(e, N, est, se, sim.n_paths) for e, est, se in zip(eps, estimate, stderr)]])
    z = [(e - t) / se if se > 0 else None
         for e, se, t in zip(estimate.tolist(), stderr.tolist(), target.tolist())]
    return {"n_paths": sim.n_paths, "seed": sim.seed, "method": sim.method,
            "target": target.tolist(), "z": z}


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
    from .specfun import _config_list, _real

    h, d, N, _ = _build(cfg)
    n_vec = [_whole(n, "kernel index entry")
             for n in _config_list(cfg["kernel_index"], "kernel_index")]
    if len(n_vec) != d:
        raise ValueError(f"kernel index has {len(n_vec)} components, d = {d}")
    order = sum(n_vec)
    points = [_config_list(p, "u_grid point") for p in _config_list(cfg["u_grid"], "u_grid")]
    if any(len(p) != order for p in points):
        raise ValueError(f"every u point needs {order} coordinates")
    u = np.array([[_real(x, "u_grid coordinate") for x in p] for p in points],
                 dtype=float).reshape(len(points), order)
    # kernel_eps absent, null or 0: unregularized
    kernel_eps = cfg.get("kernel_eps")
    values = kernel_eval(h, N, n_vec, u,
                         0.0 if kernel_eps is None else _real(kernel_eps, "kernel_eps"))
    _write_csv(outdir / "kernels.csv", [f"u{i+1}" for i in range(order)] + ["value"],
               [np.column_stack([u, values])])
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
    if isinstance(exc, NumericalError):
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

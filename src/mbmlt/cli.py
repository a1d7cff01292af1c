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
the exact paths).  MBMLT_NUM_THREADS no longer sets the BLAS thread count.
The pinning takes effect only when the CLI is the process entry point
(`mbmlt ...` or `python -m mbmlt.cli`); a main() called after numpy has
been imported does not pin.  main() restores the caller's values of those
variables when it returns, so an in-process caller's environment is left
as it was.
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

from .errors import AdmissibilityError, NumericalError

FMT = "%.17g"

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
    with open(path) as fh:
        return json.load(fh)


def _build(cfg: dict):
    """Construct domain objects from the parsed configuration."""
    from .chaos import TestFunction
    from .specfun import HurstFunctional

    T = float(cfg.get("T", 1.0))
    h = HurstFunctional.from_config(cfg["hurst"], T=T)
    d = int(cfg.get("d", 1))
    phi = None
    if "test_function" in cfg:
        phi = TestFunction.from_config(cfg["test_function"])
        if phi.d != d:
            raise ValueError(f"test function has {phi.d} components, d = {d}")
    return h, d, phi


def _write_manifest(outdir: Path, cfg: dict, extra: dict, t0: float) -> None:
    from . import __version__

    manifest = {
        "config": cfg,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        **extra,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .simulate import SimulationConfig, simulate

    h, d, _ = _build(cfg)
    sim = SimulationConfig(
        h=h, s=int(cfg.get("s", 256)), n_paths=int(cfg.get("n_paths", 1)),
        d=d, seed=int(cfg.get("seed", 0)), method=cfg.get("method", "exact"),
    )
    paths = simulate(sim)
    paths.to_csv(outdir / "paths.csv")
    # mean square over paths and components, relative to t^{2h(t)}
    sample = np.einsum("ijk,ijk->k", paths.values, paths.values) / (sim.n_paths * d)
    rel = sample / sim.grid ** (2.0 * h(sim.grid)) - 1.0
    return {**paths.metadata(), "variance_rel_rms": float(np.sqrt(np.mean(rel * rel)))}


def _cmd_covariance(cfg: dict, outdir: Path) -> dict:
    import numpy as np

    from .operator import covariance_matrix

    h, _, _ = _build(cfg)
    s = int(cfg.get("s", 64))
    grid = np.arange(1, s + 1) * (h.T / s)
    cov = covariance_matrix(grid, h)
    cov.to_csv(outdir / "covariance.csv")
    return {"grid_points": s, "min_eigenvalue": cov.min_eigenvalue()}


def _cmd_localtime(cfg: dict, outdir: Path) -> dict:
    from .localtime import RegularizationParams, expected_local_time, local_time_mc
    from .simulate import SimulationConfig, simulate

    h, d, _ = _build(cfg)
    sim = SimulationConfig(
        h=h, s=int(cfg.get("s", 256)), n_paths=int(cfg.get("n_paths", 1000)),
        d=d, seed=int(cfg.get("seed", 0)), method=cfg.get("method", "exact"),
    )
    paths = simulate(sim)
    N = int(cfg.get("N", 0))
    rows, targets, z = [], [], []
    for eps in [float(e) for e in cfg.get("eps", [0.1])]:
        est = local_time_mc(paths, RegularizationParams(eps=eps, N=N))
        rows.append((est.params.eps, est.params.N, est.estimate, est.stderr,
                     est.n_paths))
        # the N = 1 estimate is already centered on its expectation
        target = 0.0 if N == 1 else expected_local_time(h, eps, sim.T, d)
        targets.append(target)
        z.append((est.estimate - target) / est.stderr if est.stderr > 0 else None)
    _write_csv(outdir / "localtime.csv",
               ["eps", "N", "estimate", "stderr", "n_paths"], rows)
    return {"n_paths": sim.n_paths, "seed": sim.seed, "method": sim.method,
            "target": targets, "z": z}


def _cmd_stransform(cfg: dict, outdir: Path) -> dict:
    from .chaos import TestFunction, _s_transform_eps

    h, d, phi = _build(cfg)
    if phi is None:
        phi = TestFunction.zero(d)
    N = int(cfg.get("N", 0))
    eps_list = [float(e) for e in cfg.get("eps", [0.0])]
    values = _s_transform_eps(h, N, h.T, phi, eps_list)
    rows = [(eps, N, val) for eps, val in zip(eps_list, values)]
    _write_csv(outdir / "stransform.csv", ["eps", "N", "value"], rows)
    return {"N": N}


def _cmd_kernels(cfg: dict, outdir: Path) -> dict:
    from .chaos import ChaosIndex, KernelSpec, kernel_eval

    h, d, _ = _build(cfg)
    index = ChaosIndex(tuple(int(n) for n in cfg["kernel_index"]))
    if index.d != d:
        raise ValueError(f"kernel index has {index.d} components, d = {d}")
    eps = cfg.get("kernel_eps")
    spec = KernelSpec(h=h, T=h.T, N=int(cfg.get("N", 0)), index=index,
                      eps=None if eps is None else float(eps))
    order = index.total
    rows = []
    for u in cfg["u_grid"]:
        u = [float(x) for x in (u if isinstance(u, list) else [u])]
        if len(u) != order:
            raise ValueError(f"u point needs {order} coordinates, got {len(u)}")
        rows.append((*u, kernel_eval(spec, u)))
    _write_csv(outdir / "kernels.csv",
               [f"u{i+1}" for i in range(order)] + ["value"], rows)
    return {"index": list(index.n_vec), "order": order}


def _cmd_converge(cfg: dict, outdir: Path) -> dict:
    from .chaos import TestFunction, convergence_eps

    h, d, phi = _build(cfg)
    if phi is None:
        phi = TestFunction.zero(d)
    N = int(cfg.get("N", 0))
    eps_list = [float(e) for e in cfg.get("eps", [1e-1, 1e-2, 1e-3, 1e-4])]
    rows = convergence_eps(h, N, h.T, phi, eps_list)
    _write_csv(outdir / "converge.csv", ["eps", "value", "gap"],
               [(r.eps, r.value, r.gap) for r in rows])
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
    _write_manifest(outdir, cfg, {"command": args.command, **extra}, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

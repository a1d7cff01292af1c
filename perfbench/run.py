"""mbmlt benchmark: four CLI workloads timed end to end, and a traced run
that times the calls into each module.

    python3 perfbench/run.py --workload exact-lt --seed 7 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there, and outputs go to ``.perfbench_out/``.  One client drives a
closed loop: the next ``mbmlt`` process starts only after the previous one
has exited and its output has been checked, with every thread variable
pinned to 1.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from child import LAYER_UNITS, THREAD_VARS, pin_threads

pin_threads()  # the checks below use numpy; keep it off the CLI's second core

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().with_name("child.py")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
Z_MAX = 5.0  # Monte-Carlo checks accept |estimate - expectation| <= Z_MAX stderr

# converge values of the chaos-gap config at the first benchmarked commit;
# the workload is deterministic, so they must repeat to 1e-8
CHAOS_GAP_VALUES = {
    0.1: -0.0033667291647286853,
    0.01: -0.0043103613416046625,
    0.001: -0.0044373771936280591,
    0.0001: -0.0044516762816503496,
}
CHAOS_GAP_RTOL = 1e-8


# ---------------------------------------------------------------------------
# output checks, written independently of the program
# ---------------------------------------------------------------------------

def hurst(spec: dict) -> Callable:
    (kind, p), = spec.items()
    if kind == "linear":
        return lambda t: p["a"] + p["b"] * t
    if kind == "sin":
        import numpy as np

        return lambda t: p["a"] + p["b"] * np.sin(p["omega"] * t)
    raise ValueError(f"no reference for hurst kind {kind!r}")


def expected_local_time(spec: dict, eps: float, d: int) -> float:
    """int_0^1 (2 pi (eps + t^{2h(t)}))^{-d/2} dt, by adaptive quadrature."""
    from scipy.integrate import quad

    h = hurst(spec)
    val, _ = quad(lambda t: (2 * math.pi * (eps + t ** (2 * h(t)))) ** (-d / 2),
                  0.0, 1.0, limit=400, epsabs=1e-11, epsrel=1e-10)
    return val


def csv_rows(data: bytes, header: str) -> list[list[float]]:
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_localtime(data: bytes, cfg: dict) -> list[str]:
    """One row per eps, each within Z_MAX stderr of its expectation: 0 for
    N = 1, E[L_eps(1)] for N = 0."""
    rows = csv_rows(data, "eps,N,estimate,stderr,n_paths")
    if len(rows) != len(cfg["eps"]):
        return [f"{len(rows)} rows for {len(cfg['eps'])} eps values"]
    problems = []
    for (eps, N, est, stderr, n), want_eps in zip(rows, cfg["eps"]):
        if (eps, N, n) != (want_eps, cfg["N"], cfg["n_paths"]):
            problems.append(f"row labels {(eps, N, n)}")
            continue
        mean = 0.0 if N == 1 else expected_local_time(cfg["hurst"], eps, cfg["d"])
        if not (math.isfinite(est) and stderr > 0 and abs(est - mean) <= Z_MAX * stderr):
            problems.append(f"eps={eps:g}: estimate {est:g} +- {stderr:g}, expected {mean:g}")
    return problems


def check_paths(data: bytes, cfg: dict) -> list[str]:
    """n_paths * s finite rows in (path, time) order, and the sample variance
    at four grid times within Z_MAX standard errors of t^{2h(t)}."""
    import numpy as np

    n, s, d = cfg["n_paths"], cfg["s"], cfg["d"]
    head, _, body = data.partition(b"\n")
    if head.decode() != "path,t," + ",".join(f"v{j + 1}" for j in range(d)):
        return [f"header {head[:80]!r}"]
    vals = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    if vals.shape != (n * s, 2 + d):
        return [f"shape {vals.shape}, expected {(n * s, 2 + d)}"]
    if not np.all(np.isfinite(vals)):
        return ["non-finite values"]
    grid = np.arange(1, s + 1) / s
    if not (np.array_equal(vals[:, 0], np.repeat(np.arange(n), s))
            and np.allclose(vals[:, 1], np.tile(grid, n), rtol=0, atol=1e-12)):
        return ["path/time columns out of order"]
    x = vals[:, 2:].reshape(n, s, d)
    h = hurst(cfg["hurst"])
    tol = Z_MAX * math.sqrt(2.0 / (n * d))  # stderr of a mean of n*d squares, relative
    problems = []
    for k in (s // 4, s // 2, 3 * s // 4, s):
        t = grid[k - 1]
        with np.errstate(over="ignore"):  # a corrupted value may overflow
            ratio = float(np.mean(x[:, k - 1, :] ** 2)) / t ** (2 * h(t))
        if not abs(ratio - 1.0) <= tol:
            problems.append(f"variance at t={t:g} is {ratio:g} x t^(2h(t))")
    return problems


def check_converge(data: bytes, cfg: dict) -> list[str]:
    """One row per eps, gaps strictly decreasing, values as recorded."""
    rows = csv_rows(data, "eps,value,gap")
    if [r[0] for r in rows] != cfg["eps"]:
        return [f"eps column {[r[0] for r in rows]}"]
    problems = []
    gaps = [r[2] for r in rows]
    if not all(math.isfinite(g) for g in gaps) or any(a <= b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps not strictly decreasing: {gaps}")
    for eps, value, _ in rows:
        want = CHAOS_GAP_VALUES[eps]
        if not abs(value - want) <= CHAOS_GAP_RTOL * abs(want):
            problems.append(f"eps={eps:g}: value {value!r}, recorded {want!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    command: str
    csv: str
    config: dict
    check: Callable[[bytes, dict], list]
    tiny: dict  # overrides for the self-check's tiny sizes
    seeded: bool = True


LINEAR = {"linear": {"a": 0.55, "b": 0.2}}
SIN = {"sin": {"a": 0.7, "b": 0.15, "omega": 6}}

WORKLOADS = {
    # covariance assembly (263k scalar h calls), PSD check, Cholesky, MC with N=1
    "exact-lt": Workload(
        "localtime", "localtime.csv",
        {"hurst": LINEAR, "d": 2, "s": 512, "n_paths": 2000, "N": 1,
         "method": "exact", "eps": [0.1, 0.01]},
        check_localtime, {"s": 64, "n_paths": 200}),
    # Wood-Chan field: 16 Hurst levels, 64 FFTs, 4M samples reduced per eps
    "fft-lt": Workload(
        "localtime", "localtime.csv",
        {"hurst": SIN, "d": 2, "s": 2048, "n_paths": 1000, "N": 0,
         "method": "wood_chan", "eps": [0.1, 0.01]},
        check_localtime, {"s": 256, "n_paths": 200}),
    # the same generator writing its paths: 512k CSV rows
    "paths-csv": Workload(
        "simulate", "paths.csv",
        {"hurst": SIN, "d": 2, "s": 1024, "n_paths": 500, "method": "wood_chan"},
        check_paths, {"s": 128, "n_paths": 100}),
    # analytic route: 5 time meshes x 480 nodes of a_vector, no paths, no BLAS
    "chaos-gap": Workload(
        "converge", "converge.csv",
        {"hurst": {"linear": {"a": 0.55, "b": 0.15}}, "d": 2, "N": 1,
         "eps": [1e-1, 1e-2, 1e-3, 1e-4],
         "test_function": {"components": [
             {"gaussian": {"amplitude": 1.0, "center": 1.0, "width": 0.3}},
             {"gaussian": {"amplitude": 1.0, "center": 1.5, "width": 0.3}}]}},
        check_converge, {"eps": [1e-1, 1e-2]}, seeded=False),
}


def workload_config(wl: Workload, seed: int, tiny: bool) -> dict:
    cfg = json.loads(json.dumps(wl.config))
    if tiny:
        cfg.update(wl.tiny)
    if wl.seeded:
        cfg["seed"] = seed
    return cfg


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    pin_threads(env)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@dataclass
class Exit:
    wall_s: float
    rss_mb: float
    returncode: int


def spawn(argv: list, log: Path) -> Exit:
    """Run one process to its end; wall time from spawn to exit, and the
    peak RSS from that child's own rusage."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


@dataclass
class Run:
    """Outcome of every invocation in one benchmark run."""

    wl: Workload
    cfg: dict
    tamper: Callable | None = None
    attempted: int = 0
    failed: int = 0
    exits: list = field(default_factory=list)  # (Exit, passed) of untraced invocations
    digest: str | None = None  # of the first output that passed its check
    problems: list = field(default_factory=list)

    def timed(self, attr: str) -> list:
        """Values from the untraced invocations that passed, or from all of
        them when none passed."""
        passed = [getattr(ex, attr) for ex, ok in self.exits if ok]
        return passed or [getattr(ex, attr) for ex, _ in self.exits]

    def record(self, ex: Exit, outdir: Path, log: Path) -> bool:
        """Count one invocation; check its exit code and output."""
        self.attempted += 1
        if self.tamper is not None:
            self.tamper(outdir / self.wl.csv)
        problems = self._verify(ex, outdir, log)
        if problems:
            self.failed += 1
            self.problems.append(problems)
            print(f"invocation {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return False
        return True

    def _verify(self, ex: Exit, outdir: Path, log: Path) -> list:
        if ex.returncode != 0:
            return [f"exit code {ex.returncode}: {log.read_text()[-400:].strip()}"]
        try:
            data = (outdir / self.wl.csv).read_bytes()
        except OSError as exc:
            return [f"no output: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            # byte-identical output for one seed is the documented contract
            return [] if digest == self.digest else ["output differs from the run's first"]
        try:
            problems = self.wl.check(data, self.cfg)
        except ValueError as exc:
            problems = [f"unreadable output: {exc}"]
        if not problems:
            self.digest = digest
        return problems


def closed_loop(seconds: float, once: Callable[[], None]) -> None:
    """Call once() back to back for `seconds`: at least once, and again only
    while a call as long as the last one would end in time."""
    start = time.perf_counter()
    t_end = start + seconds
    while True:
        once()
        now = time.perf_counter()
        if now + (now - start) > t_end:
            return
        start = now


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False,
            tamper: Callable | None = None, overrides: dict | None = None) -> dict:
    """One benchmark run of a workload; returns its record, whose "result"
    is the object the benchmark prints."""
    wl = WORKLOADS[name]
    cfg = {**workload_config(wl, seed, tiny), **(overrides or {})}
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1))
    outdir, log = work / "out", work / "stderr.txt"
    run = Run(wl, cfg, tamper)

    def cli():
        shutil.rmtree(outdir, ignore_errors=True)
        ex = spawn([sys.executable, "-m", "mbmlt.cli", wl.command,
                    "--config", str(config), "--out", str(outdir)], log)
        run.exits.append((ex, run.record(ex, outdir, log)))

    layers = []

    def traced_cli():
        shutil.rmtree(outdir, ignore_errors=True)
        dump = work / "trace.json"
        ex = spawn([sys.executable, str(CHILD), "trace", str(dump), wl.command,
                    str(config), str(outdir)], log)
        if run.record(ex, outdir, log):
            layers.append((ex.wall_s, json.loads(dump.read_text())))

    setups = []
    if traced:
        closed_loop(seconds / 2, cli)
        closed_loop(seconds / 2, traced_cli)
        metrics = layer_metrics(layers, run.timed("wall_s"), work)
    else:
        for _ in range(SETUP_REPEATS):
            ex = spawn([sys.executable, str(CHILD), "setup", wl.command, str(config)], log)
            if ex.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {log.read_text()[-400:]}")
            setups.append(ex.wall_s)
        closed_loop(seconds, cli)
        metrics = {
            "wall_s": statistics.median(run.timed("wall_s")),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run.timed("rss_mb")),
        }
    units = LAYER_UNITS if traced else END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
              "config": cfg, "environment": environment(),
              "wall_samples": run.timed("wall_s"), "setup_samples": setups,
              "problems": run.problems, "result": result}
    (work / f"result-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return record


def layer_metrics(layers: list, untraced_walls: list, work: Path) -> dict:
    """Per-layer metrics of the traced invocation with the median wall time
    (the lower one of an even count), so that its self times still add up
    to its wall time; plus that wall time, the part of it no span covers,
    and its difference from the median untraced wall time."""
    if not layers:
        return {k: float("nan") for k in LAYER_UNITS}
    wall, dump = sorted(layers, key=lambda x: x[0])[(len(layers) - 1) // 2]
    if dump["missing"]:
        print(f"entry points not found: {dump['missing']}", file=sys.stderr)
    (work / "spans.json").write_text(json.dumps(dump["spans"]))
    return {**dump["layers"],
            "trace.wall_s": wall,
            "trace.other_s": wall - dump["self_s"],
            "trace.overhead_s": wall - statistics.median(untraced_walls)}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env = {
        "commit": None,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "caches": {},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        env["commit"] = git.stdout.strip() or None
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True).stdout
    except OSError:
        conf = ""
    for line in conf.splitlines():
        key, *val = line.split()
        if key.endswith("CACHE_SIZE") and val and val[0] != "0":
            env["caches"][key] = int(val[0])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mbmlt" / "cli.py").is_file():
        print(f"perfbench: no mbmlt source at {ROOT / 'src' / 'mbmlt'}", file=sys.stderr)
        return 2
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


def report(record: dict) -> None:
    """Print the environment, one line per metric, and last the result."""
    print("environment: " + json.dumps(record["environment"]))
    walls = record["wall_samples"]
    print(f"untraced wall_s samples: n={len(walls)} "
          + (f"quartiles={statistics.quantiles(walls, n=4)}" if len(walls) > 1 else f"{walls}"))
    for k, m in record["result"]["metrics"].items():
        print(f"{k:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"]))


if __name__ == "__main__":
    sys.exit(main())

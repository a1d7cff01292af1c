"""Fresh-interpreter helpers for the benchmark in run.py.

    python3 perfbench/child.py setup COMMAND CONFIG
    python3 perfbench/child.py trace DUMP COMMAND CONFIG OUTDIR

``setup`` does what one ``mbmlt`` process does before its first numerical
call: import the CLI and the library modules the subcommand loads, read the
config and build the Hurst function (and test function).  run.py times it
from spawn to exit.

``trace`` runs ``mbmlt.cli.main`` in-process with the calls into each
module's entry points timed from outside the program: every entry point is
replaced, on its module or class, by a wrapper that records a span.  The
per-layer metrics, the summed self time and the spans go to DUMP as JSON
when the run ends.

Both pin every BLAS/OpenMP thread variable to 1 before numpy is imported.
``mbmlt.cli.main`` pins them itself, but only when numpy is not yet loaded;
in-process, OpenBLAS would otherwise start one thread per core and the
traced run would measure a different program.
"""
from __future__ import annotations

import os

THREAD_VARS = ("MBMLT_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(env=os.environ) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


# library modules each subcommand imports on top of mbmlt.cli
COMMAND_MODULES = {
    "localtime": ("mbmlt.localtime", "mbmlt.simulate"),
    "simulate": ("mbmlt.simulate",),
    "converge": ("mbmlt.chaos",),
}

# (module, attribute, span name, hot).  A hot entry point is called too
# often to keep one span per call; it keeps a call count and times only.
ENTRY_POINTS = (
    ("mbmlt.specfun", "HurstFunctional.from_config", "specfun.build", False),
    ("mbmlt.chaos", "TestFunction.from_config", "specfun.build", False),
    ("mbmlt.specfun", "HurstFunctional.__call__", "specfun.h", True),
    ("mbmlt.simulate", "covariance_matrix", "operator.covariance", False),
    ("mbmlt.operator", "CovarianceMatrix.min_eigenvalue", "operator.psd", False),
    ("mbmlt.chaos", "mh_indicator", "operator.mh_indicator", True),
    ("mbmlt.simulate", "simulate_exact", "simulate.exact", False),
    ("numpy.linalg", "cholesky", "simulate.cholesky", False),
    ("mbmlt.simulate", "simulate_wood_chan_mbm", "simulate.wood_chan", False),
    ("numpy.fft", "fft", "simulate.fft", False),
    ("mbmlt.localtime", "local_time_mc", "localtime.mc", False),
    ("mbmlt.localtime", "expected_local_time", "localtime.expected", False),
    ("mbmlt.chaos", "s_transform_local_time", "chaos.s_transform", False),
    ("mbmlt.chaos", "a_vector", "chaos.a_vector", True),
    ("mbmlt.simulate", "MbmPathSet.to_csv", "cli.write", False),
    ("mbmlt.cli", "_write_csv", "cli.write", False),
)

LAYER_UNITS = {
    "specfun.build_s": "s",
    "specfun.h_calls": "count",
    "specfun.h_s": "s",
    "operator.cov_entries": "count",
    "operator.covariance_self_s": "s",
    "operator.psd_calls": "count",
    "operator.psd_s": "s",
    "operator.mh_indicator_calls": "count",
    "operator.mh_indicator_s": "s",
    "simulate.exact_self_s": "s",
    "simulate.cholesky_calls": "count",
    "simulate.wood_chan_self_s": "s",
    "simulate.fft_calls": "count",
    "simulate.fft_s": "s",
    "simulate.samples_per_s": "1/s",
    "simulate.field_mb": "MB",
    "localtime.mc_s": "s",
    "localtime.mc_samples_per_s": "1/s",
    "localtime.expected_calls": "count",
    "localtime.expected_s": "s",
    "chaos.s_transform_calls": "count",
    "chaos.s_transform_self_s": "s",
    "chaos.a_vector_calls": "count",
    "chaos.a_vector_self_s": "s",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.write_mb_per_s": "MB/s",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_s": "s",
}

# The self-time metrics partition the spans: each span's self time lands in
# exactly one of them, so together with trace.other_s they add up to
# trace.wall_s.  fft_s is a part of wood_chan_self_s and is not listed.
SELF_TIME_METRICS = (
    "specfun.build_s", "specfun.h_s", "operator.covariance_self_s",
    "operator.psd_s", "operator.mh_indicator_s", "simulate.exact_self_s",
    "simulate.wood_chan_self_s", "localtime.mc_s", "localtime.expected_s",
    "chaos.s_transform_self_s", "chaos.a_vector_self_s", "cli.import_s",
    "cli.write_s",
)


def import_for(command: str) -> None:
    import importlib

    importlib.import_module("mbmlt.cli")
    for name in COMMAND_MODULES[command]:
        importlib.import_module(name)


def build(config_path: str) -> None:
    import json

    from mbmlt.specfun import HurstFunctional

    with open(config_path) as fh:
        cfg = json.load(fh)
    HurstFunctional.from_config(cfg["hurst"], T=float(cfg.get("T", 1.0)))
    if "test_function" in cfg:
        from mbmlt.chaos import TestFunction

        TestFunction.from_config(cfg["test_function"])


class Tracer:
    """Spans kept in memory, with per-name call counts and total/self times.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.
    """

    def __init__(self):
        import time

        self.clock = time.perf_counter
        self.spans = []    # (id, name, parent id, start, end); hot calls not kept
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.counts = {}   # work counters filled in by the entry-point hooks
        self.missing = []  # entry points absent from a loaded module
        self._stack = []   # open frames: [id, name, start, child_s]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def exit(self, hot: bool) -> None:
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if not hot:
            self.spans.append((span_id, name, parent and parent[0], start, end))

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, hot: bool, hook=None) -> None:
        import functools

        fn = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(hot)
            if hook is not None:
                hook(args, out)
            return out

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every entry point of the modules the run has imported."""
        import sys

        for module, attr, name, hot in ENTRY_POINTS:
            if module not in sys.modules:
                continue
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module}.{attr}")
                continue
            self.wrap(owner, leaf, name, hot, self._hook(name))

    def _hook(self, name: str):
        """Work counts recorded from an entry point's arguments and result."""
        import numpy as np

        def cov_entries(args, out):
            n = len(args[0])
            self.count("operator.cov_entries", n * (n + 1) // 2)

        def samples(args, out):
            self.count("simulate.samples", out.values.size)

        def wood_chan(args, out):
            # one 2-D synthesis FFT per Hurst level and component; the field
            # holds levels x n_paths x s float64 values per component
            cfg = args[0]
            levels = self.counts.pop("simulate.fft_2d", 0) / cfg.d
            self.count("simulate.field_bytes", levels * cfg.n_paths * cfg.s * 8)
            samples(args, out)

        def fft(args, out):
            if np.ndim(args[0]) >= 2:
                self.count("simulate.fft_2d", 1)

        def mc(args, out):
            self.count("localtime.samples", args[0].values.size)

        def written(args, out):
            path = next(a for a in args if isinstance(a, (str, os.PathLike)))
            self.count("cli.bytes_written", os.path.getsize(path))

        return {
            "operator.covariance": cov_entries,
            "simulate.exact": samples,
            "simulate.wood_chan": wood_chan,
            "simulate.fft": fft,
            "localtime.mc": mc,
            "cli.write": written,
        }.get(name)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this process; run.py adds the trace.* ones."""
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        def rate(n, seconds):
            return n / seconds if seconds > 0 else 0.0

        sim_s = total("simulate.exact") + total("simulate.wood_chan")
        bytes_written = self.counts.get("cli.bytes_written", 0)
        return {
            "specfun.build_s": self_s("specfun.build"),
            "specfun.h_calls": calls("specfun.h"),
            "specfun.h_s": self_s("specfun.h"),
            "operator.cov_entries": self.counts.get("operator.cov_entries", 0),
            "operator.covariance_self_s": self_s("operator.covariance"),
            "operator.psd_calls": calls("operator.psd"),
            "operator.psd_s": self_s("operator.psd"),
            "operator.mh_indicator_calls": calls("operator.mh_indicator"),
            "operator.mh_indicator_s": self_s("operator.mh_indicator"),
            "simulate.exact_self_s": self_s("simulate.exact") + self_s("simulate.cholesky"),
            "simulate.cholesky_calls": calls("simulate.cholesky"),
            "simulate.wood_chan_self_s": self_s("simulate.wood_chan") + self_s("simulate.fft"),
            "simulate.fft_calls": calls("simulate.fft"),
            "simulate.fft_s": total("simulate.fft"),
            "simulate.samples_per_s": rate(self.counts.get("simulate.samples", 0), sim_s),
            "simulate.field_mb": self.counts.get("simulate.field_bytes", 0) / 1e6,
            "localtime.mc_s": self_s("localtime.mc"),
            "localtime.mc_samples_per_s": rate(self.counts.get("localtime.samples", 0),
                                               self_s("localtime.mc")),
            "localtime.expected_calls": calls("localtime.expected"),
            "localtime.expected_s": self_s("localtime.expected"),
            "chaos.s_transform_calls": calls("chaos.s_transform"),
            "chaos.s_transform_self_s": self_s("chaos.s_transform"),
            "chaos.a_vector_calls": calls("chaos.a_vector"),
            "chaos.a_vector_self_s": self_s("chaos.a_vector"),
            "cli.import_s": self_s("cli.import"),
            "cli.write_s": self_s("cli.write"),
            "cli.bytes_written": bytes_written,
            "cli.write_mb_per_s": rate(bytes_written / 1e6, self_s("cli.write")),
        }


def trace(dump: str, command: str, config: str, outdir: str) -> int:
    import json

    tracer = Tracer()
    tracer.enter("cli.import")
    import_for(command)
    tracer.exit(hot=False)
    tracer.install()

    import mbmlt.cli

    rc = mbmlt.cli.main([command, "--config", config, "--out", outdir])
    with open(dump, "w") as fh:
        json.dump({
            "layers": tracer.layer_metrics(),
            "self_s": sum(st[2] for st in tracer.stats.values()),
            "missing": tracer.missing,
            "spans": tracer.spans,
        }, fh)
    return rc


if __name__ == "__main__":
    pin_threads()
    import sys

    mode, *rest = sys.argv[1:]
    if mode == "setup":
        command, config = rest
        import_for(command)
        build(config)
    elif mode == "trace":
        sys.exit(trace(*rest))
    else:
        sys.exit(f"unknown mode {mode!r}")

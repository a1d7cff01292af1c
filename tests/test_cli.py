import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mbmlt.cli import main
from mbmlt.errors import NumericalError


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, *extra):
    cfg_path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


class TestSimulateCommand:
    def test_writes_paths_and_manifest(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "s": 16, "n_paths": 2, "seed": 5}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 0
        assert (out / "paths.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["config"]["hurst"] == {"const": 0.7}

    def test_seed_override(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "s": 16, "n_paths": 1, "seed": 5}
        _, out_a = _run(tmp_path, "simulate", cfg)
        a = (out_a / "paths.csv").read_text()
        cfg_path = _write_cfg(tmp_path, cfg, name="cfg2.json")
        out_b = tmp_path / "out_b"
        main(["simulate", "--config", cfg_path, "--out", str(out_b),
              "--seed", "99"])
        b = (out_b / "paths.csv").read_text()
        assert a != b

    def test_wood_chan_method(self, tmp_path):
        cfg = {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "s": 32,
               "n_paths": 2, "method": "wood_chan"}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 0 and (out / "paths.csv").exists()

    def test_variance_rel_rms_from_written_paths(self, tmp_path):
        cfg = {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "d": 2, "s": 32,
               "n_paths": 20, "seed": 4}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 0
        rms = json.loads((out / "manifest.json").read_text())["variance_rel_rms"]
        vals = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
        t = vals[:32, 1]
        sample = np.mean(vals[:, 2:].reshape(20, 32, 2) ** 2, axis=(0, 2))
        ref = np.sqrt(np.mean((sample / t ** (2 * (0.55 + 0.2 * t)) - 1.0) ** 2))
        assert math.isfinite(rms)
        assert rms == pytest.approx(ref, rel=1e-12)


class TestCovarianceCommand:
    def test_matches_library(self, tmp_path):
        from mbmlt.operator import covariance_matrix
        from mbmlt.specfun import HurstFunctional

        cfg = {"hurst": {"const": 0.7}, "s": 8}
        code, out = _run(tmp_path, "covariance", cfg)
        assert code == 0
        rows = (out / "covariance.csv").read_text().strip().split("\n")
        vals = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
        h = HurstFunctional.constant(0.7)
        ref = covariance_matrix(np.arange(1, 9) / 8.0, h).values
        assert np.array_equal(vals, ref)


class TestLocalTimeCommand:
    def test_eps_sweep(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "s": 64, "n_paths": 50,
               "eps": [0.5, 0.2]}
        code, out = _run(tmp_path, "localtime", cfg)
        assert code == 0
        rows = (out / "localtime.csv").read_text().strip().split("\n")
        assert rows[0] == "eps,N,estimate,stderr,n_paths"
        assert len(rows) == 3

    @pytest.mark.parametrize("N", [0, 1])
    def test_manifest_targets_and_z(self, tmp_path, N):
        from mbmlt.localtime import expected_local_time
        from mbmlt.specfun import HurstFunctional

        cfg = {"hurst": {"const": 0.7}, "s": 64, "n_paths": 200, "seed": 3,
               "N": N, "eps": [0.5, 0.2]}
        code, out = _run(tmp_path, "localtime", cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rows = (out / "localtime.csv").read_text().strip().split("\n")[1:]
        h = HurstFunctional.constant(0.7)
        for row, eps, target, z in zip(rows, cfg["eps"], manifest["target"],
                                       manifest["z"], strict=True):
            estimate, stderr = map(float, row.split(",")[2:4])
            assert target == (0.0 if N == 1 else expected_local_time(h, eps, 1.0, 1))
            assert math.isfinite(z) and abs(z) <= 5.0
            assert z == pytest.approx((estimate - target) / stderr, rel=1e-12)

    def test_eps_flag_overrides(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "s": 64, "n_paths": 20,
               "eps": [0.5, 0.2]}
        code, out = _run(tmp_path, "localtime", cfg, "--eps", "0.3")
        assert code == 0
        rows = (out / "localtime.csv").read_text().strip().split("\n")
        assert len(rows) == 2
        assert float(rows[1].split(",")[0]) == 0.3


class TestSTransformCommand:
    def test_with_test_function(self, tmp_path):
        cfg = {
            "hurst": {"const": 0.7}, "d": 1, "N": 1, "eps": [0.1, 0.0],
            "test_function": {"components": [
                {"gaussian": {"amplitude": 0.5, "center": 0.2, "width": 0.8}},
            ]},
        }
        code, out = _run(tmp_path, "stransform", cfg)
        assert code == 0
        rows = (out / "stransform.csv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_eps_list_shares_one_table_per_mesh(self, tmp_path, monkeypatch):
        import mbmlt.chaos
        from mbmlt.chaos import TestFunction, s_transform_local_time
        from mbmlt.specfun import HurstFunctional

        built = []
        a_table = mbmlt.chaos._a_table

        def counting(h, nodes, phi):
            built.append(len(nodes))
            return a_table(h, nodes, phi)

        monkeypatch.setattr(mbmlt.chaos, "_a_table", counting)
        spec = {"components": [
            {"gaussian": {"amplitude": 0.5, "center": 0.2, "width": 0.8}}]}
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1,
               "eps": [0.1, 0.01, 0.001], "test_function": spec}
        code, out = _run(tmp_path, "stransform", cfg)
        assert code == 0
        assert len(built) == 1  # every eps > 0 uses the same mesh
        rows = (out / "stransform.csv").read_text().strip().split("\n")[1:]
        h, phi = HurstFunctional.constant(0.7), TestFunction.from_config(spec)
        for row, eps in zip(rows, cfg["eps"]):
            value = float(row.split(",")[2])
            assert value == s_transform_local_time(h, 1, 1.0, phi, eps=eps)

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        cfg = {
            "hurst": {"const": 0.7}, "d": 2,
            "test_function": {"components": [{"gaussian": {}}]},
        }
        code, _ = _run(tmp_path, "stransform", cfg)
        assert code == 1


class TestKernelsCommand:
    def test_kernel_grid(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 0, "kernel_eps": 0.1,
               "kernel_index": [2], "u_grid": [[0.2, 0.3], [0.5, 0.6]]}
        code, out = _run(tmp_path, "kernels", cfg)
        assert code == 0
        rows = (out / "kernels.csv").read_text().strip().split("\n")
        assert rows[0] == "u1,u2,value"
        assert len(rows) == 3


class TestConvergeCommand:
    def test_gap_table(self, tmp_path):
        from mbmlt.chaos import TestFunction, s_transform_local_time
        from mbmlt.specfun import HurstFunctional

        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1, "eps": [0.1, 0.01],
               "test_function": {"components": [
                   {"gaussian": {"amplitude": 0.5, "center": 0.2, "width": 0.8}},
               ]}}
        code, out = _run(tmp_path, "converge", cfg)
        assert code == 0
        rows = (out / "converge.csv").read_text().strip().split("\n")
        assert rows[0] == "eps,value,gap"
        gaps = [float(r.split(",")[2]) for r in rows[1:]]
        assert gaps[0] > gaps[1]
        manifest = json.loads((out / "manifest.json").read_text())
        h = HurstFunctional.constant(0.7)
        phi = TestFunction.from_config(cfg["test_function"])
        limit = s_transform_local_time(h, 1, 1.0, phi, eps=0.0)
        assert manifest["limit"] == limit
        assert manifest["rel_gap"] == [g / abs(limit) for g in gaps]

    def test_zero_limit_has_no_relative_gap(self, tmp_path):
        # zero phi: exp_1(0) = 0, so every N = 1 value and the limit vanish
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1, "eps": [0.1, 0.01]}
        code, out = _run(tmp_path, "converge", cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["limit"] == 0.0
        assert manifest["rel_gap"] == [None, None]


class TestExitCodes:
    def test_missing_hurst_is_config_error(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", {"s": 8})
        assert code == 1

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1

    def test_range_violation_is_domain_error(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.4}, "s": 8})
        assert code == 2

    def test_truncation_violation_is_domain_error(self, tmp_path):
        # d = 3, N = 0: bound 1/3 < 0.6, eps = 0 diverges
        cfg = {"hurst": {"const": 0.6}, "d": 3, "N": 0, "eps": [0.0]}
        code, _ = _run(tmp_path, "stransform", cfg)
        assert code == 2

    def test_numerical_failure_exit(self, tmp_path, monkeypatch):
        import mbmlt.simulate

        def boom(config):
            raise NumericalError("factorization failed")

        monkeypatch.setattr(mbmlt.simulate, "simulate", boom)
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.7}, "s": 8})
        assert code == 3

    def test_failed_factorization_is_numerical_error(self, tmp_path, monkeypatch):
        import numpy as np

        def not_pd(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_pd)
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.7}, "s": 8})
        assert code == 3

    @pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("stray")])
    def test_unexpected_failure_is_internal_error(self, tmp_path, monkeypatch,
                                                  capsys, exc):
        import mbmlt.simulate

        def boom(config):
            raise exc

        monkeypatch.setattr(mbmlt.simulate, "simulate", boom)
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.7}, "s": 8})
        assert code == 4
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "internal"
        assert type(exc).__name__ in report["reason"]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestImports:
    def test_quadrature_module_not_loaded(self):
        # scipy is slow to import: src/ never imports scipy.integrate (the
        # time rule is Gauss-Legendre, and the quad oracles live in tests/),
        # and scipy.special (which pulls in numpy.ma, f2py and numpy.testing)
        # is used only by the covariance, the exact simulator and the chaos
        # routes, each on first use
        code = ("import sys, mbmlt.cli, mbmlt.chaos, mbmlt.simulate, mbmlt.localtime; "
                "sys.exit('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, cfg, csv, needs_gamma", [
        ("localtime", {"method": "wood_chan", "N": 0, "n_paths": 10}, "localtime.csv", False),
        ("simulate", {"method": "wood_chan", "n_paths": 2}, "paths.csv", False),
        ("covariance", {}, "covariance.csv", True),
        ("localtime", {"method": "exact", "N": 0, "n_paths": 10}, "localtime.csv", True),
        # N = 1 subtracts expected_local_time, which runs on the time rule
        ("localtime", {"method": "exact", "N": 1, "n_paths": 10}, "localtime.csv", True),
    ], ids=["localtime-wood_chan", "simulate-wood_chan", "covariance", "localtime-exact",
            "localtime-exact-N1"])
    def test_scipy_loaded_only_on_first_use(self, tmp_path, command, cfg, csv,
                                            needs_gamma):
        cfg_path = _write_cfg(tmp_path, {"hurst": {"sin": {"a": 0.7, "b": 0.15,
                                                           "omega": 6}},
                                         "d": 2, "s": 32, "seed": 3, **cfg})
        out = tmp_path / "out"
        code = ("import sys; from mbmlt.cli import main; code = main(sys.argv[1:]); "
                "print(code, 'scipy' in sys.modules, 'scipy.special' in sys.modules, "
                "'scipy.integrate' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, command, "--config",
                               cfg_path, "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(needs_gamma), str(needs_gamma), "False"]
        assert (out / csv).stat().st_size > 0


class TestThreadVariables:
    THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

    def test_in_process_main_restores_environment(self, tmp_path, monkeypatch):
        # main() pins these to 1 for its own run only; a caller's later
        # subprocesses must see the caller's values
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = {var: os.environ.get(var) for var in self.THREAD_VARS}
        code, _ = _run(tmp_path, "covariance", {"hurst": {"const": 0.7}, "s": 4})
        assert code == 0
        assert {var: os.environ.get(var) for var in self.THREAD_VARS} == before


class TestThreadDeterminism:
    def test_output_independent_of_ambient_threads(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"hurst": {"linear": {"a": 0.55, "b": 0.2}},
                                    "s": 128, "n_paths": 4, "seed": 7})
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads,
                       MBMLT_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "mbmlt.cli", "simulate",
                 "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "paths.csv").read_bytes())
        assert outputs[0] == outputs[1]

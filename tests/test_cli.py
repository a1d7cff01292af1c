import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbmlt import cli
from mbmlt.cli import FMT, main
from mbmlt.errors import NumericalError


_TWO_BUMPS = {"components": [{"gaussian": {"amplitude": 1.0, "center": 0.5, "width": 0.3}},
                              {"hermite": {"coeffs": [1.0, 0.0, -0.5]}}]}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, *extra):
    cfg_path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


def _reason(capsys, error: str = "config") -> str:
    """The reason of the one-line JSON error of the given kind that ends
    stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    report = json.loads(err.strip().splitlines()[-1])
    assert report["error"] == error
    return report["reason"]


def _bump(amplitude: float) -> dict:
    """A one-component test function: a bump at 0.5 of width 0.3."""
    return {"components": [{"gaussian": {"amplitude": amplitude, "center": 0.5,
                                          "width": 0.3}}]}


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
        from mbmlt.simulate import SimulationConfig, simulate
        from mbmlt.specfun import HurstFunctional

        cfg = {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "s": 32,
               "n_paths": 2, "method": "wood_chan"}
        code, out = _run(tmp_path, "simulate", cfg)
        assert code == 0 and (out / "paths.csv").exists()
        # the manifest records the amplitude mode count and the variance error
        paths = simulate(SimulationConfig(h=HurstFunctional.linear(0.55, 0.2), s=32,
                                          n_paths=2, method="wood_chan"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wood_chan"] == paths.wood_chan
        assert manifest["wood_chan"].keys() == {"modes", "var_error"}
        assert manifest["wood_chan"]["modes"] == 4
        assert 0 < manifest["wood_chan"]["var_error"] <= 1e-4
        # the exact method has no such entry
        code, out = _run(tmp_path, "simulate", {**cfg, "method": "exact"})
        assert json.loads((out / "manifest.json").read_text())["wood_chan"] is None

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

    @pytest.mark.parametrize("T", [1e-300, 1e220, 1e250])
    @pytest.mark.parametrize("method", ["exact", "wood_chan"])
    def test_paths_at_the_ends_of_the_float_range(self, tmp_path, method, T):
        # the paths have size t^{h(t)}, a normal float on these grids, while
        # t^{2h(t)} leaves the floats at 1e-300 and 1e250; relative to the
        # scale the run is the T = 1 run
        cfg = {"hurst": {"const": 0.7}, "s": 64, "n_paths": 8, "seed": 3, "method": method}
        rms = []
        for horizon in (1.0, T):
            run_dir = tmp_path / f"T-{horizon:g}"
            run_dir.mkdir()
            code, out = _run(run_dir, "simulate", {**cfg, "T": horizon})
            assert code == 0
            vals = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
            assert vals.shape == (8 * 64, 3) and np.isfinite(vals).all()
            rms.append(json.loads((out / "manifest.json").read_text())["variance_rel_rms"])
        assert rms[1] == pytest.approx(rms[0], rel=1e-12)


class TestCovarianceCommand:
    def test_top_of_the_float_range(self, tmp_path):
        # t^{2h(t)} is at most about 1e308 on this grid: each entry of R is a
        # float, though their sum, the trace, is not
        code, out = _run(tmp_path, "covariance", {"hurst": {"const": 0.7}, "T": 1e220, "s": 16})
        assert code == 0
        vals = np.loadtxt(out / "covariance.csv", delimiter=",", skiprows=1)[:, 1:]
        assert vals.shape == (16, 16) and np.isfinite(vals).all()

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

    def test_csv_matches_row_by_row_format(self, tmp_path):
        # the times, formatted once for the header and every row's first
        # column, give the bytes of formatting each value in its own cell;
        # T = 0.7 gives times with 17 significant digits
        from mbmlt.operator import covariance_matrix
        from mbmlt.specfun import HurstFunctional

        code, out = _run(tmp_path, "covariance",
                         {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "T": 0.7, "s": 7})
        assert code == 0
        grid = np.arange(1, 8) * (0.7 / 7)
        ref = covariance_matrix(grid, HurstFunctional.linear(0.55, 0.2, T=0.7)).values
        expected = ["t," + ",".join(f"{t:.17g}" for t in grid)]
        for k, t in enumerate(grid):
            expected.append(f"{t:.17g}," + ",".join(f"{x:.17g}" for x in ref[k]))
        assert (out / "covariance.csv").read_text() == "\n".join(expected) + "\n"
        assert any(len(f"{t:.17g}") > 12 for t in grid)

    def test_one_eigvalsh(self, tmp_path, monkeypatch):
        # the manifest writes the eigenvalue the PSD check computed
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
        code, out = _run(tmp_path, "covariance", {"hurst": {"linear": {"a": 0.55, "b": 0.2}},
                                                  "s": 64})
        assert code == 0
        assert calls == [1]
        vals = np.loadtxt(out / "covariance.csv", delimiter=",", skiprows=1)[:, 1:]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["min_eigenvalue"] == eigvalsh(vals)[0]


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
            assert target == (0.0 if N == 1 else expected_local_time(h, eps, 1))
            assert math.isfinite(z) and abs(z) <= 5.0
            assert z == pytest.approx((estimate - target) / stderr, rel=1e-12)
        assert manifest["wood_chan"] is None

    def test_manifest_wood_chan_entry(self, tmp_path):
        cfg = {"hurst": {"sin": {"a": 0.7, "b": 0.15, "omega": 6}}, "s": 64,
               "n_paths": 20, "seed": 3, "method": "wood_chan", "eps": [0.2]}
        code, out = _run(tmp_path, "localtime", cfg)
        assert code == 0
        entry = json.loads((out / "manifest.json").read_text())["wood_chan"]
        assert entry.keys() == {"modes", "var_error"}
        assert entry["modes"] == 5  # of the 65 Hurst nodes
        assert 0 <= entry["var_error"] <= 1e-4

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

        def counting(nodes, hvals, phi):
            built.append(len(nodes))
            return a_table(nodes, hvals, phi)

        monkeypatch.setattr(mbmlt.chaos, "_a_table", counting)
        spec = {"components": [
            {"gaussian": {"amplitude": 0.5, "center": 0.2, "width": 0.8}}]}
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1,
               "eps": [0.1, 0.01, 0.001], "test_function": spec}
        code, out = _run(tmp_path, "stransform", cfg)
        assert code == 0
        # one table per distinct grading: 0.1 and 0.01 share grading 2, and
        # 0.001, whose crossover 0.001^(1/1.4) = 0.0072 is below 1e-2 T,
        # takes the eps = 0 grading
        gammas = {mbmlt.chaos._grading_exponent(HurstFunctional.constant(0.7), 1, 1, e)
                  for e in cfg["eps"]}
        assert len(gammas) == len(built) == 2
        rows = (out / "stransform.csv").read_text().strip().split("\n")[1:]
        h, phi = HurstFunctional.constant(0.7), TestFunction.from_config(spec)
        for row, eps in zip(rows, cfg["eps"]):
            value = float(row.split(",")[2])
            assert value == s_transform_local_time(h, 1, phi, eps=eps)

    def test_order_past_float_factorials(self, tmp_path, capsys):
        # N = 199 is the minimal truncation of const 0.995 at d = 3; 199!
        # is no float
        bump = {"gaussian": {"amplitude": 3.0, "center": 0.5, "width": 0.5}}
        cfg = {"hurst": {"const": 0.995}, "d": 3, "N": 199, "eps": [0.1],
               "test_function": {"components": [bump] * 3}}
        code, out = _run(tmp_path, "stransform", cfg)
        assert code == 0
        (row,) = (out / "stransform.csv").read_text().strip().split("\n")[1:]
        assert math.isfinite(float(row.split(",")[2]))
        # "N": 1e7 is read as N = 10^7.  The running products of exp_trunc
        # stop once no term is finite and nonzero, so each run returns at
        # once: the plain bump gives 0, the correctly rounded value; with the
        # large amplitudes a value is past the floats, a numerical error
        for amplitude in (1.0, 1e4, 1e5):
            cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1e7, "eps": [0.1],
                   "test_function": _bump(amplitude)}
            run_dir = tmp_path / f"amplitude-{amplitude:g}"
            run_dir.mkdir()
            start = time.perf_counter()
            code, out = _run(run_dir, "stransform", cfg)
            assert time.perf_counter() - start < 20.0
            if amplitude == 1.0:
                assert code == 0
                assert ((out / "stransform.csv").read_text()
                        == "eps,N,value\n0.10000000000000001,10000000,0\n")
            else:
                assert code == 3
                assert "leaves the floats" in _reason(capsys, "numerical")
                assert not (out / "stransform.csv").exists()

    @pytest.mark.parametrize("command, cfg, reason", [
        ("stransform", {"T": 1e250, "eps": [0.1, 0]}, "t^(2h(t)) leaves the float range"),
        ("stransform", {"hurst": {"const": 0.6}, "N": 2, "eps": [0.1],
                        "test_function": _bump(1e160)}, "the t-integral is inf"),
        ("converge", {"hurst": {"const": 0.6}, "N": 2, "eps": [0.1],
                      "test_function": _bump(1e200)}, "the t-integral is inf"),
        ("covariance", {"T": 1e-300}, "t^(2h(t)) leaves the float range"),
        ("covariance", {"T": 1e250}, "t^(2h(t)) leaves the float range"),
        # the paths are floats here; the expectation's time rule is not
        ("localtime", {"T": 1e250, "s": 16, "n_paths": 4}, "t^(2h(t)) leaves the float range"),
    ], ids=["variance", "stransform-integral", "converge-integral",
            "covariance-1e-300", "covariance-1e250", "localtime-1e250"])
    def test_value_past_the_floats_is_numerical_error(self, tmp_path, capsys, command, cfg,
                                                      reason):
        # t^{2h(t)} past the floats at T = 1e250, where the integral is near
        # 1.3e75, or on the grid of R, below them at its first time for
        # T = 1e-300, or an integrand past them: no value is written, and the
        # overflow does not surface as a RuntimeWarning (exit 4 in process)
        code, out = _run(tmp_path, command, {"hurst": {"const": 0.7}, "d": 1, **cfg})
        assert code == 3
        assert reason in _reason(capsys, "numerical")
        assert not list(out.glob("*.csv"))

    def test_exponent_past_the_floats_at_order_0(self, tmp_path):
        # |a|^2 overflows, so exp_0(-y) = exp(-inf) = 0: the correctly rounded
        # value, written without a RuntimeWarning
        cfg = {"hurst": {"const": 0.6}, "d": 1, "N": 0, "eps": [0.1],
               "test_function": _bump(1e200)}
        code, out = _run(tmp_path, "stransform", cfg)
        assert code == 0
        assert ((out / "stransform.csv").read_text()
                == "eps,N,value\n0.10000000000000001,0,0\n")

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        cfg = {
            "hurst": {"const": 0.7}, "d": 2,
            "test_function": {"components": [{"gaussian": {}}]},
        }
        code, _ = _run(tmp_path, "stransform", cfg)
        assert code == 1


class TestKernelsCommand:
    def test_kernel_grid(self, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 0, "eps": [0.1],
               "kernel_index": [2], "u_grid": [[0.2, 0.3], [0.5, 0.6]]}
        code, out = _run(tmp_path, "kernels", cfg)
        assert code == 0
        rows = (out / "kernels.csv").read_text().strip().split("\n")
        assert rows[0] == "eps,u1,u2,value"
        assert len(rows) == 3

    def test_kernel_eps_zero_is_unregularized(self, tmp_path):
        from mbmlt.chaos import kernel_eval
        from mbmlt.specfun import HurstFunctional

        cfg = {"hurst": {"const": 0.6}, "d": 1, "N": 1, "kernel_index": [2],
               "u_grid": [[0.2, 0.3], [0.5, 0.6], [-0.1, 1.2]]}
        code, out = _run(tmp_path, "kernels", cfg)
        assert code == 0
        absent = (out / "kernels.csv").read_bytes()
        vals = np.loadtxt(out / "kernels.csv", delimiter=",", skiprows=1)
        ref = kernel_eval(HurstFunctional.constant(0.6), 1, (2,), cfg["u_grid"])
        assert np.array_equal(vals[:, 0], np.zeros(3))
        assert np.array_equal(vals[:, 3], ref)
        code, out = _run(tmp_path, "kernels", {**cfg, "eps": [0]})
        assert code == 0
        assert (out / "kernels.csv").read_bytes() == absent

    def test_eps_flag_and_list_agree(self, tmp_path):
        cfg = {"hurst": {"const": 0.6}, "d": 1, "N": 1, "kernel_index": [2],
               "u_grid": [[0.2, 0.3], [0.5, 0.6], [-0.1, 1.2]]}

        def kernels(extra_cfg, *args):
            code, out = _run(tmp_path, "kernels", {**cfg, **extra_cfg}, *args)
            assert code == 0
            return (out / "kernels.csv").read_bytes()

        flag = kernels({}, "--eps", "0.5")
        # the manifest records the eps that the kernels were computed at
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["eps"] == [0.5]
        assert flag == kernels({"eps": [0.5]}) != kernels({})
        # one block of the points per eps, in list order
        rows = kernels({"eps": [0, 0.1]}).decode().splitlines()[1:]
        assert len(rows) == 2 * len(cfg["u_grid"])
        single = [kernels({"eps": [e]}).decode().splitlines()[1:] for e in (0, 0.1)]
        assert rows == single[0] + single[1]

    def test_empty_u_grid_is_config_error(self, tmp_path, capsys):
        cfg = {"hurst": {"const": 0.7}, "d": 1, "kernel_index": [2], "u_grid": [],
               "eps": [0.1]}
        code, out = _run(tmp_path, "kernels", cfg)
        assert code == 1
        assert "u_grid" in _reason(capsys)
        assert not any(out.glob("*.csv"))

    def test_zero_dimension_is_config_error(self, tmp_path, capsys):
        cfg = {"hurst": {"const": 0.7}, "d": 0, "kernel_index": [], "eps": [0.1],
               "u_grid": [[]]}
        code, _ = _run(tmp_path, "kernels", cfg)
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"


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
        limit = s_transform_local_time(h, 1, phi, eps=0.0)
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


    @pytest.mark.parametrize("command", ["stransform", "localtime", "converge"])
    def test_empty_eps_list_is_config_error(self, tmp_path, capsys, command):
        cfg = {"hurst": {"const": 0.7}, "d": 1, "N": 1, "s": 8, "n_paths": 4, "eps": []}
        code, out = _run(tmp_path, command, cfg)
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"
        assert not any(out.glob("*.csv"))


class TestExitCodes:
    def test_missing_hurst_is_config_error(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", {"s": 8})
        assert code == 1

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("s", [0, -3])
    def test_nonpositive_covariance_s_is_config_error(self, tmp_path, capsys, s):
        code, _ = _run(tmp_path, "covariance", {"hurst": {"const": 0.7}, "s": s})
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err.strip())["error"] == "config"

    def test_range_violation_is_domain_error(self, tmp_path):
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.4}, "s": 8})
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "stransform"])
    def test_nan_hurst_is_domain_error(self, tmp_path, capsys, command):
        # NaN compares False both ways, so it must fail the range check itself
        code, _ = _run(tmp_path, command, {"hurst": {"const": math.nan}, "s": 8, "eps": [0.1]})
        assert code == 2
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "math-domain",
                          "reason": "A1 violated: h(0) = nan outside (1/2, 1)"}

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

    def test_covariance_not_psd_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), -1.0))
        code, out = _run(tmp_path, "covariance", {"hurst": {"const": 0.7}, "s": 4})
        assert code == 3
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "numerical"
        assert "covariance not PSD" in report["reason"]
        assert not (out / "covariance.csv").exists()

    def test_unconverged_eigenvalues_are_numerical_error(self, tmp_path, capsys,
                                                        monkeypatch):
        # LinAlgError subclasses ValueError, which alone would read as config
        def unconverged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        code, out = _run(tmp_path, "covariance", {"hurst": {"const": 0.7}, "s": 4})
        assert code == 3
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "numerical", "reason": "Eigenvalues did not converge"}
        assert not (out / "covariance.csv").exists()

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

    @pytest.mark.parametrize("command, cfg, extra", [
        ("stransform", {}, ["--eps", "nan"]),
        ("converge", {"N": 1}, ["--eps", "nan"]),
        ("localtime", {"s": 8, "n_paths": 4}, ["--eps", "nan"]),
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, 0.3]], "eps": [math.nan]}, []),
    ], ids=["stransform", "converge", "localtime", "kernels"])
    def test_nan_eps_is_config_error(self, tmp_path, capsys, command, cfg, extra):
        code, _ = _run(tmp_path, command, {"hurst": {"const": 0.7}, "d": 1, **cfg}, *extra)
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"

    def test_localtime_eps_checked_before_simulating(self, tmp_path, capsys, monkeypatch):
        import mbmlt.simulate

        def boom(config):
            raise RuntimeError("simulated before the eps check")

        monkeypatch.setattr(mbmlt.simulate, "simulate", boom)
        code, _ = _run(tmp_path, "localtime", {"hurst": {"const": 0.7}, "s": 8}, "--eps", "-1")
        assert code == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "config"
        # the order N is checked with eps, also before simulating
        code, _ = _run(tmp_path, "localtime", {"hurst": {"const": 0.7}, "s": 8, "N": 2})
        assert code == 1
        assert "N in {0, 1}" in _reason(capsys)

    def test_nan_horizon_is_config_error(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "simulate", {"hurst": {"const": 0.7}, "T": math.nan, "s": 8})
        assert code == 1
        assert "horizon" in _reason(capsys)

    @pytest.mark.parametrize("component", [
        {"gaussian": {"width": math.nan}},
        {"gaussian": {"center": math.inf}},
        {"hermite": {"coeffs": [1.0, math.nan]}},
    ], ids=["nan-width", "inf-center", "nan-coefficient"])
    def test_nonfinite_test_function_is_config_error(self, tmp_path, capsys, component):
        cfg = {"hurst": {"const": 0.7}, "test_function": {"components": [component]}}
        code, out = _run(tmp_path, "stransform", cfg, "--eps", "0.1")
        assert code == 1
        assert "finite" in _reason(capsys)
        assert not (out / "stransform.csv").exists()

    def test_nan_kernel_point_is_config_error(self, tmp_path, capsys):
        cfg = {"hurst": {"const": 0.7}, "kernel_index": [2], "u_grid": [[0.2, 0.3], [0.1, math.nan]]}
        code, out = _run(tmp_path, "kernels", cfg)
        assert code == 1
        assert "finite" in _reason(capsys)
        assert not (out / "kernels.csv").exists()

    @pytest.mark.parametrize("command, cfg, extra", [
        ("stransform", {}, ["--eps", "inf"]),
        ("converge", {"N": 1}, ["--eps", "inf"]),
        ("localtime", {"s": 8, "n_paths": 4}, ["--eps", "inf"]),
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, 0.3]], "eps": [math.inf]}, []),
    ], ids=["stransform", "converge", "localtime", "kernels"])
    def test_infinite_eps_is_config_error(self, tmp_path, capsys, command, cfg, extra):
        code, out = _run(tmp_path, command, {"hurst": {"const": 0.7}, "d": 1, **cfg}, *extra)
        assert code == 1
        assert "finite" in _reason(capsys)
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, cfg", [
        ("stransform", {"N": 1.5}),
        ("localtime", {"s": 8.7, "n_paths": 4}),
        ("localtime", {"s": 8, "n_paths": 4.5}),
        ("simulate", {"s": 8, "d": 1.5}),
        ("simulate", {"s": 8, "seed": 0.5}),
        ("covariance", {"s": 8.2}),
        ("kernels", {"kernel_index": [2.5], "u_grid": [[0.2, 0.3]]}),
    ], ids=["N", "s", "n_paths", "d", "seed", "covariance-s", "kernel-index"])
    def test_non_integral_value_is_config_error(self, tmp_path, capsys, command, cfg):
        code, out = _run(tmp_path, command, {"hurst": {"const": 0.7}, **cfg})
        assert code == 1
        assert "whole number" in _reason(capsys)
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, cfg, reason", [
        ("stransform", {"N": True}, "whole number"),
        ("simulate", {"s": 8, "d": True}, "whole number"),
        ("simulate", {"s": 8, "seed": -1}, "seed must be a whole number >= 0, got -1"),
        ("stransform", {"esp": [0.5]}, "unknown config keys: ['esp']"),
        # kernels reads the shared eps list
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, 0.3]], "kernel_eps": 0.1},
         "unknown config keys: ['kernel_eps']"),
        ("stransform", {"eps": [True]}, "eps must be a real number"),
        ("stransform", {"T": True}, "T must be a real number"),
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, 0.3]], "eps": [True]},
         "eps must be a real number"),
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, True]]},
         "u_grid coordinate must be a real number"),
        ("stransform", {"hurst": {"const": True}}, "hurst const must be a real number"),
        ("stransform", {"hurst": {"sin": {"a": 0.7, "b": 0.1, "omega": True}}},
         "hurst sin omega must be a real number"),
        ("stransform", {"test_function": {"components": [{"gaussian": {"width": True}}]}},
         "gaussian width must be a real number"),
        ("stransform", {"test_function": {"components": [{"hermite": {"coeffs": [1.0, True]}}]}},
         "hermite coefficient must be a real number"),
        ("stransform", {"test_function": {"components": [
            {"gaussian": {"amplitude": 1.0, "widht": 0.01}}]}},
         "unknown gaussian keys: ['widht']"),
        ("stransform", {"test_function": {"components": [
            {"hermite": {"coeffs": [1.0], "scale": 2.0}}]}},
         "unknown hermite keys: ['scale']"),
        ("stransform", {"test_function": {"components": [
            {"gaussian": {}, "hermite": {"coeffs": [1.0]}}]}},
         "needs one kind"),
        ("stransform", {"test_function": {"components": [{"gaussian": {}}], "d": 1}},
         "unknown test_function keys: ['d']"),
        ("stransform", {"hurst": {"linear": {"a": 0.55, "b": 0.2, "c": 0.1}}},
         "unknown hurst linear keys: ['c']"),
        ("stransform", {"hurst": {"sin": {"a": 0.7, "b": 0.1, "omega": 3.0, "phase": 1.0}}},
         "unknown hurst sin keys: ['phase']"),
        ("stransform", {"eps": 0.1}, "eps must be a JSON array, got 0.1"),
        ("kernels", {"kernel_index": 2, "u_grid": [[0.2, 0.3]]},
         "kernel_index must be a JSON array, got 2"),
        ("kernels", {"kernel_index": [2], "u_grid": 0.2}, "u_grid must be a JSON array, got 0.2"),
        ("stransform", {"test_function": {"components": [{"hermite": {"coeffs": 1.0}}]}},
         "hermite coeffs must be a JSON array, got 1.0"),
        ("stransform", {"test_function": {"components": {"gaussian": {}}}},
         "test_function components must be a JSON array, got {'gaussian': {}}"),
        # an order-1 point would give an odd, identically zero kernel
        ("kernels", {"kernel_index": [1], "u_grid": [0.2]},
         "u_grid point must be a JSON array, got 0.2"),
        ("kernels", {"kernel_index": [2, 0], "u_grid": [[0.2, 0.3]]},
         "kernel index has 2 components, d = 1"),
        ("kernels", {"kernel_index": [2], "u_grid": [[0.2, 0.3], [0.2]]},
         "every u point needs 2 coordinates"),
        # N is read for every command
        ("simulate", {"s": 8, "N": True}, "N must be a whole number"),
        ("stransform", {"hurst": {"const": 0.7, "linear": {"a": 0.55, "b": 0.2}}},
         "bad hurst spec"),
        ("stransform", {"test_function": {"components": []}}, "need at least one component"),
        ("stransform", {"test_function": {"components": [{"hermite": {"coeffs": []}}]}},
         "need at least one coefficient"),
    ], ids=["N-true", "d-true", "seed-negative", "esp-typo", "kernel_eps-key", "eps-true",
            "T-true", "kernel_eps-true", "u_grid-true", "hurst-const-true", "hurst-sin-true",
            "gaussian-true", "hermite-true", "gaussian-widht", "hermite-key", "two-kinds",
            "test_function-key", "linear-key", "sin-key", "eps-scalar",
            "kernel_index-scalar", "u_grid-scalar", "coeffs-scalar", "components-object",
            "u_grid-point-scalar", "kernel_index-d", "u_grid-coordinates", "simulate-N-true",
            "hurst-two-kinds", "components-empty", "coeffs-empty"])
    def test_boolean_or_unknown_key_is_config_error(self, tmp_path, capsys, command,
                                                    cfg, reason):
        code, out = _run(tmp_path, command, {"hurst": {"const": 0.7}, **cfg})
        assert code == 1
        assert reason in _reason(capsys)
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "localtime"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        cfg = {"hurst": {"const": 0.7}, "s": 8, "n_paths": 4}
        code, out = _run(tmp_path, command, cfg, "--seed", "-1")
        assert code == 1
        assert _reason(capsys) == "seed must be a whole number >= 0, got -1"
        assert not list(out.glob("*.csv"))

    def test_non_object_config_is_config_error(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path, ["hurst"])
        out = tmp_path / "out"
        assert main(["stransform", "--config", cfg_path, "--out", str(out)]) == 1
        assert "config must be a JSON object" in _reason(capsys)
        assert not list(out.glob("*.csv"))

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFormat:
    """cli._format17 gives the bytes of FMT % v; the writer built on it gives
    the bytes of formatting each cell by itself."""

    @staticmethod
    def _assert_fmt(values):
        values = np.asarray(values, dtype=float)
        cells = cli._format17(values)
        cells[:, 46] = ord("\n")
        got = cells.tobytes().translate(None, b"\0")
        assert got == "".join(FMT % v + "\n" for v in values.tolist()).encode()

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_floats(self, values):
        self._assert_fmt(values)

    def test_special_values(self):
        self._assert_fmt([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2e-308,
                          1.7976931348623157e308, 1.0, -1.0, 1200.0, 0.5, 1e-5, 1e-4])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2026).integers(-2 ** 63, 2 ** 63, size=1 << 20,
                                                      dtype=np.int64)
        self._assert_fmt(bits.view(np.float64))

    def test_random_magnitudes(self):
        # every exponent of the exact range and just outside it, both signs
        rng = np.random.default_rng(11)
        self._assert_fmt(rng.standard_normal(1 << 16) * 10.0 ** rng.integers(-8, 18, 1 << 16))

    def test_dyadic_ties(self):
        # k 2^-n with more than 17 digits ending in 5: %g rounds half to even,
        # e.g. 1234567890123456.25 -> ...456.2 and 2^-25 -> 2.9802322387695312e-08
        n = np.arange(1, 60)
        k = np.random.default_rng(3).integers(1, 2 ** 53, size=(59, 300))
        ties = [1234567890123456.25, 1234567890123456.75, 123456789012345.125, 2.0 ** -25]
        self._assert_fmt(np.concatenate([(k * 2.0 ** -n[:, None]).ravel(), ties]))
        assert FMT % 1234567890123456.25 == "1234567890123456.2"

    def test_neighbours_of_powers_of_ten(self):
        p = np.array([float(f"1e{k}") for k in range(-8, 18)])
        self._assert_fmt(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                                         -p, -np.nextafter(p, 0)]))

    def test_edges_of_exact_range(self):
        # the double 1e-6 lies below 10^-6, so it and all below it fall back
        # to FMT % v, as do 1e16 and all above it
        edges = np.array([1e-6, 1e16])
        near = [np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)]
        self._assert_fmt(np.concatenate(near + [-e for e in near]))

    def test_writer_chunks_and_fallbacks(self, tmp_path):
        # a table of three blocks of 5500 rows x 3 with labels and a lead
        # column: each chunk holds _CHUNK // 3 rows, one chunk ends block 0
        # and starts block 1, the last chunk is partial, and fallback values
        # sit in the middle of that mixed chunk; the label 0 is a fallback
        # too, and 12345 fills a second 4-digit group
        rng = np.random.default_rng(5)
        table = rng.standard_normal((3, 5500, 3)) * 10.0 ** rng.integers(-3, 4, (3, 5500, 3))
        table[1, 1000:1003] = [[0.0, 1e-7, 1e17], [-0.0, np.inf, np.nan], [-1e-7, 1e-6, 1e16]]
        labels = np.array([0.0, 7.0, 12345.0])
        lead = np.arange(1, 5501) * (0.7 / 5500)
        path = tmp_path / "t.csv"
        cli._write_csv(path, ["path", "t", "a", "b", "c"], table, labels=labels, lead=lead)
        expected = ["path,t,a,b,c"]
        for label, block in zip(labels, table):
            for t, row in zip(lead, block):
                expected.append(",".join([f"{label:.17g}", f"{t:.17g}",
                                          *(f"{v:.17g}" for v in row)]))
        assert path.read_text() == "\n".join(expected) + "\n"
        assert 2 * (cli._CHUNK // 3) < 5500 < 3 * (cli._CHUNK // 3)


class TestImports:
    def test_quadrature_module_not_loaded(self):
        # scipy is slow to import, and src/ never imports it: the time rule is
        # Gauss-Legendre, Gamma on [1, 3] is a polynomial in specfun, and the
        # quad and Gamma oracles live in tests/
        code = ("import sys, mbmlt.cli, mbmlt.chaos, mbmlt.simulate, mbmlt.localtime; "
                "sys.exit('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_path_routes_load_no_chaos(self):
        # the modules that perfbench's set-up probe imports for the localtime
        # workloads: chaos loads only when local_time_mc runs, for every N,
        # since it calls expected_local_time, which imports chaos's time rule
        code = ("import sys, mbmlt.cli, mbmlt.localtime, mbmlt.simulate; "
                "sys.exit('mbmlt.chaos' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_numpy(self):
        # main() pins the BLAS threads before numpy loads, so importing the
        # CLI, the formatter's tables included, must not load it
        code = "import sys, mbmlt.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, cfg, csv", [
        ("localtime", {"method": "wood_chan", "N": 0, "n_paths": 10}, "localtime.csv"),
        ("simulate", {"method": "wood_chan", "n_paths": 2}, "paths.csv"),
        ("covariance", {}, "covariance.csv"),
        ("localtime", {"method": "exact", "N": 0, "n_paths": 10}, "localtime.csv"),
        # N = 1 subtracts expected_local_time, which runs on the time rule
        ("localtime", {"method": "exact", "N": 1, "n_paths": 10}, "localtime.csv"),
        ("stransform", {"N": 1, "eps": [0.1], "test_function": _TWO_BUMPS}, "stransform.csv"),
        ("kernels", {"N": 1, "kernel_index": [2, 0], "eps": [0.1],
                     "u_grid": [[0.2, 0.3]]}, "kernels.csv"),
        ("converge", {"N": 3, "eps": [0.1, 0.01], "test_function": _TWO_BUMPS},
         "converge.csv"),
    ], ids=["localtime-wood_chan", "simulate-wood_chan", "covariance", "localtime-exact",
            "localtime-exact-N1", "stransform", "kernels", "converge"])
    def test_scipy_loaded_only_on_first_use(self, tmp_path, command, cfg, csv):
        """No route loads any scipy module: scipy serves only the test oracles."""
        cfg_path = _write_cfg(tmp_path, {"hurst": {"sin": {"a": 0.7, "b": 0.15,
                                                           "omega": 6}},
                                         "d": 2, "s": 32, "seed": 3, **cfg})
        out = tmp_path / "out"
        code = ("import sys; from mbmlt.cli import main; code = main(sys.argv[1:]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, command, "--config",
                               cfg_path, "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]
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

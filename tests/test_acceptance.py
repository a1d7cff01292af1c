"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py``.
Each test prints ``criterion N (name): PASS/FAIL`` with the measured numbers
before asserting, so the verdict line survives a failure.
"""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mbmlt.chaos import (
    ChaosIndex,
    GaussianBump,
    KernelSpec,
    TestFunction,
    chaos_pairing,
    convergence_eps,
    kernel_eval,
    s_transform_local_time,
)
from mbmlt.errors import AdmissibilityError
from mbmlt.localtime import RegularizationParams, expected_local_time, local_time_mc
from mbmlt.operator import h_inner_product, mh_indicator
from mbmlt.simulate import (
    SimulationConfig,
    simulate_exact,
    simulate_wood_chan_fbm,
    simulate_wood_chan_mbm,
)
from mbmlt.specfun import HurstFunctional, check_A2, minimal_truncation

from .oracles import fourier_inner_product, isometry_quadrature


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_isometry():
    worst = 0.0
    for H in (0.55, 0.65, 0.75, 0.85, 0.95):
        for t in (0.5, 1.0, 2.0):
            val = isometry_quadrature(lambda u: mh_indicator(H, t, u), t)
            rel = abs(val - t ** (2 * H)) / t ** (2 * H)
            worst = max(worst, rel)
    _verdict(1, "isometry", worst < 1e-4, f"worst relative error {worst:.3g}")


def test_criterion_2_covariance_oracle():
    pairs = [(0.2, 0.5), (0.3, 0.7), (0.5, 0.5), (0.1, 0.9), (0.6, 1.0)]
    hs = [HurstFunctional.constant(0.7), HurstFunctional.linear(0.55, 0.2)]
    worst = 0.0
    for h in hs:
        for t, s in pairs:
            closed = h_inner_product(t, s, h)
            oracle = fourier_inner_product(t, s, h(t), h(s))
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    _verdict(2, "covariance oracle", worst < 1e-3,
             f"worst relative error {worst:.3g} over 10 pairs x 2 h")


def test_criterion_3_simulation_moments():
    h = HurstFunctional.linear(0.55, 0.2)
    n = 10_000
    failures = []
    for d in (1, 2):
        cfg = SimulationConfig(h=h, s=16, n_paths=n, d=d, seed=31)
        vals = simulate_exact(cfg).values
        for k in (3, 7, 11, 15):
            t = cfg.grid[k]
            target = t ** (2 * h(t))
            sample = float(np.mean(vals[:, 0, k] ** 2))
            se = math.sqrt(2.0 / n) * target
            if abs(sample - target) >= 4 * se:
                failures.append(f"d={d} var(t={t:g}): {sample:.4g} vs {target:.4g}")
        if d == 2:
            prod = vals[:, 0, -1] * vals[:, 1, -1]
            se = float(np.std(prod, ddof=1)) / math.sqrt(n)
            if abs(float(np.mean(prod))) >= 4 * se:
                failures.append("cross-component covariance not ~ 0")
    _verdict(3, "simulation moments", not failures,
             "; ".join(failures) or "all moments within 4 SE")


def test_criterion_4_local_time_expectation():
    h = HurstFunctional.constant(0.7)
    n = 10_000
    failures = []
    for d in (1, 2):
        cfg = SimulationConfig(h=h, s=512, n_paths=n, d=d, seed=41)
        paths = simulate_exact(cfg)
        for eps in (0.1, 0.01):
            est = local_time_mc(paths, RegularizationParams(eps=eps))
            target = expected_local_time(h, eps, 1.0, d)
            if abs(est.estimate - target) >= 4 * est.stderr:
                failures.append(
                    f"d={d} eps={eps}: {est.estimate:.4g} vs {target:.4g} "
                    f"(se {est.stderr:.2g})"
                )
    _verdict(4, "local-time expectation", not failures,
             "; ".join(failures) or "all (eps, d) within 4 SE")


def test_criterion_5_chaos_sum_consistency():
    phi1 = TestFunction((GaussianBump(0.5, 0.2, 0.8),))
    phi2 = TestFunction((GaussianBump(0.6, 0.0, 1.0), GaussianBump(0.4, 0.5, 0.7)))
    settings = [
        (HurstFunctional.constant(0.7), 0, 0.0, phi1),
        (HurstFunctional.linear(0.55, 0.2), 1, 0.0, phi1),
        (HurstFunctional.linear(0.55, 0.2), 0, 0.01, phi1),
        (HurstFunctional.constant(0.6), 1, 0.0, phi2),
        (HurstFunctional.constant(0.7), 0, 0.01, phi2),
        (HurstFunctional.sinusoidal(0.6, 0.05, 3.0), 1, 0.01, phi2),
    ]
    worst = 0.0
    for h, N, eps, phi in settings:
        direct = s_transform_local_time(h, N, 1.0, phi, eps=eps)
        partial = chaos_pairing(h, N, 1.0, phi, n_max=8, eps=eps)
        worst = max(worst, abs(partial[-1] - direct) / abs(direct))
    _verdict(5, "chaos-sum consistency", worst < 1e-3,
             f"worst relative gap {worst:.3g} over 6 settings (n_max=8)")


def test_criterion_6_eps_convergence():
    # bumps supported away from the spatial origin: the pairing with the
    # small-time kernel (singular at x = 0) then vanishes fast enough for the
    # eps -> 0 gap to fall below 1e-2 within the prescribed eps range
    phi = TestFunction((GaussianBump(1.0, 1.0, 0.3), GaussianBump(1.0, 1.5, 0.3)))
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    failures = []
    details = []
    for h in (HurstFunctional.constant(0.6),
              HurstFunctional.sinusoidal(0.6, 0.05, 3.0)):
        rows = convergence_eps(h, 1, 1.0, phi, eps_list)
        limit = s_transform_local_time(h, 1, 1.0, phi)
        gaps = [r.gap for r in rows]
        decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        final_rel = gaps[-1] / abs(limit)
        details.append(f"{h.description}: final rel gap {final_rel:.3g}")
        if not decreasing:
            failures.append(f"{h.description}: gaps not strictly decreasing")
        if final_rel > 1e-2:
            failures.append(f"{h.description}: final rel gap {final_rel:.3g} > 1e-2")
    _verdict(6, "eps -> 0 convergence", not failures,
             "; ".join(failures or details))


def test_criterion_7_truncation_gating():
    h = HurstFunctional.constant(0.6)
    ok = True
    notes = []
    try:
        s_transform_local_time(h, 0, 1.0, TestFunction.zero(3))
        ok = False
        notes.append("N=0 request did not fail")
    except AdmissibilityError:
        notes.append("N=0 rejected")
    if not check_A2(h, 2, 3)[0]:
        ok = False
        notes.append("N=2 does not satisfy the bound")
    try:
        s_transform_local_time(h, 2, 1.0, TestFunction.zero(3))
        notes.append("N=2 accepted")
    except AdmissibilityError:
        ok = False
        notes.append("N=2 request failed")
    if minimal_truncation(h, d=3) != 2:
        ok = False
        notes.append(f"minimal N = {minimal_truncation(h, d=3)} != 2")
    _verdict(7, "truncation gating", ok, "; ".join(notes))


def test_criterion_8_kernel_structure():
    h = HurstFunctional.constant(0.7)
    failures = []
    # odd-index kernels are identically zero
    for n_vec, u in [((1,), [0.3]), ((3,), [0.1, 0.4, 0.7]), ((2, 1), [0.2, 0.5, 0.8])]:
        spec = KernelSpec(h=h, T=1.0, N=0, index=ChaosIndex(n_vec), eps=0.1)
        if kernel_eval(spec, u) != 0.0:
            failures.append(f"odd index {n_vec} not exactly 0")
    # order-2 pairing vs central finite difference of the S-transform
    phi = TestFunction((GaussianBump(0.5, 0.2, 0.8),))
    eps = 0.1
    pair2 = chaos_pairing(h, 1, 1.0, phi, n_max=1, eps=eps)[0]
    lam = 0.05
    s0 = s_transform_local_time(h, 0, 1.0, TestFunction.zero(1), eps=eps)
    s1 = s_transform_local_time(h, 0, 1.0, phi.scaled(lam), eps=eps)
    fd = (s1 - s0) / lam ** 2  # S is even in lam: central 2nd difference / 2
    rel = abs(fd - pair2) / abs(pair2)
    if rel >= 1e-3:
        failures.append(f"order-2 kernel vs finite difference: rel {rel:.3g}")
    # permutation invariance, bit-exact, 20 random permutations
    spec4 = KernelSpec(h=h, T=1.0, N=0, index=ChaosIndex((4,)), eps=0.1)
    u4 = np.array([0.15, 0.4, 0.65, 0.9])
    ref = kernel_eval(spec4, u4)
    rng = np.random.default_rng(81)
    for _ in range(20):
        if kernel_eval(spec4, rng.permutation(u4)) != ref:
            failures.append("permutation changed the kernel value")
            break
    _verdict(8, "kernel structure", not failures,
             "; ".join(failures) or f"order-2 rel error {rel:.3g}; parity and "
             "permutation invariance exact")


def test_criterion_9_wood_chan():
    failures = []
    for H in (0.6, 0.8):
        ps = simulate_wood_chan_fbm(H=H, s=4096, T=1.0, n_paths=1000, seed=91)
        var = np.mean(ps.values[:, 0, :] ** 2, axis=0)
        slope = np.polyfit(np.log(ps.grid), np.log(var), 1)[0]
        if abs(slope / 2.0 - H) > 0.05:
            failures.append(f"H={H}: recovered {slope / 2.0:.3f}")
    h = HurstFunctional.linear(0.55, 0.2)
    cfg = SimulationConfig(h=h, s=256, n_paths=4000, seed=92, method="wood_chan")
    vals = simulate_wood_chan_mbm(cfg).values[:, 0, :]
    target = cfg.grid ** (2 * h(cfg.grid))
    rms = float(np.sqrt(np.mean((np.mean(vals ** 2, axis=0) / target - 1.0) ** 2)))
    if rms > 0.05:
        failures.append(f"variance-curve RMS {rms:.3g} > 5%")
    _verdict(9, "circulant-embedding validity", not failures,
             "; ".join(failures) or f"H recovered within 0.05; RMS {rms:.3g}")


def test_criterion_10_determinism(tmp_path):
    phi_cfg = {"components": [{"gaussian": {"amplitude": 0.5, "center": 0.2,
                                            "width": 0.8}}]}
    configs = {
        "simulate": {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "s": 128,
                     "n_paths": 4, "seed": 7},
        "covariance": {"hurst": {"const": 0.7}, "s": 16},
        "localtime": {"hurst": {"const": 0.7}, "s": 64, "n_paths": 50,
                      "seed": 7, "eps": [0.2]},
        "stransform": {"hurst": {"const": 0.7}, "d": 1, "N": 1,
                       "eps": [0.1], "test_function": phi_cfg},
        "kernels": {"hurst": {"const": 0.7}, "d": 1, "kernel_eps": 0.1,
                    "kernel_index": [2], "u_grid": [[0.2, 0.3]]},
        "converge": {"hurst": {"const": 0.7}, "d": 1, "N": 1,
                     "eps": [0.1, 0.01], "test_function": phi_cfg},
    }
    failures = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{command}-{threads}"
            env = dict(os.environ, MBMLT_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "mbmlt.cli", command,
                 "--config", str(cfg_path), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                failures.append(f"{command} exited {proc.returncode}: {proc.stderr}")
                break
            blobs = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir()) if p.suffix == ".csv"
            }
            outputs.append(blobs)
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{command} output differs across thread counts")
    _verdict(10, "determinism", not failures,
             "; ".join(failures) or "all subcommands byte-identical for threads 1 vs 4")

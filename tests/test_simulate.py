import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mbmlt import simulate as simulate_module
from mbmlt.cli import main
from mbmlt.errors import NumericalError
from mbmlt.operator import _correlation_values, covariance_matrix
from mbmlt.simulate import (
    MbmPathSet,
    SimulationConfig,
    _barycentric_weights,
    _embedding_size,
    _fgn_autocov,
    _hurst_nodes,
    simulate,
    simulate_exact,
    simulate_wood_chan_mbm,
)
from mbmlt.specfun import HurstFunctional

from .oracles import (fgn_autocov, h_inner_product, lagrange_weights, wood_chan_map,
                      wood_chan_variance)


class TestConfig:
    def test_grid(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=4)
        assert np.allclose(cfg.grid, [0.25, 0.5, 0.75, 1.0])

    def test_validation(self, h_const_07):
        with pytest.raises(ValueError):
            SimulationConfig(h=h_const_07, s=1)
        with pytest.raises(ValueError):
            SimulationConfig(h=h_const_07, n_paths=0)
        with pytest.raises(ValueError):
            SimulationConfig(h=h_const_07, method="davies_harte")

    @pytest.mark.parametrize("field, value, least", [
        ("s", 2.5, 2), ("s", 4.0, 2), ("s", True, 2),
        ("n_paths", 2.0, 1), ("n_paths", False, 1),
        ("d", 1.5, 1), ("d", 0, 1),
        ("seed", -1, 0), ("seed", 0.5, 0), ("seed", True, 0),
    ])
    def test_whole_number_fields(self, h_const_07, field, value, least):
        # s = 2.5 used to build the grid [0.4, 0.8, 1.2], past T; a negative
        # seed failed inside numpy with a reason that named no field
        with pytest.raises(ValueError) as err:
            SimulationConfig(h=h_const_07, **{field: value})
        assert str(err.value) == f"{field} must be a whole number >= {least}, got {value!r}"

    def test_numpy_integers_are_whole(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=np.int64(4), seed=np.uint32(3))
        assert np.allclose(cfg.grid, [0.25, 0.5, 0.75, 1.0])


def _simulate_cli(tmp_path, cfg):
    """Run the simulate subcommand on cfg; return its output directory."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


class TestPathSet:
    def test_csv(self, h_const_07, tmp_path):
        cfg = {"hurst": {"const": 0.7}, "s": 4, "n_paths": 2, "d": 2, "seed": 1}
        out = _simulate_cli(tmp_path, cfg)
        ps = simulate(SimulationConfig(h=h_const_07, s=4, n_paths=2, d=2, seed=1))
        rows = (out / "paths.csv").read_text().strip().split("\n")
        assert rows[0] == "path,t,v1,v2"
        assert len(rows) == 1 + 2 * 4
        first = rows[1].split(",")
        assert float(first[2]) == ps.values[0, 0, 0]

    def test_csv_matches_row_by_row_format(self, tmp_path):
        # several paths, one component, an s that is not a power of two, and
        # T = 0.7, whose grid times have up to 17 significant digits; 30 paths
        # of 600 values span chunks of 14, 14 and 2 paths
        spec = {"linear": {"a": 0.55, "b": 0.2}}
        for s, n_paths, d, T in [(5, 3, 3, 1.0), (7, 4, 1, 0.7), (12, 5, 2, 0.7), (6, 1, 2, 0.7),
                                 (300, 30, 2, 0.7)]:
            case = tmp_path / f"{s}-{n_paths}-{d}-{T}"
            case.mkdir()
            out = _simulate_cli(case, {"hurst": spec, "T": T, "s": s, "n_paths": n_paths,
                                       "d": d, "seed": 2, "method": "wood_chan"})
            ps = simulate(SimulationConfig(h=HurstFunctional.from_config(spec, T=T), s=s,
                                           n_paths=n_paths, d=d, seed=2, method="wood_chan"))
            expected = ["path,t," + ",".join(f"v{j + 1}" for j in range(d))]
            for p in range(n_paths):
                for k in range(s):
                    vals = ",".join(f"{ps.values[p, j, k]:.17g}" for j in range(d))
                    expected.append(f"{p},{ps.config.grid[k]:.17g},{vals}")
            assert (out / "paths.csv").read_text() == "\n".join(expected) + "\n", case.name

    def test_metadata(self, tmp_path):
        cfg = {"hurst": {"linear": {"a": 0.55, "b": 0.2}}, "s": 8, "seed": 7}
        meta = json.loads((_simulate_cli(tmp_path, cfg) / "manifest.json").read_text())
        assert {"method", "seed", "s", "n_paths", "d", "T"} <= meta.keys()
        assert "hurst" not in meta  # config.hurst records the spec
        assert meta["seed"] == 7 and meta["s"] == 8 and meta["method"] == "exact"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_last_block_raises(self, h_const_07, bad, monkeypatch):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=7, d=2)
        values = np.zeros((7, 2, 8))
        # the check reads blocks of 3, 3 and 1 paths
        monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", 3 * values[0].nbytes)
        MbmPathSet(cfg, values)
        values[-1, 1, -1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            MbmPathSet(cfg, values)


class TestDeterminism:
    @pytest.mark.parametrize("method", ["exact", "wood_chan"])
    def test_bitwise_repeatable(self, h_linear, method):
        cfg = SimulationConfig(h=h_linear, s=64, n_paths=4, d=2, seed=42,
                               method=method)
        a = simulate(cfg).values
        b = simulate(cfg).values
        assert np.array_equal(a, b)

    def test_seeds_differ(self, h_const_07):
        a = simulate(SimulationConfig(h=h_const_07, s=32, seed=0)).values
        b = simulate(SimulationConfig(h=h_const_07, s=32, seed=1)).values
        assert not np.array_equal(a, b)

    def test_components_use_independent_streams(self, h_const_07):
        ps = simulate(SimulationConfig(h=h_const_07, s=32, n_paths=2, d=2, seed=3))
        assert not np.array_equal(ps.values[:, 0, :], ps.values[:, 1, :])


class TestExactLaw:
    N_PATHS = 4000

    def test_marginal_variance(self, h_linear):
        cfg = SimulationConfig(h=h_linear, s=16, n_paths=self.N_PATHS, seed=11)
        vals = simulate_exact(cfg).values[:, 0, :]
        for k in (3, 7, 15):
            t = cfg.grid[k]
            target = t ** (2 * h_linear(t))
            sample = np.mean(vals[:, k] ** 2)
            se = np.sqrt(2.0 / self.N_PATHS) * target  # chi^2 spread
            assert abs(sample - target) < 4 * se

    def test_cross_time_covariance(self, h_linear):
        cfg = SimulationConfig(h=h_linear, s=16, n_paths=self.N_PATHS, seed=12)
        vals = simulate_exact(cfg).values[:, 0, :]
        for i, j in [(3, 11), (7, 15)]:
            t, s = cfg.grid[i], cfg.grid[j]
            target = h_inner_product(t, s, h_linear)
            prod = vals[:, i] * vals[:, j]
            sample = float(np.mean(prod))
            se = float(np.std(prod, ddof=1)) / np.sqrt(self.N_PATHS)
            assert abs(sample - target) < 4 * se

    def test_marginal_gaussian(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=8, n_paths=self.N_PATHS, seed=13)
        vals = simulate_exact(cfg).values[:, 0, -1]
        z = vals / 1.0 ** 0.7  # variance T^{2H} = 1 at t = T = 1
        _, p = stats.kstest(z, "norm")
        assert p > 1e-3

    def test_component_independence(self, h_const_07):
        cfg = SimulationConfig(h=h_const_07, s=4, n_paths=self.N_PATHS, d=3, seed=14)
        vals = simulate_exact(cfg).values[:, :, -1]  # (n, 3) at t = T
        corr = np.corrcoef(vals.T)
        off = corr[np.triu_indices(3, k=1)]
        assert np.all(np.abs(off) < 4.0 / np.sqrt(self.N_PATHS))


class TestExactFactorization:
    def test_cholesky_is_the_only_psd_check(self, h_linear, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
        cfg = SimulationConfig(h=h_linear, s=64, n_paths=3, d=2, seed=21)
        values = simulate_exact(cfg).values
        assert calls == []
        covariance_matrix(cfg.grid, h_linear)
        assert calls == [1]
        # the same bytes as factoring the correlation and scaling each time
        rho, scale = _correlation_values(cfg.grid, h_linear)
        L = np.linalg.cholesky(rho)
        for j, stream in enumerate(np.random.SeedSequence(21).spawn(2)):
            Z = np.random.default_rng(stream).standard_normal((64, 3))
            assert np.array_equal(values[:, j, :], (L @ Z).T * scale)

    def test_failed_factorization_is_numerical_error(self, h_const_07, monkeypatch):
        def not_pd(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_pd)
        with pytest.raises(NumericalError, match="factorization failed"):
            simulate_exact(SimulationConfig(h=h_const_07, s=8))

    @pytest.mark.parametrize("h", [
        HurstFunctional.constant(0.9999),
        HurstFunctional.linear(0.5001, 0.4998),
        HurstFunctional.linear(0.9999, -0.4998),
        HurstFunctional.sinusoidal(0.75, 0.2499, 200.0),
    ], ids=["const-0.9999", "linear-up", "linear-down", "sin-200"])
    def test_edge_h_factors_without_jitter(self, h):
        # the inputs closest to the ends of (1/2, 1): the smallest eigenvalue
        # of rho at s = 1024 is 4e-11 to 3e-6, and one Cholesky succeeds
        paths = simulate_exact(SimulationConfig(h=h, s=1024, seed=3))
        assert paths.values.shape == (1, 1, 1024)


def _fbm(H, s, n_paths, seed):
    """Constant-index Wood-Chan paths: fBm is the constant-h, d = 1 case."""
    return simulate_wood_chan_mbm(SimulationConfig(
        h=HurstFunctional.constant(H), s=s, n_paths=n_paths, d=1, seed=seed,
        method="wood_chan"))


class TestWoodChan:
    N_PATHS = 4000

    def test_increment_variance(self):
        # stationary increments: Var(B_{t+dt} - B_t) = dt^{2H}
        H, s = 0.8, 128
        ps = _fbm(H, s, self.N_PATHS, seed=6)
        inc = np.diff(ps.values[:, 0, :], axis=1, prepend=0.0)
        target = (1.0 / s) ** (2 * H)
        sample = np.mean(inc ** 2, axis=0)
        se = np.sqrt(2.0 / self.N_PATHS) * target
        assert np.all(np.abs(sample - target) < 5 * se)

    def test_loglog_slope(self):
        # log E B_t^2 vs log t has slope 2H
        H, s = 0.65, 256
        ps = _fbm(H, s, self.N_PATHS, seed=7)
        grid = ps.config.grid
        var = np.mean(ps.values[:, 0, :] ** 2, axis=0)
        slope = np.polyfit(np.log(grid), np.log(var), 1)[0]
        assert slope / 2.0 == pytest.approx(H, abs=0.05)

    def test_mbm_variance_curve(self, h_linear):
        cfg = SimulationConfig(h=h_linear, s=128, n_paths=self.N_PATHS, seed=8,
                               method="wood_chan")
        vals = simulate_wood_chan_mbm(cfg).values[:, 0, :]
        target = cfg.grid ** (2 * h_linear(cfg.grid))
        sample = np.mean(vals ** 2, axis=0)
        rms = np.sqrt(np.mean((sample / target - 1.0) ** 2))
        assert rms < 0.05

    def test_fbm_domain(self):
        with pytest.raises(ValueError):
            _fbm(0.4, 16, 1, seed=0)

    @pytest.mark.parametrize("H", [0.5 + 1e-9, 0.5 + 1e-6, 0.51, 0.7, 0.9999, 0.999999])
    def test_autocovariance_matches_oracle(self, H):
        m = 1 << 17
        rho = _fgn_autocov(H, m)
        assert len(rho) == m + 1
        # k < 8, the direct form: a few ulp of (k + 1)^{2H} <= 64
        near = [fgn_autocov(H, k) for k in range(8)]
        assert np.allclose(rho[:8], near, rtol=0, atol=4e-15)
        # k >= 8, the series: about an ulp of rho(k) itself, where the direct
        # form lost up to 1e-7 relative near H = 1/2 and H = 1
        far = [8, 9, 10, 17, 100, 1000, 12345, m]
        assert np.allclose(rho[far], [fgn_autocov(H, k) for k in far], rtol=4e-16, atol=0)
        # each lag is computed on its own: the smallest sizes, with no lag or
        # one past the direct form, give the same values
        for short in (2, 4, 8):
            assert np.array_equal(_fgn_autocov(H, short), rho[:short + 1])

    def test_negative_embedding_raises_at_first_size(self, monkeypatch):
        # every size is nonnegative in exact arithmetic; the direct form of
        # rho(k), whose cancellation grows with k, gives -4.1e-6 at
        # H = 0.999999, m = 16384, and the embedding raises rather than grow
        def direct(H, m):
            k = np.arange(m + 1, dtype=float)
            return 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))

        monkeypatch.setattr(simulate_module, "_fgn_autocov", direct)
        with pytest.raises(NumericalError, match="size 32768 .* -4.1"):
            _fbm(0.999999, 16384, 1, seed=0)

    def test_stable_autocovariance_keeps_embedding_nonnegative(self):
        # the series form of rho(k) leaves that embedding nonnegative
        m, eigs = _embedding_size([0.999999], 16384)
        assert m == 16384 and eigs.min() > 0


def _nodes(config):
    """_hurst_nodes on the config's grid: mode weights, modes, error."""
    return _hurst_nodes(config.grid, config.h(config.grid), config.h.T / config.s)


def _materialized_wood_chan(config):
    """The field construction with every mode held at once: all modes of
    fGn, each holding the dt ** H_k of its nodes, then cumsum, then the
    dense mode weights W[:, k] summed over the modes in order."""
    W, amps, _ = _nodes(config)
    n_pairs = (config.n_paths + 1) // 2
    streams = np.random.SeedSequence(config.seed).spawn(config.d)
    values = np.empty((config.n_paths, config.d, config.s))
    for j in range(config.d):
        rng = np.random.default_rng(streams[j])
        zeta = rng.standard_normal((n_pairs, 2 * amps.shape[1])).view(complex)
        fgn = np.empty((len(amps), config.n_paths, config.s))
        for k in range(len(amps)):
            y = np.fft.fft(amps[k] * zeta, axis=1)
            pair = np.empty((2 * n_pairs, config.s))
            pair[0::2] = y.real[:, :config.s]
            pair[1::2] = y.imag[:, :config.s]
            fgn[k] = pair[:config.n_paths]
        fields = np.cumsum(fgn, axis=2)
        out = W[:, 0] * fields[0]
        for k in range(1, len(amps)):
            out = out + W[:, k] * fields[k]
        values[:, j, :] = out
    return values


class TestWoodChanStreaming:
    SHAPES = [(64, 4), (100, 7), (257, 5), (8, 3)]  # (s, n_paths)
    HURST = {
        "const": HurstFunctional.constant(0.7),
        # peaks at t = T, a grid point, so the top node's row is one-hot there
        "linear": HurstFunctional.linear(0.55, 0.2),
        "sin": HurstFunctional.sinusoidal(0.7, 0.15, 6.0),
        "sin20": HurstFunctional.sinusoidal(0.7, 0.15, 20.0),
        # close to 1 at T, so it takes more nodes
        "steep": HurstFunctional.linear(0.52, 0.45),
    }

    # block_pairs is the number of path pairs per synthesis block; None keeps
    # the default, one block of all pairs at these sizes.  With 3, n_paths =
    # 7 (4 pairs) splits into blocks of 3 and 1 pairs, and the last holds the
    # lone real path 6.
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("hurst", ["const", "linear", "sin", "sin20", "steep"])
    @pytest.mark.parametrize("s, n_paths, block_pairs", [
        *(pytest.param(s, n, None, id=f"{s}-{n}") for s, n in SHAPES),
        *(pytest.param(s, n, 1, id=f"{s}-{n}-1pair") for s, n in SHAPES),
        pytest.param(100, 7, 3, id="100-7-3pairs"),
    ])
    def test_matches_materialized_field(self, hurst, d, s, n_paths, block_pairs,
                                        monkeypatch):
        cfg = SimulationConfig(h=self.HURST[hurst], s=s, n_paths=n_paths, d=d,
                               seed=9, method="wood_chan")
        _, amps, _ = _nodes(cfg)
        if block_pairs is not None:  # a (pairs, M) complex spectrum per block
            monkeypatch.setattr(simulate_module, "_BLOCK_BYTES",
                                block_pairs * 16 * amps.shape[1])
        streamed = simulate_wood_chan_mbm(cfg).values
        assert np.array_equal(streamed, _materialized_wood_chan(cfg))

    def test_peak_memory_bounded_by_output(self):
        h = self.HURST["sin"]
        cfg = SimulationConfig(h=h, s=1024, n_paths=500, d=2, seed=1,
                               method="wood_chan")
        assert len(_nodes(cfg)[1]) == 5
        tracemalloc.start()
        try:
            values = simulate_wood_chan_mbm(cfg).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus block buffers: the extra does not grow with n_paths
        assert peak - values.nbytes <= 8 * simulate_module._BLOCK_BYTES

    def test_one_fft_per_node_and_block(self, monkeypatch):
        cfg = SimulationConfig(h=self.HURST["steep"], s=8, n_paths=7, d=2, seed=9,
                               method="wood_chan")
        _, amps, _ = _nodes(cfg)
        # 4 pairs in blocks of 3 and 1
        monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", 3 * 16 * amps.shape[1])
        fft, calls = np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft",
                            lambda a, *args, **kw: calls.append(np.ndim(a)) or fft(a, *args, **kw))
        simulate_wood_chan_mbm(cfg)
        # the selection computes one embedding, one 1-D FFT per node of the
        # 65; the synthesis takes one 2-D FFT per block, component and
        # amplitude mode
        assert calls.count(1) == 65
        assert 1 < len(amps) < 65 and calls.count(2) == 2 * 2 * len(amps)

    def test_one_embedding_per_call(self, monkeypatch):
        cfg = SimulationConfig(h=self.HURST["sin"], s=256, n_paths=3, d=2, seed=9,
                               method="wood_chan")
        embedding, rows = simulate_module._embedding_size, []
        monkeypatch.setattr(simulate_module, "_embedding_size",
                            lambda H, s: rows.append(len(H)) or embedding(H, s))
        simulate_wood_chan_mbm(cfg)
        assert rows == [65]

    @pytest.mark.parametrize("n_pairs, M, block", [(6, 8, 2), (7, 8, 3), (5, 16, 5),
                                                   (4, 8, 1)])
    def test_noise_stream_drawn_in_blocks(self, n_pairs, M, block):
        # the synthesis draws each block's noise, (b, 2M) floats read as
        # (b, M) complex, from one generator; the blocks must give the one
        # (n_pairs, 2M) draw of the stream
        seq = np.random.SeedSequence(3)
        whole = np.random.default_rng(seq).standard_normal((n_pairs, 2 * M))
        rng = np.random.default_rng(seq)
        buf = np.empty((block, M), dtype=complex)
        drawn = np.empty((n_pairs, M), dtype=complex)
        for a in range(0, n_pairs, block):
            b = min(block, n_pairs - a)
            rng.standard_normal(out=buf[:b].view(float))
            drawn[a:a + b] = buf[:b]
        assert np.array_equal(drawn.view(float), whole), (
            "numpy's normal sampling no longer gives one stream across block "
            "draws; simulate_wood_chan_mbm's output would change")


def _lobatto(lo, hi, n):
    """The n Chebyshev-Lobatto nodes on [lo, hi], from hi down to lo; [hi]
    for n = 1."""
    if n == 1:
        return np.array([hi])
    x = lo + (hi - lo) * (1 + np.cos(np.pi * np.arange(n) / (n - 1))) / 2
    x[[0, -1]] = hi, lo
    return x


def _amplitudes(nodes, s, dt):
    """Per node, sqrt(eigenvalues / M) dt^H, as the synthesis takes them."""
    m, eigs = _embedding_size(nodes, s)
    return np.sqrt(eigs / (2 * m)) * (dt ** np.asarray(nodes))[:, None]


def _linear_grid(hvals, s, dt):
    """The former field: levels 0.02 apart, interpolated linearly between the
    two that bracket h(t), as dense weights."""
    lo, hi = hvals.min(), hvals.max()
    levels = np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / 0.02)) + 1))
    idx = np.clip(np.searchsorted(levels, hvals) - 1, 0, len(levels) - 2)
    w = (hvals - levels[idx]) / (levels[idx + 1] - levels[idx])
    W = np.zeros((s, len(levels)))
    W[np.arange(s), idx], W[np.arange(s), idx + 1] = 1 - w, w
    return W, _amplitudes(levels, s, dt)


class TestHurstNodes:
    HURST = TestWoodChanStreaming.HURST

    @staticmethod
    def _var_error(amps, W, cfg):
        """max_t |Var / t^{2h(t)} - 1| of a field, from the explicit map."""
        var = wood_chan_variance(amps, W)
        return float(np.max(np.abs(var / cfg.grid ** (2 * cfg.h(cfg.grid)) - 1)))

    @pytest.mark.parametrize("hurst", ["const", "linear", "sin", "steep"])
    @pytest.mark.parametrize("s", [8, 16, 64])
    def test_error_matches_explicit_map(self, hurst, s):
        cfg = SimulationConfig(h=self.HURST[hurst], s=s, n_paths=2, seed=4,
                               method="wood_chan")
        W, amps, err = _nodes(cfg)
        A = wood_chan_map(amps, W)
        var = np.sum(A * A, axis=1)
        assert abs(err - np.max(np.abs(var / cfg.grid ** (2 * cfg.h(cfg.grid)) - 1))) <= 1e-12
        assert np.allclose(wood_chan_variance(amps, W), var, rtol=1e-12, atol=0)
        # the map is the generator's: applied to the first noise row it gives
        # the real path 0
        noise = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(1)[0]).standard_normal(2 * amps.shape[1])
        path = simulate_wood_chan_mbm(cfg).values[0, 0]
        assert np.allclose(A @ np.concatenate([noise[0::2], noise[1::2]]), path,
                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("hurst", ["linear", "sin", "sin20", "steep"])
    def test_node_count_is_first_passing(self, hurst):
        # the count the one pass stops at, R modes of the 65-node field, is
        # the first that passes: the leading R modes meet _VAR_RTOL by the
        # explicit map, the leading R - 1 do not
        cfg = SimulationConfig(h=self.HURST[hurst], s=64, method="wood_chan")
        hvals, dt = cfg.h(cfg.grid), cfg.h.T / cfg.s
        W, modes, err = _nodes(cfg)
        R = len(modes)
        assert R > 2 and W.shape == (cfg.s, R)
        assert self._var_error(modes[:R - 1], W[:, :R - 1], cfg) > simulate_module._VAR_RTOL
        assert err == pytest.approx(self._var_error(modes, W, cfg), rel=0, abs=1e-12)
        assert err <= simulate_module._VAR_RTOL
        # the first mode is the amplitude row of one of the 65 Lobatto nodes,
        # the pivot of the first Gram-Schmidt step
        amps = _amplitudes(_lobatto(hvals.min(), hvals.max(), 65), cfg.s, dt)
        assert min(np.max(np.abs(modes[0] / a - 1)) for a in amps) <= 1e-13

    @pytest.mark.parametrize("hurst", [HurstFunctional.linear(0.7, 1e-9),
                                       HurstFunctional.sinusoidal(0.7, 1e-6, 6.0)],
                             ids=["linear", "sin"])
    @pytest.mark.parametrize("s", [64, 1024])
    def test_near_constant_h_takes_one_node(self, hurst, s):
        # one mode, the amplitude row of one of the 65 nodes, with weights
        # within 1e-4 of 1: the error of that one node's field, about
        # 2 (max h - h(t)) |log t|, meets the tolerance here
        cfg = SimulationConfig(h=hurst, s=s, method="wood_chan")
        hvals = cfg.h(cfg.grid)
        W, modes, err = _nodes(cfg)
        amps = _amplitudes(_lobatto(hvals.min(), hvals.max(), 65), s, cfg.h.T / s)
        assert len(modes) == 1
        assert min(np.max(np.abs(modes[0] / a - 1)) for a in amps) <= 1e-13
        assert np.allclose(W, 1, rtol=0, atol=1e-4)
        assert err <= simulate_module._VAR_RTOL
        assert abs(err - self._var_error(modes, W, cfg)) <= 1e-12

    @pytest.mark.parametrize("hurst, n", [("sin", 9), ("steep", 17), ("wide", 65)])
    def test_fewer_modes_than_nodes(self, hurst, n):
        # the node amplitude rows have low rank in H: n Lobatto nodes, the
        # fewest of 1, 2, 3, 5, ..., 65 whose Lagrange-interpolated field
        # meets _VAR_RTOL at s = 1024, carry the field in fewer modes, and
        # the error stays exact
        h = self.HURST.get(hurst) or HurstFunctional.linear(0.5001, 0.4998)
        cfg = SimulationConfig(h=h, s=1024, method="wood_chan")
        hvals, dt = cfg.h(cfg.grid), cfg.h.T / cfg.s
        for first in (1, 2, 3, 5, 9, 17, 33, 65):
            x = _lobatto(hvals.min(), hvals.max(), first)
            if self._var_error(_amplitudes(x, cfg.s, dt), lagrange_weights(hvals, x),
                               cfg) <= simulate_module._VAR_RTOL:
                break
        W, modes, err = _nodes(cfg)
        assert first == n and len(modes) <= 8
        assert err <= simulate_module._VAR_RTOL
        assert abs(err - self._var_error(modes, W, cfg)) <= 1e-12

    def test_near_coincident_nodes(self):
        # h varies by 1e-15, some 9 ulps of 0.7: the 65 nodes round onto a
        # few floats, and every time hits one of them
        cfg = SimulationConfig(h=HurstFunctional.linear(0.7, 1e-15), s=1024,
                               method="wood_chan")
        W, modes, err = _nodes(cfg)
        assert np.isfinite(W).all() and len(modes) == 1
        assert err <= simulate_module._VAR_RTOL

    def test_selection_keeps_no_pair_curves(self):
        # 65 nodes at s = 1024: the 2,145 pair curves of s floats would take
        # 18 MB; each is added to the variance as it is made
        cfg = SimulationConfig(h=HurstFunctional.linear(0.5001, 0.4998), s=1024,
                               method="wood_chan")
        tracemalloc.start()
        try:
            modes = _nodes(cfg)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(modes) == 6
        assert peak < 8e6

    def test_exact_node_hit_gives_one_hot_row(self):
        x = _lobatto(0.55, 0.75, 9)
        hvals = np.array([x[0], 0.6, x[3], x[-1]])
        W = _barycentric_weights(hvals, x)
        eye = np.eye(9)
        for row, k in ((0, 0), (2, 3), (3, 8)):
            assert np.array_equal(W[row], eye[k])
        assert np.isfinite(W).all() and np.sum(W[1]) == pytest.approx(1, abs=1e-14)
        # on the grid: the times where h is at its ends
        cfg = SimulationConfig(h=self.HURST["sin"], s=64, method="wood_chan")
        hvals = cfg.h(cfg.grid)
        nodes = _lobatto(hvals.min(), hvals.max(), 65)
        W = _barycentric_weights(hvals, nodes)
        assert np.array_equal(W[np.argmax(hvals)], np.eye(65)[0])
        assert np.array_equal(W[np.argmin(hvals)], np.eye(65)[-1])
        # equal nodes: the first of them
        assert np.array_equal(_barycentric_weights(np.array([0.7]), np.full(65, 0.7)),
                              np.eye(65)[:1])

    @pytest.mark.parametrize("hurst", ["linear", "sin", "steep"])
    def test_barycentric_matches_product_form(self, hurst):
        cfg = SimulationConfig(h=self.HURST[hurst], s=256, method="wood_chan")
        hvals = cfg.h(cfg.grid)
        nodes = _lobatto(hvals.min(), hvals.max(), 65)
        W = _barycentric_weights(hvals, nodes)
        assert np.max(np.abs(W - lagrange_weights(hvals, nodes))) <= 1e-12

    @pytest.mark.parametrize("s, n_paths, d", [(64, 4, 1), (100, 7, 2), (8, 3, 3)])
    def test_constant_h_is_the_one_level_synthesis(self, s, n_paths, d):
        # 65 equal nodes, every row one-hot on node 0, so one mode with
        # weight 1: the bytes of the constant-index synthesis,
        # cumsum(fft(sqrt(eigs / M) dt^H zeta)), with no interpolation step
        H = 0.7
        cfg = SimulationConfig(h=HurstFunctional.constant(H), s=s, n_paths=n_paths,
                               d=d, seed=9, method="wood_chan")
        paths = simulate_wood_chan_mbm(cfg)
        assert paths.wood_chan.keys() == {"modes", "var_error"}
        assert paths.wood_chan["modes"] == 1
        assert paths.wood_chan["var_error"] < 1e-14
        amp = _amplitudes([H], s, 1.0 / s)[0]
        n_pairs = (n_paths + 1) // 2
        for j, stream in enumerate(np.random.SeedSequence(9).spawn(d)):
            zeta = np.random.default_rng(stream).standard_normal(
                (n_pairs, 2 * len(amp))).view(complex)
            y = np.cumsum(np.fft.fft(amp * zeta, axis=1)[:, :s], axis=1)
            pair = np.empty((2 * n_pairs, s))
            pair[0::2], pair[1::2] = y.real, y.imag
            assert np.array_equal(paths.values[:, j, :], pair[:n_paths])

    @pytest.mark.parametrize("hurst", ["linear", "sin", "steep"])
    @pytest.mark.parametrize("s", [64, 128])
    def test_covariance_error_no_worse_than_linear_grid(self, hurst, s):
        cfg = SimulationConfig(h=self.HURST[hurst], s=s, method="wood_chan")
        hvals, dt = cfg.h(cfg.grid), cfg.h.T / s
        R = covariance_matrix(cfg.grid, cfg.h).values
        W, amps, _ = _nodes(cfg)
        # the 65-node field before its compression to modes
        x = _lobatto(hvals.min(), hvals.max(), 65)
        lagrange = (_amplitudes(x, s, dt), lagrange_weights(hvals, x))
        errors = []
        for A in (wood_chan_map(amps, W), wood_chan_map(*lagrange),
                  wood_chan_map(*_linear_grid(hvals, s, dt)[::-1])):
            diff = A @ A.T - R
            errors.append((np.max(np.abs(diff)) / np.max(R),
                           np.sqrt(np.sum(diff * diff) / np.sum(R * R))))
        assert errors[0][0] <= 1.01 * errors[2][0]
        # the compression keeps the construction's off-diagonal error
        assert errors[0][0] <= 1.01 * errors[1][0] and errors[0][1] <= 1.01 * errors[1][1]
        A = wood_chan_map(amps, W)
        assert np.max(np.abs(np.sum(A * A, axis=1) / np.diag(R) - 1)) <= simulate_module._VAR_RTOL

import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import graphssl.experiments as experiments
import graphssl.models as models
from graphssl.continuum import discretize
from graphssl.density import Density
from graphssl.experiments import (
    EXPERIMENT_IDS,
    ConfigError,
    ExperimentConfig,
    _continuum_references,
    _detect_bounds,
    _point_seed,
    _two_labels,
    _write_csv,
    load_config,
    run,
)
from graphssl.models import (
    ProbitPotential,
    continuum_krige,
    continuum_labeled_nodes,
    continuum_probit_map,
)
from graphssl.spectral import EigensolverError


class TestConfig:
    def test_defaults_complete(self):
        for exp in EXPERIMENT_IDS:
            cfg = ExperimentConfig(experiment=exp, out_dir="/tmp/x")
            assert cfg.params  # every experiment has documented defaults

    def test_paper_scale_changes_sizes(self):
        desk = ExperimentConfig(experiment="channel", out_dir="/tmp/x")
        paper = ExperimentConfig(experiment="channel", out_dir="/tmp/x",
                                 paper_scale=True)
        assert paper.params["grid_n"] > desk.params["grid_n"]

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig(experiment="nope", out_dir="/tmp/x")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig(experiment="channel", out_dir="/tmp/x",
                             params={"bogus": 1})

    @pytest.mark.parametrize("exp,params", [
        ("smallnoise", {"alpha": -1.0}),
        ("smallnoise", {"tau": -0.5}),
        ("smallnoise", {"gammas": [0.1, 0.0]}),
        ("smallnoise", {"beta": 1.5}),
        ("smallnoise", {"n": 2}),
        ("rates-krige", {"eps_min": 0.9}),
        ("rates-krige", {"eps_count": 2}),
        ("channel", {"alpha_values": [1.0, -2.0]}),
        ("channel", {"gamma": 0.0}),
        ("rates-krige", {"n_values": [100, 3]}),
        ("smallnoise", {"thinning": 0}),
        ("mcmc-moons", {"thinning": 0}),
        ("smallnoise", {"batches": 0}),
        ("channel", {"grid_n": 4}),
        ("mcmc-moons", {"grid_n": 7}),
        ("rates-krige", {"continuum_grid_n": 4}),
        ("spectra", {"weyl_grid_n_3d": 4}),
        ("rates-krige", {"n_seeds": 0}),
        ("smallnoise", {"iterations": 100}),
        ("mcmc-moons", {"iterations": 1000, "burn_in": 100}),
        ("rates-krige", {"tau": 0.0}),
        ("extrapolation", {"tau": 0.0}),
        ("smallnoise", {"tau": 0.0}),
        ("channel", {"tau": 0.0}),
        ("mcmc-moons", {"tau_values": [1.0, -0.2]}),
        ("mcmc-moons", {"tau_values": [0.0]}),
        ("rates-probit", {"alpha": 0.5, "continuum_grid_n": 65}),
        ("smallnoise", {"iterations": 2000, "burn_in": 0, "batches": 201}),  # 200 kept
        ("rates-krige", {"models": "krige,krige"}),
        # range(100, 1090, 10) keeps 99 states
        ("smallnoise", {"iterations": 1090, "burn_in": 100, "thinning": 10}),
        ("mcmc-moons", {"iterations": 1090, "burn_in": 100, "thinning": 10}),
        # a sweep value given twice
        ("channel", {"h_values": [1.0, 1.0]}),
        ("channel", {"alpha_values": [1.0, 1.0, 2.0]}),
        ("mcmc-moons", {"tau_values": [1.0, 0.2, 1.0]}),
        ("rates-krige", {"n_values": [100, 200, 100]}),
        ("smallnoise", {"gammas": [0.1, 0.1]}),
        ("spectra", {"n_values": [400, 400]}),
    ])
    def test_invalid_parameters(self, exp, params):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment=exp, out_dir="/tmp/x", params=params)

    @pytest.mark.parametrize("exp", ["smallnoise", "mcmc-moons"])
    def test_chains_keeping_100_states_accepted(self, exp):
        # range(100, 1091, 10) keeps the 100 states classification_stats needs
        cfg = ExperimentConfig(experiment=exp, out_dir="/tmp/x",
                               params={"iterations": 1091, "burn_in": 100, "thinning": 10})
        assert cfg.params["iterations"] == 1091

    def test_unknown_rates_model(self, tmp_path):
        # rejected with the config, before run() creates the output directory
        with pytest.raises(ConfigError, match="unknown rates model"):
            ExperimentConfig(experiment="rates-krige", out_dir=tmp_path,
                             params={"models": "krige,svm"})

    def test_thread_validation(self):
        with pytest.raises(ConfigError, match="threads"):
            ExperimentConfig(experiment="channel", out_dir="/tmp/x", threads=0)


class TestLoadConfig:
    def test_file_values_and_overrides(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nexperiment = extrapolation\nseed = 5\n\n"
                     "[extrapolation]\nn = 200\nalpha_values = 0.5 1.0\n")
        cfg = load_config(p)
        assert cfg.experiment == "extrapolation"
        assert cfg.seed == 5
        assert cfg.params["n"] == 200
        assert cfg.params["alpha_values"] == [0.5, 1.0]
        # keyword arguments beat file values
        cfg2 = load_config(p, seed=9, out_dir=tmp_path / "o")
        assert cfg2.seed == 9

    def test_experiment_inferred_from_section(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[spectra]\nn_seeds = 2\n")
        assert load_config(p).experiment == "spectra"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_unparsable_value(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[extrapolation]\nn = twelve\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(p)

    @pytest.mark.parametrize("exp", ["rates-krige", "rates-probit", "extrapolation",
                                     "mcmc-moons", "smallnoise"])
    @pytest.mark.parametrize("body", ["label_plus = 0.2 0.2 0.2\n",
                                      "label_minus = 0.7\n",
                                      "label_plus = 0.2 0.2 0.2\nlabel_minus = 0.7 0.7 0.7\n"],
                             ids=["plus-3", "minus-1", "both-3"])
    def test_label_point_needs_2_coordinates(self, tmp_path, exp, body):
        p = tmp_path / "c.ini"
        p.write_text(f"[{exp}]\n{body}")
        with pytest.raises(ConfigError, match="must have 2 coordinates"):
            load_config(p)

    def test_no_experiment_anywhere(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nseed = 1\n")
        with pytest.raises(ConfigError, match="not inferable"):
            load_config(p)

    def test_paper_scale_from_run_section(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nexperiment = channel\npaper_scale = yes\n")
        cfg = load_config(p)
        assert cfg.paper_scale is True
        assert cfg.params["grid_n"] == 256

    def test_defaults_without_file(self):
        cfg = load_config(None, experiment="channel")
        assert cfg.params["grid_n"] == 128

    @pytest.mark.parametrize("run", ["sed = 3\n", "threds = 2\n", "seed = 3\nthreds = 2\n"],
                             ids=["seed", "threads", "one-of-two"])
    def test_unknown_run_key_refused(self, tmp_path, run):
        # not a run at seed 0 and one thread, even where the keyword
        # arguments set both
        p = tmp_path / "c.ini"
        p.write_text(f"[run]\n{run}\n[extrapolation]\nn = 150\n")
        with pytest.raises(ConfigError, match=r"unknown \[run\] keys"):
            load_config(p)
        with pytest.raises(ConfigError, match=r"unknown \[run\] keys"):
            load_config(p, experiment="extrapolation", seed=1, threads=1)

    def test_several_experiment_sections_allowed(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nseed = 2\n\n[smallnoise]\nn = 100\n\n[channel]\ngrid_n = 16\n")
        cfg = load_config(p, experiment="smallnoise")
        assert (cfg.seed, cfg.params["n"]) == (2, 100)
        assert load_config(p, experiment="channel").params["grid_n"] == 16
        with pytest.raises(ConfigError, match="not inferable"):
            load_config(p)

    def test_echoed_config_loads_back(self, tmp_path):
        cfg = ExperimentConfig(experiment="smallnoise", out_dir=tmp_path, seed=4, threads=2,
                               params={"n": 100})
        cfg.out_dir.mkdir(exist_ok=True)
        experiments._echo_config(cfg)
        again = load_config(tmp_path / "config_resolved.ini")
        assert (again.experiment, again.seed, again.threads, again.paper_scale,
                again.out_dir, again.params) == (cfg.experiment, 4, 2, False,
                                                 tmp_path, cfg.params)


class TestBoundDetection:
    def test_u_curve_inflections(self):
        eps = np.linspace(0.0, 1.0, 101)
        # flat-bottomed U built from cos^2 shoulders; the shoulder inflection
        # points sit at eps = 0.125 and eps = 0.875
        err = np.where(eps < 0.25, np.cos(2 * np.pi * eps) ** 2, 0.0)
        err = err + np.where(eps > 0.75,
                             np.sin(2 * np.pi * (eps - 0.75)) ** 2, 0.0)
        lo, hi = _detect_bounds(eps, err, window=5)
        assert 0.08 < lo < 0.2
        assert 0.8 < hi < 0.95

    def test_monotone_curve_has_no_bounds(self):
        eps = np.linspace(0.1, 1.0, 50)
        lo, hi = _detect_bounds(eps, eps ** 2, window=5)
        assert np.isnan(hi)


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        assert _point_seed(0, 3, 4) == _point_seed(0, 3, 4)
        seeds = {_point_seed(0, n, s) for n in range(5) for s in range(5)}
        assert len(seeds) == 25
        assert _point_seed(1, 3, 4) != _point_seed(0, 3, 4)


class TestWriteCsv:
    def test_array_rows_write_the_same_bytes(self, tmp_path):
        cells = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300,
                 0.1, 1.0, -3.0, 2.0 ** 60, 1.0 / 3.0, 123456789.125]
        rows = np.array(cells).reshape(-1, 2)
        _write_csv(tmp_path / "array.csv", ["a", "b"], rows)
        _write_csv(tmp_path / "rows.csv", ["a", "b"], (list(r) for r in rows))
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "array.csv").read_bytes().startswith(b"a,b\r\n-0,0\r\ninf,-inf\r\n")


class TestRatesDroppedPoints:
    PARAMS = {"n_values": [40], "n_seeds": 2, "eps_min": 0.2, "eps_max": 0.5,
              "eps_count": 4, "continuum_grid_n": 16}

    def test_failed_eigensolves_are_listed(self, tmp_path, monkeypatch):
        # alpha = 1.5 takes the spectral route through decompose
        def failing(op, m=None):
            raise EigensolverError("no convergence")
        monkeypatch.setattr(experiments, "decompose", failing)
        cfg = ExperimentConfig(experiment="rates-krige", out_dir=tmp_path,
                               params={**self.PARAMS, "models": "krige,probit",
                                       "alpha": 1.5})
        result = run(cfg)
        assert len(result["dropped"]) == 2 * 4 * 2  # seeds x epsilons x models
        first = result["dropped"][0]
        assert first == {"n": 40, "seed": _point_seed(0, 40, 0), "epsilon": 0.2,
                         "model": "krige", "exception": "EigensolverError: no convergence"}
        assert [d["model"] for d in result["dropped"][:2]] == ["krige", "probit"]
        # errors.csv rows and result["errors"] keep their 5-tuples (NaN here)
        assert all(len(row) == 5 and np.isnan(row[3]) for row in result["errors"])

    def test_failed_model_solves_are_listed(self, tmp_path, monkeypatch):
        solve = experiments.sparse_probit_map
        calls = []

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("singular kriging Gram matrix")
            return solve(*args, **kwargs)
        monkeypatch.setattr(experiments, "sparse_probit_map", failing_once)
        cfg = ExperimentConfig(experiment="rates-krige", out_dir=tmp_path,
                               params={**self.PARAMS, "models": "krige,probit"})
        result = run(cfg)
        eps = float(np.linspace(0.2, 0.5, 4)[1])
        assert result["dropped"] == [{
            "n": 40, "seed": _point_seed(0, 40, 0), "epsilon": eps, "model": "probit",
            "exception": "ValueError: singular kriging Gram matrix"}]
        probit_rows = [row for row in result["errors"] if row[0] == "probit"]
        assert all(np.isfinite(row[3]) for row in probit_rows)  # the other seed

    def test_disconnected_graphs_are_counted(self, tmp_path):
        cfg = ExperimentConfig(experiment="rates-krige", out_dir=tmp_path,
                               params={**self.PARAMS, "eps_min": 0.05})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning that escapes fails the test
            result = run(cfg)
        key = "UserWarning: graph is disconnected; tau=0 models are ill-posed"
        assert result["warnings"][key] > 0

    def test_other_eigensolver_exceptions_propagate(self, tmp_path, monkeypatch):
        def broken(op, m=None):
            raise TypeError("a bug, not a numerical failure")
        monkeypatch.setattr(experiments, "decompose", broken)
        cfg = ExperimentConfig(experiment="rates-krige", out_dir=tmp_path,
                               params={**self.PARAMS, "alpha": 1.5})
        with pytest.raises(TypeError):
            run(cfg)


class TestRatesReferences:
    PARAMS = {"continuum_grid_n": 32}

    @pytest.mark.parametrize("models", [["krige", "probit"], ["probit", "krige"]])
    def test_shared_factor_changes_no_bit(self, models):
        # one factorization and one set of unit solves serve both continuum
        # references, which equal separate solves, each on an operator of its
        # own, bit for bit
        p = ExperimentConfig(experiment="rates-krige", out_dir="/tmp/x",
                             params=self.PARAMS).params
        grid, refs = _continuum_references(models, p)
        op = discretize(Density("uniform"), 32)
        idx, y, w = continuum_labeled_nodes(op, _two_labels(p))
        pot = ProbitPotential(gamma=p["gamma"], indices=idx, y=y, weights=w)
        assert np.array_equal(grid.coordinates(), op.grid.coordinates())
        assert np.array_equal(refs["krige"], continuum_krige(op, p["alpha"], p["tau"], idx, y))
        fresh = discretize(Density("uniform"), 32)
        assert np.array_equal(refs["probit"],
                              continuum_probit_map(fresh, p["alpha"], p["tau"], pot))

    def test_one_factorization_serves_both_models(self, monkeypatch):
        # the uniform grid's factor is the cosine transform: one factor
        # object serves both models, and nothing is LU-factored
        calls, factors = [], []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))

        class Recorded(models.CosineFactor):
            def __init__(self, *args):
                super().__init__(*args)
                factors.append(self)
        monkeypatch.setattr(models, "CosineFactor", Recorded)
        p = ExperimentConfig(experiment="rates-krige", out_dir="/tmp/x",
                             params=self.PARAMS).params
        _continuum_references(["krige", "probit"], p)
        assert calls == []
        assert len(factors) == 1


class TestContinuumFactor:
    def test_channel_keeps_the_last_factor_only(self, tmp_path, monkeypatch):
        # each operator of channel's h loop keeps one factorization, that of
        # the last alpha: the earlier ones are freed
        ops, factors = [], []
        monkeypatch.setattr(experiments, "discretize",
                            lambda *a: ops.append(discretize(*a)) or ops[-1])

        class Recorded(models.PoweredFactor):
            def __init__(self, *args):
                super().__init__(*args)
                factors.append(weakref.ref(self))
        monkeypatch.setattr(models, "PoweredFactor", Recorded)
        cfg = ExperimentConfig(experiment="channel", out_dir=tmp_path, params={
            "grid_n": 16, "h_values": [1.0, 0.0], "alpha_values": [1.0, 2.0, 3.0]})
        run(cfg)
        assert len(ops) == 2 and len(factors) == 6  # one per (h, alpha)
        kept = [op.factor(3, cfg.params["tau"]) for op in ops]
        assert len(factors) == 6  # the last alpha's factors were kept, not rebuilt
        assert {id(ref()) for ref in factors if ref() is not None} == set(map(id, kept))


class TestRunners:
    def test_extrapolation_outputs(self, tmp_path):
        cfg = ExperimentConfig(experiment="extrapolation", out_dir=tmp_path,
                               params={"n": 150, "alpha_values": [0.5, 2.0]})
        result = run(cfg)
        assert set(result["scores"]) == {0.5, 2.0}
        spikes = (tmp_path / "spikes.csv").read_text().splitlines()
        assert spikes[0] == "alpha,epsilon,spike_score"
        assert (tmp_path / "field_alpha0.5.csv").exists()
        assert (tmp_path / "config_resolved.ini").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(experiment="extrapolation",
                                   out_dir=tmp_path / name,
                                   params={"n": 150, "alpha_values": [1.0]})
            run(cfg)
            outs.append((tmp_path / name / "spikes.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_moons_runs_one_eigensolve(self, tmp_path, monkeypatch):
        # the Fiedler pair comes from the chains' decomposition
        import graphssl.continuum as continuum
        calls = []
        decompose = continuum.decompose

        def counted(*args, **kwargs):
            calls.append(kwargs.get("m"))
            return decompose(*args, **kwargs)
        monkeypatch.setattr(continuum, "decompose", counted)
        cfg = ExperimentConfig(experiment="mcmc-moons", out_dir=tmp_path, params={
            "grid_n": 16, "modes": 20, "alpha_values": [2.0], "tau_values": [1.0],
            "iterations": 1100, "burn_in": 100})
        result = run(cfg)
        assert calls == [20]
        assert not result["degenerate"]
        assert (tmp_path / "fiedler.csv").exists()

    def test_channel_warnings_are_counted(self, tmp_path, monkeypatch):
        def warning_discretize(*args):
            warnings.warn("a channel warning")
            return discretize(*args)
        monkeypatch.setattr(experiments, "discretize", warning_discretize)
        cfg = ExperimentConfig(experiment="channel", out_dir=tmp_path, params={
            "grid_n": 16, "h_values": [1.0, 0.5], "alpha_values": [1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning that escapes fails the test
            result = run(cfg)
        assert result["warnings"] == {"UserWarning: a channel warning": 2}

    def test_dispatch_covers_all_ids(self):
        from graphssl.experiments import _RUNNERS
        assert set(_RUNNERS) == set(EXPERIMENT_IDS)

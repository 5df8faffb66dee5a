import numpy as np
import pytest

import graphssl.cli as cli
import graphssl.experiments as experiments
from graphssl.models import MapSolverError
from graphssl.spectral import DENSE_CUTOFF


def _write_cfg(tmp_path, body):
    p = tmp_path / "cfg.ini"
    p.write_text(body)
    return p


class TestExitCodes:
    def test_success_writes_outputs(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nn = 150\nalpha_values = 1\n")
        out = tmp_path / "out"
        code = cli.main(["extrapolation", "--config", str(cfg),
                         "--out", str(out), "--seed", "0"])
        assert code == 0
        assert (out / "spikes.csv").exists()
        assert "wrote results to" in capsys.readouterr().out

    def test_counted_warnings_are_printed(self, tmp_path, capsys):
        # the graphs of both seeds are disconnected at epsilon 0.05 and 0.2
        cfg = _write_cfg(tmp_path, "[rates-krige]\nn_values = 40\nn_seeds = 2\n"
                                   "eps_min = 0.05\neps_max = 0.5\neps_count = 4\n"
                                   "continuum_grid_n = 16\n")
        assert cli.main(["rates-krige", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning (4x): UserWarning: graph is disconnected; tau=0 models are ill-posed"]

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nn = -5\n")
        code = cli.main(["extrapolation", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip() != ""

    def test_zero_thinning_exits_2(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[smallnoise]\nthinning = 0\n")
        assert cli.main(["smallnoise", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2

    def test_zero_tau_exits_2(self, tmp_path):
        # rejected with the config, not by a singular solve (exit 3) after
        # the run has begun
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, "[rates-krige]\ntau = 0\n")
        assert cli.main(["rates-krige", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_tau_values_exit_2(self, tmp_path):
        # at tau = 0 the moons kriging start could weight a roundoff
        # eigenvalue of the constant mode by lambda^-alpha
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, "[mcmc-moons]\ngrid_n = 24\nmodes = 30\n"
                                   "alpha_values = 2\ntau_values = 0\n"
                                   "iterations = 1500\nburn_in = 150\n")
        assert cli.main(["mcmc-moons", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment, body", [
        # a fractional alpha: the rates continuum reference on a 256^2 grid
        ("rates-krige", "alpha = 1.5\nn_values = 40\nn_seeds = 1\neps_count = 4\n"),
        # ... and the rates graphs themselves
        ("rates-krige", "alpha = 1.5\nn_values = 4200\nn_seeds = 1\neps_count = 3\n"
                        "eps_min = 0.1\neps_max = 0.2\ncontinuum_grid_n = 32\n"),
        ("channel", "alpha_values = 1.5\nh_values = 1.0\n"),
        ("extrapolation", "n = 4200\n"),
        ("smallnoise", "n = 4200\niterations = 2000\nburn_in = 200\n"),
        ("mcmc-moons", "grid_n = 65\nmodes = 4225\n"),
    ], ids=["rates-grid", "rates-graph", "channel", "extrapolation", "smallnoise",
            "mcmc-moons"])
    def test_full_spectrum_above_dense_cutoff_exits_2(self, tmp_path, capsys,
                                                      experiment, body):
        # each would ask the sparse eigensolver for every eigenpair of an
        # operator on more than 4096 nodes
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[{experiment}]\n{body}")
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert "4096" in capsys.readouterr().err
        assert not out.exists()

    def test_more_modes_than_grid_nodes_exits_2(self, tmp_path, capsys):
        # refused with the config, before the output directory exists
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, "[mcmc-moons]\ngrid_n = 8\nmodes = 100\n"
                                   "iterations = 2000\nburn_in = 200\n")
        assert cli.main(["mcmc-moons", "--config", str(cfg), "--out", str(out)]) == 2
        assert "modes" in capsys.readouterr().err
        assert not out.exists()

    def test_overlapping_label_balls_exit_2(self, tmp_path, capsys):
        # the balls around (0.25, 0.25) and (0.75, 0.75) overlap by 0.093
        cfg = _write_cfg(tmp_path, "[channel]\ngrid_n = 32\nlabel_radius = 0.4\n"
                                   "h_values = 1.0\nalpha_values = 1\n")
        assert cli.main(["channel", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "separation" in capsys.readouterr().err

    def test_empty_label_ball_exits_2(self, tmp_path, capsys):
        # no node of a 16^2 grid lies within 0.02 of a label center; only the
        # runner sees that, and its refusal leaves no output directory
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, "[channel]\ngrid_n = 16\nlabel_radius = 0.02\n"
                                   "h_values = 1.0\nalpha_values = 1\n")
        assert cli.main(["channel", "--config", str(cfg), "--out", str(out)]) == 2
        assert "label ball omega_plus" in capsys.readouterr().err
        assert not out.exists()

    def test_label_point_outside_unit_box_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[rates-krige]\nlabel_plus = 1.5 0.5\nn_values = 20\n"
                                   "n_seeds = 1\neps_count = 3\ncontinuum_grid_n = 8\n")
        assert cli.main(["rates-krige", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "(1.5, 0.5) lies outside the closed unit box" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", ["label_plus = 0.2 0.2 0.2\n",
                                        "label_plus = 0.2 0.2 0.2\n"
                                        "label_minus = 0.7 0.7 0.7\n"],
                             ids=["one-point", "both-points"])
    def test_label_point_of_3_coordinates_exits_2(self, tmp_path, capsys, labels):
        # refused with the config, not by a broadcast error (exit 3) after
        # config_resolved.ini is written
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[rates-krige]\n{labels}n_values = 20\n"
                                   "n_seeds = 1\neps_count = 3\ncontinuum_grid_n = 8\n")
        assert cli.main(["rates-krige", "--config", str(cfg), "--out", str(out)]) == 2
        assert "label_plus must have 2 coordinates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, body", [
        ("mcmc-moons", "grid_n = 24\nmodes = 30\nalpha_values = 2\ntau_values = 1\n"
                       "iterations = 1500\nburn_in = 150\n"
                       "label_plus = 0.35 0.70\nlabel_minus = 0.36 0.70\n"),
        ("rates-krige", "n_values = 20\nn_seeds = 1\neps_count = 3\ncontinuum_grid_n = 8\n"
                        "label_plus = 0.45 0.45\nlabel_minus = 0.44 0.44\n"),
        ("rates-probit", "n_values = 20\nn_seeds = 1\neps_count = 3\ncontinuum_grid_n = 8\n"
                         "label_plus = 0.45 0.45\nlabel_minus = 0.44 0.44\n"),
    ], ids=["mcmc-moons", "rates-krige", "rates-probit"])
    def test_label_points_on_one_grid_node_exit_2(self, tmp_path, capsys, experiment, body):
        # not a singular Gram matrix (exit 3), nor a continuum reference with
        # both labels on one node (exit 0)
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[{experiment}]\n{body}")
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "label points (" in err and "snap to the same grid node (" in err
        assert not out.exists()

    def test_refusal_leaves_an_existing_directory_as_it_was(self, tmp_path):
        # the directories a refused call made go; one that existed stays,
        # with nothing written into it
        out = tmp_path / "out"
        out.mkdir()
        (out / "config_resolved.ini").write_text("an earlier run's echo\n")
        cfg = _write_cfg(tmp_path, "[rates-krige]\nn_values = 20\nn_seeds = 1\n"
                                   "eps_count = 3\ncontinuum_grid_n = 8\n"
                                   "label_plus = 0.45 0.45\nlabel_minus = 0.44 0.44\n")
        assert cli.main(["rates-krige", "--config", str(cfg), "--out", str(out / "a" / "b")]) == 2
        assert cli.main(["rates-krige", "--config", str(cfg), "--out", str(out)]) == 2
        assert [f.name for f in out.iterdir()] == ["config_resolved.ini"]
        assert (out / "config_resolved.ini").read_text() == "an earlier run's echo\n"

    @pytest.mark.parametrize("experiment, body, message", [
        ("smallnoise", "eps = 0\n", "eps must be positive"),
        ("spectra", "eps = -0.1\n", "eps must be positive"),
        ("spectra", "n_values = 8\n", "at least 10"),
        ("spectra", "cont_weyl_k_min = 1\n", "2 <= cont_weyl_k_min"),
        ("spectra", "cont_weyl_k_min = 50\ncont_weyl_k_max = 53\n", "<= cont_weyl_k_max - 4"),
        ("spectra", "continuum_grid_n = 16\ncont_weyl_k_max = 600\n", "+ 5 <= 256,"),
        ("spectra", "weyl_grid_n_3d = 8\ncont_weyl_k_max = 600\n", "+ 5 <= 512,"),
    ], ids=["smallnoise-eps", "spectra-eps", "spectra-n", "weyl-k-min", "weyl-range",
            "weyl-2d-grid", "weyl-3d-grid"])
    def test_bad_spectra_and_eps_exit_2(self, tmp_path, capsys, experiment, body, message):
        # refused with the config, before the output directory exists
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[{experiment}]\n{body}")
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_continuum_weyl_fit_may_take_every_grid_eigenvalue(self, tmp_path):
        # the continuum eigenvalues are a closed form, so a fit that reads all
        # 4225 of a 65^2 grid needs no eigensolve, dense or sparse
        cfg = experiments.load_config(
            _write_cfg(tmp_path, "[spectra]\ncontinuum_grid_n = 65\ncont_weyl_k_max = 4220\n"
                                 "weyl_grid_n_3d = 20\n"), experiment="spectra")
        assert cfg.params["cont_weyl_k_max"] + 5 == 65 ** 2 > DENSE_CUTOFF

    @pytest.mark.parametrize("experiment, body, message", [
        # refused with the config, not by the chain start, the factor, the
        # MAP solve, the eigensolver or the recorded-sample check after the
        # run has begun
        ("smallnoise", "gammas = nan 0.1\n", "gammas must be finite"),
        ("rates-krige", "tau = nan\n", "tau must be finite"),
        ("channel", "tau = inf\n", "tau must be finite"),
        ("mcmc-moons", "modes = 0\n", "modes must be at least 1"),
        ("smallnoise", "burn_in = -5\n", "burn_in must be at least 0"),
    ], ids=["smallnoise-nan-gamma", "rates-nan-tau", "channel-inf-tau", "moons-no-modes",
            "smallnoise-negative-burn-in"])
    def test_non_finite_value_or_no_modes_exits_2(self, tmp_path, capsys, experiment, body,
                                                   message):
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[{experiment}]\n{body}")
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("run", ["seed = abc\n", "threads = two\n", "paper_scale = ture\n"],
                             ids=["seed", "threads", "paper-scale"])
    def test_unparsable_run_value_exits_2(self, tmp_path, capsys, run):
        # not an uncaught ValueError (exit 1), and no run at desk scale for a
        # misspelt paper_scale
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[run]\n{run}\n[extrapolation]\nn = 150\n")
        assert cli.main(["extrapolation", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cannot parse config value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("run, expected", [
        ("seed = 3\nthreads = 1\npaper_scale = off\n", (3, 1, False)),
        ("seed = 0\nthreads = 2\npaper_scale = Yes\n", (0, 2, True)),
        ("", (0, 1, False)),
    ], ids=["off", "yes", "defaults"])
    def test_run_section_values_parse(self, tmp_path, run, expected):
        cfg = experiments.load_config(_write_cfg(tmp_path, f"[run]\n{run}\n[extrapolation]\n"),
                                      experiment="extrapolation")
        assert (cfg.seed, cfg.threads, cfg.paper_scale) == expected

    @pytest.mark.parametrize("width", ["-0.1", "0", "1", "1.5"])
    def test_channel_width_outside_unit_interval_exits_2(self, tmp_path, capsys, width):
        # a width outside (0, 1) leaves no channel in the density
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[channel]\ngrid_n = 16\nh_values = 1\n"
                                   f"channel_width = {width}\n")
        assert cli.main(["channel", "--config", str(cfg), "--out", str(out)]) == 2
        assert "channel_width must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_no_off_curve_node_exits_2(self, tmp_path, capsys):
        # offcurve_certainty would be the mean over no node: nan
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, "[mcmc-moons]\ngrid_n = 24\nmodes = 30\n"
                                   "offcurve_density = -1\nalpha_values = 2\n"
                                   "tau_values = 1\niterations = 1500\nburn_in = 150\n")
        assert cli.main(["mcmc-moons", "--config", str(cfg), "--out", str(out)]) == 2
        assert "smallest node density" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nbogus = 1\n")
        assert cli.main(["extrapolation", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("experiment, body, message", [
        ("extrapolation", "[run]\nsed = 3\nthreds = 2\n[extrapolation]\nn = 150\n",
         "unknown [run] keys ['sed', 'threds']"),
        ("smallnoise", "[smalnoise]\nn = 100\n", "unknown config sections ['smalnoise']"),
    ], ids=["run-keys", "section"])
    def test_misspelt_run_key_or_section_exits_2(self, tmp_path, capsys, experiment, body,
                                                 message):
        # refused before any run: not a run with the defaults
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, body)
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise MapSolverError(np.zeros(1), 123.0)  # a synthetic solver breakdown

        monkeypatch.setitem(experiments._RUNNERS, "extrapolation", boom)
        code = cli.main(["extrapolation", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "did not converge, residual 1.230e+02" in capsys.readouterr().err

    def test_seed_flag_changes_draws(self, tmp_path):
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            cfg = _write_cfg(tmp_path, "[extrapolation]\nn = 150\nalpha_values = 1\n")
            assert cli.main(["extrapolation", "--config", str(cfg),
                             "--out", str(out), "--seed", seed]) == 0
            outs.append((out / "field_alpha1.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_config_echo_records_run_settings(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nn = 150\nalpha_values = 1\n")
        out = tmp_path / "out"
        cli.main(["extrapolation", "--config", str(cfg), "--out", str(out),
                  "--seed", "7", "--threads", "2"])
        echo = (out / "config_resolved.ini").read_text()
        assert "[run]" in echo
        assert "seed = 7" in echo
        assert "threads = 2" in echo

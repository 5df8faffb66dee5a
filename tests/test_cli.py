import numpy as np
import pytest

import graphssl.cli as cli
import graphssl.experiments as experiments
from graphssl.models import MapSolverError


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
        # no node of a 16^2 grid lies within 0.02 of a label center
        cfg = _write_cfg(tmp_path, "[channel]\ngrid_n = 16\nlabel_radius = 0.02\n"
                                   "h_values = 1.0\nalpha_values = 1\n")
        assert cli.main(["channel", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "label ball omega_plus" in capsys.readouterr().err

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

    @pytest.mark.parametrize("experiment, body, message", [
        ("smallnoise", "eps = 0\n", "eps must be positive"),
        ("spectra", "eps = -0.1\n", "eps must be positive"),
        ("spectra", "n_values = 8\n", "at least 10"),
        ("spectra", "cont_weyl_k_min = 1\n", "2 <= cont_weyl_k_min"),
        ("spectra", "cont_weyl_k_min = 50\ncont_weyl_k_max = 53\n", "<= cont_weyl_k_max - 4"),
        ("spectra", "continuum_grid_n = 16\ncont_weyl_k_max = 600\n", "+ 5 <= 256,"),
        ("spectra", "weyl_grid_n_3d = 8\ncont_weyl_k_max = 600\n", "+ 5 <= 512,"),
        ("spectra", "continuum_grid_n = 65\ncont_weyl_k_max = 4220\n"
                    "weyl_grid_n_3d = 20\n", "4096"),
    ], ids=["smallnoise-eps", "spectra-eps", "spectra-n", "weyl-k-min", "weyl-range",
            "weyl-2d-grid", "weyl-3d-grid", "weyl-full-spectrum"])
    def test_bad_spectra_and_eps_exit_2(self, tmp_path, capsys, experiment, body, message):
        # refused with the config, before the output directory exists
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, f"[{experiment}]\n{body}")
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nbogus = 1\n")
        assert cli.main(["extrapolation", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2

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

import numpy as np

import graphssl.cli as cli
import graphssl.experiments as experiments
from graphssl.experiments import NumericalError


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

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[extrapolation]\nbogus = 1\n")
        assert cli.main(["extrapolation", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("synthetic solver breakdown")

        monkeypatch.setitem(experiments._RUNNERS, "extrapolation", boom)
        code = cli.main(["extrapolation", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "synthetic solver breakdown" in capsys.readouterr().err

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

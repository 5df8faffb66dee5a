"""`import graphssl` loads only the scipy that every run uses.

`scipy.optimize` (for `tlp_exact`), `scipy.spatial` (for the range search
and `tlp_map_bound`), `scipy.sparse.csgraph` (for the connectivity checks)
and `scipy.fft` (for the uniform grid's cosine-transform solves) are
imported on first call, inside the functions that use them.
Each check runs in a fresh interpreter: this test session has imported
them already (tests/test_models.py imports `scipy.optimize`).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import graphssl
from graphssl.experiments import EXPERIMENT_IDS

SRC = str(Path(graphssl.__file__).resolve().parents[1])
# CI's "Cold start" step imports this tuple
LAZY = ("scipy.optimize", "scipy.spatial", "scipy.sparse.csgraph", "scipy.fft")


def _python(code: str, cwd) -> object:
    """Run ``code`` in a fresh interpreter that imports graphssl from SRC;
    returns the JSON value of its last output line."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded(cwd, *statements: str) -> list[str]:
    """The modules of LAZY loaded after importing graphssl.cli and running
    ``statements``."""
    code = ["import json, sys", "import graphssl.cli",
            "from graphssl.experiments import load_config", *statements,
            f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"]
    return _python("\n".join(code), cwd)


def test_import_and_config_leave_lazy_modules_unloaded(tmp_path):
    assert _loaded(tmp_path, *(f"load_config(None, experiment={e!r})"
                               for e in EXPERIMENT_IDS)) == []


@pytest.mark.parametrize("experiment, params", [
    ("channel", "grid_n = 16\nlabel_radius = 0.15\nh_values = 1.0\nalpha_values = 1\n"),
    ("mcmc-moons", "grid_n = 16\nmodes = 20\nalpha_values = 2\ntau_values = 1\n"
                   "iterations = 1100\nburn_in = 100\n"),
], ids=["channel", "mcmc-moons"])
def test_runs_without_a_graph_leave_lazy_modules_unloaded(tmp_path, experiment, params):
    # neither experiment builds a point-cloud graph, measures a transport
    # distance or solves on a uniform grid
    config = tmp_path / "config.ini"
    config.write_text(f"[{experiment}]\n{params}")
    body = (f"assert graphssl.cli.main([{experiment!r}, '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")
    assert _loaded(tmp_path, body) == []


def test_first_call_imports_give_the_same_values(tmp_path):
    # the lazily imported functions return what they return when their
    # modules were loaded before graphssl
    code = """
        import json, sys
        {preload}
        import numpy as np
        import graphssl as gs
        rng = np.random.default_rng(3)
        a = gs.TlpPair(rng.random((40, 2)), rng.standard_normal(40))
        b = gs.TlpPair(rng.random((40, 2)), rng.standard_normal(40))
        grid = gs.Grid(dim=2, N=12)
        bound = gs.tlp_map_bound(a.points, a.values, grid, rng.standard_normal(grid.size),
                                 np.ones(grid.size))
        cloud = gs.sample_cloud(gs.Density("uniform"), 300, seed=5)
        g = gs.build_graph(cloud, 0.1)
        L = gs.EpsilonSweep(cloud, [0.05, 0.1]).scaled_laplacian(0.05)
        cosine = gs.discretize(gs.Density("uniform"), 8).factor(2, 1.0).solve(np.arange(64.0))
        print(json.dumps({{
            "exact": gs.tlp_exact(a, b).hex(),
            "bound": [x.hex() for x in bound],
            "graph": [g.weights.data.tobytes().hex(), g.weights.indices.tobytes().hex(),
                      g.s_n.hex()],
            "sweep": [L.data.tobytes().hex(), L.indices.tobytes().hex()],
            "cosine": cosine.tobytes().hex(),
            "lazy": [m for m in {lazy!r} if m in sys.modules],
        }}))
        """
    lazy = _python(code.format(preload="", lazy=LAZY), tmp_path)
    eager = _python(code.format(preload="import " + ", ".join(LAZY), lazy=LAZY), tmp_path)
    assert lazy.pop("lazy") == list(LAZY)
    eager.pop("lazy")
    assert lazy == eager

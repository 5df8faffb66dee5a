"""The graph-bandwidth sweet spot for semi-supervised regression.

Classification error against a continuum reference traces a U-shaped curve
in the graph bandwidth epsilon.  Too small and the graph disconnects or the
labels cannot propagate; too large and the graph forgets the geometry and
(for pointwise labels) the minimizer degenerates toward spikes.  In between
lies a sweet spot, and as n grows the whole usable window slides toward
smaller epsilon.

This demo runs a reduced sweep (coarse epsilon grid, few seeds) for the
kriging model; the full experiment adds the probit MAP and 20 seeds.

Run:  python3 demos/sweet_spot.py                  (one to two minutes)
"""

from pathlib import Path

import numpy as np

from graphssl.experiments import ExperimentConfig, run

out = Path("demo_output/sweet_spot")
cfg = ExperimentConfig(
    experiment="rates-krige",
    out_dir=out,
    params={"n_values": [400, 1600], "n_seeds": 3, "eps_count": 40},
)
result = run(cfg)

curves = {}
for model, n, eps, mean, sd in result["errors"]:
    curves.setdefault(n, []).append((eps, mean))

for n, pts in curves.items():
    eps = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    finite = np.isfinite(err)
    i_min = int(np.nanargmin(err))
    print(f"n = {n}: best epsilon {eps[i_min]:.3f} "
          f"(error {err[i_min]:.3f}); usable range "
          f"[{eps[finite].min():.3f}, {eps[finite].max():.3f}]")

print("\ndetected sweet-spot bounds (second-difference inflections):")
for model, by_n in result["bounds"].items():
    for n, (lo, hi) in by_n.items():
        print(f"  {model} n={n}: [{lo:.3f}, {hi:.3f}]")

print(f"\nerror curves written to {out}/errors.csv")

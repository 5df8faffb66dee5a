"""Bayesian classification uncertainty on the two-moons density.

Two labeled points, one per moon, and a hard sign-constraint likelihood.
The pCN sampler explores the posterior over the spectral truncation of the
density-weighted continuum operator.  The posterior mean sign recovers the
two clusters; the interesting quantity is the *uncertainty* off the moons:
lowering tau widens the prior's spatial correlation, so certainty (|mean
sign|) spreads farther from the data into the low-density background.

The unsupervised baseline is the Fiedler vector, whose sign pattern already
separates the two moons without any labels.

Run:  python3 demos/two_moons_posterior.py         (about 15 s on a 2-core VM)
"""

from pathlib import Path

import numpy as np

from graphssl.experiments import ExperimentConfig, run

out = Path("demo_output/two_moons")
cfg = ExperimentConfig(
    experiment="mcmc-moons",
    out_dir=out,
    params={"iterations": 20_000, "burn_in": 2_000},
)
result = run(cfg)

print(f"{'alpha':>6} {'tau':>5} {'acceptance':>11} {'off-moon certainty':>19}")
for row in result["summary"]:
    alpha, tau, acc, mp, mm, offc = row
    print(f"{alpha:6.1f} {tau:5.1f} {acc:11.3f} {offc:19.3f}")

print("\nsmaller tau -> longer-range prior -> more certainty off the moons")
print(f"mean-sign fields and the Fiedler vector written to {out}/")

"""Probit and level-set posteriors share a small-noise limit.

Three likelihoods for the same labels: probit (noise inside the sign),
Bayesian level set (noise outside the sign), and the hard sign constraint
(the zero-noise limit of both).  As the noise scale gamma shrinks, the pCN
mean-sign fields of the probit and level-set chains converge to the
indicator chain's field, even though the two objectives behave very
differently at the MAP level (the level-set objective has no minimizer).

This demo uses short chains on a small graph; discrepancies therefore carry
visible Monte Carlo noise, but the downward trend in gamma is clear.

Run:  python3 demos/small_noise_limit.py           (one to two minutes)
"""

from pathlib import Path

from graphssl.experiments import ExperimentConfig, run

out = Path("demo_output/small_noise")
cfg = ExperimentConfig(
    experiment="smallnoise",
    out_dir=out,
    params={"n": 200, "iterations": 50_000, "burn_in": 5_000},
)
report = run(cfg)

print(f"indicator-chain acceptance: {report['indicator_acceptance']:.3f}\n")
print(f"{'model':>9} {'gamma':>8} {'max disc.':>10} {'mean disc.':>11} "
      f"{'excess>3SE':>11}")
for name in ("probit", "levelset"):
    for e in report[name]:
        print(f"{name:>9} {e['gamma']:8.4g} {e['max_discrepancy']:10.4f} "
              f"{e['mean_discrepancy']:11.4f} {e['max_excess_over_3se']:11.4f}")

print("\ndiscrepancy vs the indicator chain shrinks as gamma -> 0")
print("excess>3SE: largest amount by which a node's discrepancy exceeds 3 "
      "combined standard errors (0: every node inside its band)")
print(f"table written to {out}/smallnoise.csv")

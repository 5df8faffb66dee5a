"""Regenerate the stored reference outputs of the benchmark workloads.

    python3 bench/make_reference.py [smoke] [bench] [full]

Runs every workload at the reference seed for the given scales (default: all)
and writes bench/reference/<scale>.json.  The references pin the outputs of
the code they were generated from; regenerate them only when a change to the
outputs is intended, and say so in the change.

Deterministic CSVs are stored as they are.  For the Monte Carlo CSVs the file
also stores, per row and column, the batch-means standard error of the
chains behind it, from `graphssl.posterior.mean_sign_stderr`:

- smallnoise.csv: max_discrepancy gets the largest combined SE over nodes,
  mean_discrepancy the mean combined SE over nodes (combined SE as in
  `small_noise_agreement`: chain and indicator SE added in quadrature);
- summary.csv (mcmc-moons): the SE at each label node, and the mean SE over
  the off-curve nodes for offcurve_certainty.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import spans


def chain_se(chains) -> list:
    from graphssl.posterior import mean_sign_stderr

    return [mean_sign_stderr(c) for c in chains]


def smallnoise_se(rows, chains) -> list:
    # chains: indicator, then probit and level set alternating per gamma
    se = chain_se(chains)
    gammas = [r["gamma"] for r in rows if r["model"] == "probit"]
    out = []
    for row in rows:
        if row["model"] == "indicator":
            out.append({"max_discrepancy": 0.0, "mean_discrepancy": 0.0})
            continue
        k = 1 + 2 * gammas.index(row["gamma"]) + (row["model"] == "levelset")
        comb = np.sqrt(se[k] ** 2 + se[0] ** 2)
        out.append({"max_discrepancy": float(comb.max()),
                    "mean_discrepancy": float(comb.mean())})
    return out


def moons_se(out_dir, rows, chains) -> list:
    from graphssl.continuum import discretize
    from graphssl.density import Density
    from graphssl.labels import Model2Spec
    from graphssl.models import continuum_labeled_nodes

    p = run.resolved_params(out_dir)
    op = discretize(Density("two_moons"), int(p["grid_n"]))
    spec = Model2Spec(points=np.array([run.floats(p["label_plus"]),
                                       run.floats(p["label_minus"])]),
                      signs=np.array([1.0, -1.0]))
    idx, _, _ = continuum_labeled_nodes(op, spec)
    off_curve = op.rho_at_nodes < float(p["offcurve_density"])
    return [{"mean_sign_label_plus": float(se[idx[0]]),
             "mean_sign_label_minus": float(se[idx[1]]),
             "offcurve_certainty": float(se[off_curve].mean())}
            for se in chain_se(chains)]


STORED = {
    "rates-sweep": ("errors.csv",),
    "smallnoise-chains": ("smallnoise.csv",),
    "moons-posterior": ("summary.csv",),
    "channel-map": ("agreement_boundary.csv", "agreement_alpha.csv"),
}


def make(scale: str) -> dict:
    seed = run.REFERENCE_SEED
    reference = {"fingerprint": run.fingerprint(seed, scale), "seed": seed, "workloads": {}}
    for workload in run.WORKLOADS:
        config = run.write_config(workload, scale, seed, f"reference-{scale}")
        out = config.parent / "out"
        tracer = spans.Tracer()
        with tracer:
            seconds, error = run.run_experiment(workload, config, out, tracer)
        if error:
            raise SystemExit(f"{workload} failed at scale {scale}: {error}")
        entry = {name: run.read_rows(out / name) for name in STORED[workload]}
        if workload == "smallnoise-chains":
            entry["se"] = smallnoise_se(entry["smallnoise.csv"], tracer.chains)
        elif workload == "moons-posterior":
            entry["se"] = moons_se(out, entry["summary.csv"], tracer.chains)
        reference["workloads"][workload] = entry
        problems = run.check_outputs(workload, out, seed, reference)
        if problems:
            raise SystemExit(f"{workload} fails its own reference: {problems}")
        print(f"{scale} {workload}: {seconds:.2f} s", file=sys.stderr)
    return reference


def main(scales) -> None:
    sys.path.insert(0, str(run.SRC))
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for scale in scales or run.SCALES:
        path = run.REFERENCE_DIR / f"{scale}.json"
        path.write_text(json.dumps(make(scale), indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])

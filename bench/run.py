"""The graphssl benchmark: four experiment workloads driven through the CLI.

Run from the repository root:

    python3 bench/run.py --workload rates-sweep --seed 0 --seconds 18 --trace 0
    python3 bench/run.py --workload all

Each workload writes an INI config generated from ``--seed`` and calls
``graphssl.cli.main`` in-process with ``threads = 1``, in a closed loop with
one client: the next experiment run starts when the previous one has
finished, until ``--seconds`` have passed.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (setup_s, run_s, peak_rss_mb);
``--trace 1`` runs the experiment once untraced and once under
``spans.Tracer`` and reports the per-layer metrics.  Every experiment run is
an attempted operation; it fails on a nonzero exit code, a NaN sweep cell or
a failed output check.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH / "reference"
REFERENCE_SEED = 0
SCALES = ("smoke", "bench", "full")

# Sizes per scale.  "full" is the size the workloads were specified at;
# "bench" shrinks them so that one experiment run takes a few seconds on a
# 2-core machine while keeping the layer that dominates each workload;
# "smoke" runs the same paths at toy size.
WORKLOADS = {
    "rates-sweep": {
        "experiment": "rates-krige",
        "params": {"models": "krige,probit", "n_seeds": "1", "alpha": "2.0"},
        "smoke": {"n_values": "100", "eps_count": "20", "continuum_grid_n": "64"},
        "bench": {"n_values": "400", "continuum_grid_n": "128"},
        "full": {"n_values": "1600"},
    },
    "smallnoise-chains": {
        "experiment": "smallnoise",
        "params": {},
        "smoke": {"n": "100", "iterations": "2000", "burn_in": "200"},
        "bench": {"iterations": "4000", "burn_in": "400"},
        "full": {"iterations": "50000", "burn_in": "5000"},
    },
    "moons-posterior": {
        "experiment": "mcmc-moons",
        "params": {},
        "smoke": {"grid_n": "40", "modes": "50", "iterations": "1500", "burn_in": "150"},
        "bench": {"grid_n": "64", "modes": "150", "iterations": "10000", "burn_in": "1000"},
        "full": {},
    },
    "channel-map": {
        "experiment": "channel",
        "params": {},
        "smoke": {"grid_n": "32", "h_values": "1.0 0.0", "alpha_values": "1 2"},
        "bench": {"grid_n": "72", "h_values": "1.0 0.0"},
        "full": {},
    },
}

SETUP_REPEATS = {"smoke": 2, "bench": 9, "full": 9}
TRACE_PAIRS = 2  # untraced/traced pairs in a --trace 1 run
# Monte Carlo columns may differ from the reference by this many batch-means SE
MC_SE_MULTIPLE = 5.0
# deterministic columns: admits Newton-tolerance (1e-9) and ulp-level s_n changes
DETERMINISTIC_RTOL = 1e-6
# sign-agreement fractions: at most this many nodes may flip sign
AGREEMENT_NODE_FLIPS = 3

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from graphssl.cli import build_parser
from graphssl.experiments import load_config
args = build_parser().parse_args(sys.argv[2:])
load_config(args.config, experiment=args.experiment, out_dir=args.out,
            seed=args.seed, threads=args.threads, paper_scale=args.paper_scale)
"""


# ---------------------------------------------------------------------------
# inputs


def write_config(workload: str, scale: str, seed: int, directory: str) -> Path:
    """Write the workload's INI config for this seed under WORK; returns its path."""
    spec = WORKLOADS[workload]
    params = {**spec["params"], **spec[scale]}
    if workload == "channel-map" and seed != REFERENCE_SEED:
        # the channel experiment draws nothing at random: vary its geometry
        params["channel_width"] = repr(random.Random(seed).uniform(0.09, 0.11))
    lines = ["[run]", f"seed = {seed}", "threads = 1", "", f"[{spec['experiment']}]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    path = WORK / workload / directory / "config.ini"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def run_experiment(workload: str, config: Path, out: Path, tracer=None):
    """One CLI run; returns (seconds, error message or None)."""
    from graphssl.cli import main

    shutil.rmtree(out, ignore_errors=True)
    argv = [WORKLOADS[workload]["experiment"], "--config", str(config), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(sys.stderr), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.root(main, argv) if tracer else main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark abort
            return time.perf_counter() - start, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}: {err.getvalue().strip()}"
    return seconds, None


def measure_setup(workload: str, config: Path, repeats: int) -> list[float]:
    """Wall times of fresh processes that import graphssl and resolve the config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC),
            WORKLOADS[workload]["experiment"], "--config", str(config)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# output checks


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def resolved_params(out: Path) -> dict:
    parser = configparser.ConfigParser()
    parser.read(out / "config_resolved.ini")
    section = [s for s in parser.sections() if s != "run"][0]
    return dict(parser[section])


def floats(text: str) -> list[float]:
    return [float(v) for v in text.split()]


def _close(value: str, ref: str, tol: float) -> bool:
    if "" in (value, ref):  # an empty cell must stay empty
        return value == ref
    a, b = float(value), float(ref)
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def check_rates(out: Path, ref: dict | None) -> list[str]:
    p = resolved_params(out)
    rows = read_rows(out / "errors.csv")
    problems = []
    expected = (len(p["models"].split(",")) * len(p["n_values"].split())
                * int(p["eps_count"]))
    if len(rows) != expected:
        problems.append(f"errors.csv has {len(rows)} rows, expected {expected}")
    dropped = [r for r in rows if not math.isfinite(float(r["mean_error"]))]
    if dropped:
        problems.append(f"{len(dropped)} NaN sweep cells in errors.csv, first "
                        f"{dropped[0]['model']} eps={dropped[0]['epsilon']}")
    if any(float(r["mean_error"]) < 0 for r in rows):
        problems.append("negative error in errors.csv")
    if ref is not None:
        problems += compare_rows(rows, ref["errors.csv"], "errors.csv", ("model", "n"),
                                 {c: DETERMINISTIC_RTOL
                                  for c in ("epsilon", "mean_error", "sd_error")},
                                 relative=True)
    return problems


def check_channel(out: Path, ref: dict | None) -> list[str]:
    import numpy as np

    p = resolved_params(out)
    hs, alphas = floats(p["h_values"]), floats(p["alpha_values"])
    nodes = int(p["grid_n"]) ** 2
    r = float(p["label_radius"])
    problems = []
    boundary = read_rows(out / "agreement_boundary.csv")
    pairs = read_rows(out / "agreement_alpha.csv")
    if len(boundary) != len(hs) * len(alphas):
        problems.append(f"agreement_boundary.csv has {len(boundary)} rows")
    if len(pairs) != len(hs) * len(alphas) * (len(alphas) - 1) // 2:
        problems.append(f"agreement_alpha.csv has {len(pairs)} rows")
    for row in boundary + pairs:
        for col in ("diag_agreement", "vert_agreement", "sign_agreement"):
            if col in row and not 0.0 <= float(row[col]) <= 1.0:
                problems.append(f"{col}={row[col]} outside [0, 1]")
    for h in hs:
        for a in alphas:
            name = f"field_h{h:g}_alpha{a:g}.csv"
            if not (out / name).exists():
                problems.append(f"missing {name}")
                continue
            x1, x2, u, s = np.loadtxt(out / name, delimiter=",", skiprows=1, unpack=True)
            if len(u) != nodes or not np.all(np.isfinite(u)):
                problems.append(f"{name}: {len(u)} values, not {nodes} finite ones")
            for (c1, c2), label in (((0.25, 0.25), 1.0), ((0.75, 0.75), -1.0)):
                inside = (x1 - c1) ** 2 + (x2 - c2) ** 2 <= r * r
                if np.any(s[inside] != label):
                    problems.append(f"{name}: sign differs from label {label:+g} "
                                    f"at {int(np.sum(s[inside] != label))} labeled nodes")
    if ref is not None:
        tol = AGREEMENT_NODE_FLIPS / nodes
        problems += compare_rows(boundary, ref["agreement_boundary.csv"],
                                 "agreement_boundary.csv", ("h", "alpha"),
                                 {"diag_agreement": tol, "vert_agreement": tol})
        problems += compare_rows(pairs, ref["agreement_alpha.csv"], "agreement_alpha.csv",
                                 ("h", "alpha_i", "alpha_j"), {"sign_agreement": tol})
    return problems


def check_smallnoise(out: Path, ref: dict | None) -> list[str]:
    p = resolved_params(out)
    rows = read_rows(out / "smallnoise.csv")
    problems = []
    if len(rows) != 1 + 2 * len(p["gammas"].split()):
        problems.append(f"smallnoise.csv has {len(rows)} rows")
    for row in rows:
        if not 0.0 < float(row["acceptance"]) <= 1.0:
            problems.append(f"{row['model']} gamma={row['gamma']}: acceptance "
                            f"{row['acceptance']} outside (0, 1]")
        if row["model"] == "indicator":
            continue
        hi, mean = float(row["max_discrepancy"]), float(row["mean_discrepancy"])
        if not (0.0 <= mean <= hi <= 2.0):
            problems.append(f"{row['model']} gamma={row['gamma']}: discrepancies "
                            f"mean={mean} max={hi} not ordered within [0, 2]")
    if ref is not None:
        problems += compare_mc(rows, ref, "smallnoise.csv", ("model", "gamma"),
                               ("max_discrepancy", "mean_discrepancy"))
    return problems


def check_moons(out: Path, ref: dict | None) -> list[str]:
    p = resolved_params(out)
    rows = read_rows(out / "summary.csv")
    problems = []
    if len(rows) != len(p["alpha_values"].split()) * len(p["tau_values"].split()):
        problems.append(f"summary.csv has {len(rows)} rows")
    for row in rows:
        tag = f"alpha={row['alpha']} tau={row['tau']}"
        if not 0.0 < float(row["acceptance"]) <= 1.0:
            problems.append(f"{tag}: acceptance {row['acceptance']} outside (0, 1]")
        if not (float(row["mean_sign_label_plus"]) > 0 > float(row["mean_sign_label_minus"])):
            problems.append(f"{tag}: mean sign at a label differs from the label's sign")
        if not 0.0 <= float(row["offcurve_certainty"]) <= 1.0:
            problems.append(f"{tag}: offcurve_certainty outside [0, 1]")
        name = f"moons_alpha{float(row['alpha']):g}_tau{float(row['tau']):g}.csv"
        if not (out / name).exists():
            problems.append(f"missing {name}")
    if not (out / "fiedler.csv").exists():
        problems.append("missing fiedler.csv")
    if ref is not None:
        problems += compare_mc(rows, ref, "summary.csv", ("alpha", "tau"),
                               ("mean_sign_label_plus", "mean_sign_label_minus",
                                "offcurve_certainty"))
    return problems


CHECKS = {
    "rates-sweep": check_rates,
    "smallnoise-chains": check_smallnoise,
    "moons-posterior": check_moons,
    "channel-map": check_channel,
}


def compare_rows(rows, ref_rows, name, keys, tolerances, relative=False) -> list[str]:
    """Rows must match the reference's keys and be within tolerance per column."""
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if any(row[k] != ref[k] for k in keys):
            problems.append(f"{name}: row {[row[k] for k in keys]} where the "
                            f"reference has {[ref[k] for k in keys]}")
            continue
        for col, tol in tolerances.items():
            limit = tol * abs(float(ref[col])) + 1e-12 if relative else tol
            if not _close(row[col], ref[col], limit):
                problems.append(f"{name}: {col}={row[col]} at {[row[k] for k in keys]}, "
                                f"reference {ref[col]} (tolerance {limit:.3g})")
    return problems


def compare_mc(rows, ref, name, keys, columns) -> list[str]:
    """Monte Carlo columns within MC_SE_MULTIPLE reference standard errors."""
    tolerances = [{c: MC_SE_MULTIPLE * se[c] for c in columns} for se in ref["se"]]
    if len(rows) != len(ref[name]):
        return [f"{name}: {len(rows)} rows, reference has {len(ref[name])}"]
    if len(tolerances) != len(rows):
        return [f"{name}: the reference has standard errors for {len(tolerances)} "
                f"of its {len(rows)} rows"]
    problems = []
    for row, ref_row, tol in zip(rows, ref[name], tolerances):
        problems += compare_rows([row], [ref_row], name, keys, tol)
    return problems


def same_outputs(out: Path, first: Path) -> list[str]:
    """Reruns of one config must write byte-identical CSV files."""
    names = sorted(p.name for p in out.glob("*.csv"))
    if names != sorted(p.name for p in first.glob("*.csv")):
        return [f"rerun wrote files {names}, the first run others"]
    differ = [n for n in names if (out / n).read_bytes() != (first / n).read_bytes()]
    return [f"rerun output differs from the first run in {differ}"] if differ else []


def load_reference(scale: str) -> dict | None:
    path = REFERENCE_DIR / f"{scale}.json"
    return json.loads(path.read_text()) if path.exists() else None


def check_outputs(workload: str, out: Path, seed: int, reference: dict | None) -> list[str]:
    ref = reference["workloads"][workload] if reference and seed == REFERENCE_SEED else None
    try:
        return CHECKS[workload](out, ref)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


# ---------------------------------------------------------------------------
# environment


def _openblas(lib_dir: Path) -> list[dict]:
    found = []
    for lib in sorted(lib_dir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        entry = {"library": lib.name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}get_config{suffix}", None)
                if threads and config:
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        found.append(entry)
    return found


def fingerprint(seed: int, scale: str) -> dict:
    import numpy
    import scipy

    blas = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        blas += [{"package": pkg.__name__, **e} for e in _openblas(libs)]
    source = hashlib.sha256()
    for path in sorted((SRC / "graphssl").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "commit": git_commit(),
        "src_sha256": source.hexdigest(),
        "workload_seed": seed,
        "scale": scale,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint_drift(current: dict, reference: dict | None) -> dict:
    if not reference:
        return {}
    keys = ("nproc", "python", "numpy", "scipy", "blas")
    return {k: {"reference": reference["fingerprint"].get(k), "now": current[k]}
            for k in keys if reference["fingerprint"].get(k) != current[k]}


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    import spans  # the benchmark's tracer, next to this file

    workload, scale, seed = args.workload, args.scale, args.seed
    reference = load_reference(scale)
    config = write_config(workload, scale, seed, scale)
    base = config.parent
    problems, attempted, failed = [], 0, 0

    def attempt(out: Path, check, run_config: Path = config, tracer=None) -> float:
        """One experiment run, an operation: run it, check its outputs, count it."""
        nonlocal attempted, failed
        with tracer or contextlib.nullcontext():
            seconds, error = run_experiment(workload, run_config, out, tracer)
        attempted += 1
        found = [error] if error else check(out)
        if found:
            failed += 1
            problems.extend(f"{out.relative_to(WORK)}: {p}" for p in found)
        return seconds

    def checked(out: Path) -> list[str]:
        return check_outputs(workload, out, seed, reference)

    def same_as(first: Path):
        return lambda out: same_outputs(out, first)

    if scale != "smoke" or seed != REFERENCE_SEED:
        # The stored smoke reference is checked on every run, whatever the
        # seed.  Running it first also lets lazy imports and first-call set-up
        # finish before anything is timed.
        smoke = write_config(workload, "smoke", REFERENCE_SEED, "reference-check")
        smoke_reference = load_reference("smoke")
        attempt(smoke.parent / "out", lambda out: check_outputs(
            workload, out, REFERENCE_SEED, smoke_reference), smoke)

    if args.trace:
        # alternate untraced and traced runs; tracing must not change outputs
        untraced, traced, first = [], [], base / "untraced0"
        for k in range(TRACE_PAIRS):
            untraced.append(attempt(base / f"untraced{k}", same_as(first) if k else checked))
            tracer = spans.Tracer()
            traced.append(attempt(base / f"traced{k}", same_as(first), tracer=tracer))
            found = tracer.check(traced[-1])
            if found:
                failed += 1
                problems.extend(found)
        csvs = list((base / f"traced{TRACE_PAIRS - 1}").glob("*.csv"))
        layer = tracer.metrics(traced[-1], len(csvs), sum(p.stat().st_size for p in csvs))
        layer["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        samples = {"untraced_s": untraced, "traced_s": traced}
        metrics = {name: {"value": layer[name], "unit": spans.unit(name)}
                   for name in spans.METRICS}
        (base / "spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "tag", "start", "end", "parent"],
             "spans": tracer.spans, "missing": tracer.missing}))
    else:
        setup = measure_setup(workload, config, SETUP_REPEATS[scale])
        times, start = [], time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            out = base / f"run{len(times)}"
            times.append(attempt(out, same_as(base / "run0") if times else checked))
            if len(times) > 1:
                shutil.rmtree(out)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        samples = {"setup_s": setup, "run_s": times}

    env = fingerprint(seed, scale)
    drift = fingerprint_drift(env, reference)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (base / f"result-trace{int(args.trace)}.json").write_text(json.dumps(
        {**result, "workload": workload, "fingerprint": env, "fingerprint_drift": drift,
         "samples": samples, "problems": problems}, indent=1))

    print(f"workload {workload}  scale {scale}  seed {seed}  trace {int(args.trace)}")
    print("fingerprint " + json.dumps(env))
    for name, values in samples.items():
        print(f"  {name} samples: {[round(v, 4) for v in values]}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    if problems and drift:
        print("the environment differs from the reference's: " + json.dumps(drift))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)), "--scale", args.scale]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(done.stdout, end="")
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        frac = result["failed"] / result["attempted"]
        shown = [f"{n} {m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items()]
        print(f"{workload:18s} " + "  ".join(shown) + f"  fail_frac {frac:.4g} ratio")
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="workload seed; reference outputs exist for the default")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="length of the closed loop of experiment runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench")
    args = parser.parse_args(argv)
    if not (SRC / "graphssl" / "__init__.py").is_file():
        print(f"error: no graphssl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphssl

    if Path(graphssl.__file__).resolve().parent != SRC / "graphssl":
        print(f"error: imported graphssl from {graphssl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Experiment drivers: parameter sweeps, CSV emission, and configuration.

Seven experiments are provided, each deterministic given (config, seed):

- ``channel``       MAP classification under a density with a vertical channel
- ``rates-krige``   discrete-vs-continuum error sweeps for kriging
- ``rates-probit``  the same sweeps for the probit MAP
- ``extrapolation`` kriging smoothness/spike study across fractional orders
- ``mcmc-moons``    pCN sign-posterior sampling on the two-moons density
- ``spectra``       graph vs continuum vs analytic spectra and Weyl slopes
- ``smallnoise``    probit/level-set/indicator chain agreement as noise -> 0

Configuration is an INI-style text file (key = value under a section named
after the experiment); every key has a documented default, and the resolved
configuration is echoed into the output directory.  Desk-scale defaults keep
runtimes CI-friendly; ``paper_scale`` restores the larger study sizes.
"""

from __future__ import annotations

import configparser
import csv
import shutil
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from graphssl.continuum import (Grid, discretize, fiedler_vector, interpolate_to_points,
                                uniform_spectrum)
from graphssl.density import Density, DomainError, sample_cloud
from graphssl.graph import EpsilonSweep, build_graph, laplacian
from graphssl.labels import Ball, LabelValidationError, Model1Spec, Model2Spec, assign_labels, sign
from graphssl.models import (
    IndicatorPotential,
    PoweredFactor,
    ProbitPotential,
    continuum_krige,
    continuum_labeled_nodes,
    continuum_probit_map,
    factored,
    krige,
    probit_map,
    sparse_krige,
    sparse_probit_map,
)
from graphssl.posterior import (
    PcnConfig,
    classification_stats,
    run_pcn_chains,
    small_noise_agreement,
)
from graphssl.spectral import (
    DENSE_CUTOFF,
    EigensolverError,
    FractionalOperator,
    decompose,
    decompose_graph,
    weyl_exponent,
)

EXPERIMENT_IDS = (
    "channel", "rates-krige", "rates-probit", "extrapolation",
    "mcmc-moons", "spectra", "smallnoise",
)

# fixed study settings, not config keys
SMOOTHING_WINDOW = 5  # rates: width of the moving average before bound detection
EPS_LOW_ALPHA = 0.136  # extrapolation, alpha <= d/2: ~ twice the connectivity radius at n=1600
EPS_HIGH_ALPHA = 0.15  # extrapolation, alpha > d/2: near the sweet spot of the rate sweeps
SPIKE_THRESHOLD = 0.05  # extrapolation: |u| below this at an unlabeled node counts as spiked
SPECTRA_K_MAX = 10  # spectra: eigenvalues compared with the analytic ones
GRAPH_WEYL_K_MIN, GRAPH_WEYL_K_MAX = 5, 40  # spectra: graph Weyl fit range (1-based k)


class ConfigError(ValueError):
    """Invalid experiment id, unknown key, or out-of-range parameter."""


# what refuses a config or its labels: the CLI's exit code 2
REFUSALS = (ConfigError, LabelValidationError, DomainError)

# a config file's [run] keys, in the order the echo writes them; seed,
# threads and paper_scale take ExperimentConfig's defaults
RUN_KEYS = ("experiment", "seed", "threads", "paper_scale", "out")


# ---------------------------------------------------------------------------
# configuration


def _defaults(experiment: str, paper_scale: bool) -> dict:
    if experiment == "channel":
        return {
            "grid_n": 256 if paper_scale else 128,
            "h_values": [1.0, 0.75, 0.5, 0.25, 0.0],
            "alpha_values": [1.0, 2.0, 3.0],
            "tau": 10.0,
            "gamma": 0.01,
            "channel_width": 0.1,
            "label_radius": 0.05,
        }
    if experiment in ("rates-krige", "rates-probit"):
        return {
            "models": "krige" if experiment == "rates-krige" else "probit",
            "n_values": [100, 200, 400, 800, 1600],
            "n_seeds": 200 if paper_scale else 20,
            "eps_min": 0.005,
            "eps_max": 0.5,
            "eps_count": 100,
            "alpha": 2.0,
            "tau": 1.0,
            "gamma": 0.01,
            "continuum_grid_n": 256,
            "label_plus": [0.25, 0.25],
            "label_minus": [0.75, 0.75],
        }
    if experiment == "extrapolation":
        return {
            "n": 1600,
            "tau": 1.0,
            "alpha_values": [0.5, 1.0, 1.5, 2.0],
            "label_plus": [0.25, 0.25],
            "label_minus": [0.75, 0.75],
        }
    if experiment == "mcmc-moons":
        return {
            "grid_n": 200 if paper_scale else 100,
            "modes": 500 if paper_scale else 300,
            "alpha_values": [2.0, 3.0, 4.0],
            "tau_values": [1.0, 0.2],
            "beta": 0.4,
            "iterations": 100_000 if paper_scale else 30_000,
            "burn_in": 10_000 if paper_scale else 3_000,
            "thinning": 10,
            "label_plus": [0.35, 0.70],
            "label_minus": [0.65, 0.30],
            "offcurve_density": 1.5,  # nodes with rho below this are off-curve
        }
    if experiment == "spectra":
        return {
            "n_values": [400, 1600],
            "n_seeds": 10,
            "eps": 0.12,
            "continuum_grid_n": 64,
            "weyl_grid_n_3d": 16,
            "cont_weyl_k_min": 50,
            "cont_weyl_k_max": 200,
        }
    if experiment == "smallnoise":
        return {
            "n": 400,
            "eps": 0.2,
            "alpha": 2.0,
            "tau": 0.5,
            "gammas": [1.0, 0.1, 0.01, 1e-4],
            "beta": 0.4,
            "iterations": 200_000,
            "burn_in": 20_000,
            "thinning": 10,
            "batches": 8,
            "label_plus": [0.25, 0.25],
            "label_minus": [0.75, 0.75],
        }
    raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENT_IDS}")


def _models(p: dict) -> list[str]:
    """The rates models that ``p["models"]`` names, in order."""
    return [m.strip() for m in str(p["models"]).split(",")]


def _pcn_config(p: dict) -> PcnConfig:
    """The chains' PcnConfig (mcmc-moons keeps its default ``batches``)."""
    keys = ("beta", "iterations", "burn_in", "thinning", "batches")
    return PcnConfig(**{k: p[k] for k in keys if k in p})


@dataclass
class ExperimentConfig:
    """A fully-resolved experiment configuration."""

    experiment: str
    out_dir: Path
    seed: int = 0
    threads: int = 1  # validated and echoed; sweep points run serially
    paper_scale: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        defaults = _defaults(self.experiment, self.paper_scale)
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)} "
                              f"for experiment {self.experiment!r}")
        merged = dict(defaults)
        merged.update(self.params)
        self.params = merged
        self._validate()

    def _validate(self):
        p, e = self.params, self.experiment
        for key, value in p.items():
            if not isinstance(value, str) and not np.all(np.isfinite(np.asarray(value, float))):
                raise ConfigError(f"{key} must be finite")
        # at tau = 0 the kriging and MAP operators are singular
        for key in ("alpha", "alpha_values", "tau", "tau_values", "eps", "gamma", "gammas"):
            if key in p and not np.all(np.asarray(p[key]) > 0):
                raise ConfigError(f"{key} must be positive")
        # spectra reads SPECTRA_K_MAX eigenvalues of each graph
        least = {"n": 4, "n_values": SPECTRA_K_MAX if e == "spectra" else 4, "eps_count": 3,
                 "n_seeds": 1, "thinning": 1, "batches": 1, "modes": 1, "burn_in": 0,
                 "grid_n": 8, "continuum_grid_n": 8, "weyl_grid_n_3d": 8}
        for key, low in least.items():
            if key in p and not np.all(np.asarray(p[key]) >= low):
                raise ConfigError(f"{key} must be at least {low}")
        # every domain with labeled points is the unit square
        for key in ("label_plus", "label_minus"):
            if key in p and len(p[key]) != 2:
                raise ConfigError(f"{key} must have 2 coordinates")
        if "eps_min" in p and not 0 < p["eps_min"] < p["eps_max"]:
            raise ConfigError("need 0 < eps_min < eps_max")
        if "channel_width" in p and not 0 < p["channel_width"] < 1:
            raise ConfigError("channel_width must lie in (0, 1)")
        if "iterations" in p:
            try:
                kept = _pcn_config(p).kept
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if kept < 100:  # the states classification_stats needs
                raise ConfigError(f"the chains keep {kept} states; at least 100 are needed")
        # the node counts of the operators whose every eigenpair the run
        # takes, which only the dense eigensolver gives
        full = []
        if e in ("extrapolation", "smallnoise"):
            full = [p["n"]]
        elif e in ("rates-krige", "rates-probit") and not factored(p["alpha"]):
            full = [*p["n_values"], p["continuum_grid_n"] ** 2]
        elif e == "channel" and not all(map(factored, p["alpha_values"])):
            full = [p["grid_n"] ** 2]
        elif e == "mcmc-moons" and p["modes"] >= p["grid_n"] ** 2:
            full = [p["grid_n"] ** 2]
        elif e == "spectra":
            k_min, k_max = p["cont_weyl_k_min"], p["cont_weyl_k_max"]
            nodes = [p["continuum_grid_n"] ** 2, p["weyl_grid_n_3d"] ** 3]
            # the continuum Weyl fits take cont_weyl_k_max + 5 eigenvalues
            if k_min < 2 or k_max - k_min < 4 or k_max + 5 > min(nodes):
                raise ConfigError(f"the continuum Weyl fit needs 2 <= cont_weyl_k_min <= "
                                  f"cont_weyl_k_max - 4 and cont_weyl_k_max + 5 <= "
                                  f"{min(nodes)}, the nodes of the smaller grid")
        if e == "mcmc-moons" and p["modes"] > p["grid_n"] ** 2:
            raise ConfigError(f"modes = {p['modes']} exceeds the {p['grid_n'] ** 2} "
                              f"nodes of the grid")
        if max(full, default=0) > DENSE_CUTOFF:
            raise ConfigError(f"the run takes the full spectrum of an operator on "
                              f"{max(full)} nodes; the dense eigensolver takes at most "
                              f"{DENSE_CUTOFF}")
        # a repeated sweep value would run again and write its rows or files twice
        sweeps = {k: p[k] for k in ("h_values", "alpha_values", "tau_values", "n_values",
                                    "gammas") if k in p}
        if "models" in p:
            sweeps["models"] = _models(p)
            for m in sweeps["models"]:
                if m not in ("krige", "probit"):
                    raise ConfigError(f"unknown rates model {m!r}")
        for key, values in sweeps.items():
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats a value: {' '.join(map(_fmt, values))}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


def _parse_value(raw: str, default):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, list):
            items = [s for s in raw.replace(",", " ").split() if s]
            if default and isinstance(default[0], int):
                return [int(s) for s in items]
            return [float(s) for s in items]
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse config value {raw!r}") from exc


def load_config(path, experiment: str | None = None, out_dir=None,
                seed: int | None = None, threads: int | None = None,
                paper_scale: bool | None = None) -> ExperimentConfig:
    """Load an INI-style config file and resolve it against the defaults.

    The file holds sections named after experiments and an optional
    ``[run]`` section with the keys RUN_KEYS; any other section or ``[run]``
    key is refused.  Keyword arguments override file values, and what
    neither sets takes ExperimentConfig's default.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"config file not found: {path}")
    unknown = [s for s in parser.sections() if s != "run" and s not in EXPERIMENT_IDS]
    if unknown:
        raise ConfigError(f"unknown config sections {unknown}; "
                          f"choose from {('run', *EXPERIMENT_IDS)}")
    run = dict(parser["run"]) if parser.has_section("run") else {}
    unknown = sorted(set(run) - set(RUN_KEYS))
    if unknown:
        raise ConfigError(f"unknown [run] keys {unknown}; choose from {RUN_KEYS}")
    experiment = experiment or run.get("experiment")
    if experiment is None:
        sections = [s for s in parser.sections() if s in EXPERIMENT_IDS]
        if len(sections) != 1:
            raise ConfigError("experiment not specified and not inferable from config")
        experiment = sections[0]
    # each field's default gives the type to parse; keyword arguments beat the file
    settings = {k: _parse_value(run[k], getattr(ExperimentConfig, k))
                for k in ("seed", "threads", "paper_scale") if k in run}
    given = {"seed": seed, "threads": threads, "paper_scale": paper_scale}
    settings.update((k, v) for k, v in given.items() if v is not None)
    if out_dir is None:
        out_dir = run.get("out", f"results/{experiment}")

    defaults = _defaults(experiment, settings.get("paper_scale", ExperimentConfig.paper_scale))
    params = {}
    if parser.has_section(experiment):
        # ExperimentConfig rejects unknown keys; they stay strings here
        for key, raw in parser[experiment].items():
            params[key] = _parse_value(raw, defaults.get(key))
    return ExperimentConfig(experiment=experiment, out_dir=out_dir, params=params, **settings)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path, header, rows) -> None:
    """Header plus rows; a float ndarray is written row by row with the same
    bytes that `_fmt` and csv.writer give, without per-cell Python calls."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            f.writelines(",".join(map("{:.17g}".format, row)) + "\r\n"
                         for row in rows.tolist())
        else:
            for row in rows:
                w.writerow([_fmt(v) for v in row])


def _echo_config(cfg: ExperimentConfig) -> None:
    parser = configparser.ConfigParser()
    run = (cfg.experiment, cfg.seed, cfg.threads, str(cfg.paper_scale).lower(), cfg.out_dir)
    parser["run"] = dict(zip(RUN_KEYS, map(str, run)))
    parser[cfg.experiment] = {
        k: " ".join(_fmt(x) for x in v) if isinstance(v, list) else _fmt(v)
        for k, v in sorted(cfg.params.items())
    }
    with open(cfg.out_dir / "config_resolved.ini", "w") as f:
        parser.write(f)


def _point_seed(base: int, *indices: int) -> int:
    """Deterministic per-sweep-point seed from the base seed and indices."""
    s = np.random.SeedSequence([base, *indices])
    return int(s.generate_state(1)[0])


# ---------------------------------------------------------------------------
# channel


def run_channel(cfg: ExperimentConfig) -> dict:
    """MAP classification on the channel density across depths and orders.

    Emits one field CSV per (h, alpha) plus boundary/cross-order agreement
    summaries.  Returns the summary as a dict for programmatic use.
    """
    p = cfg.params
    spec = Model1Spec(
        omega_plus=Ball((0.25, 0.25), p["label_radius"]),
        omega_minus=Ball((0.75, 0.75), p["label_radius"]),
    )
    boundary_rows, pair_rows = [], []
    for h in p["h_values"]:
        rho = Density("channel", h=h, width=p["channel_width"])
        op = discretize(rho, p["grid_n"])
        idx, y, w = continuum_labeled_nodes(op, spec)
        pot = ProbitPotential(gamma=p["gamma"], indices=idx, y=y, weights=w)
        coords = op.grid.coordinates()
        fields = {alpha: continuum_probit_map(op, alpha=alpha, tau=p["tau"], pot=pot)
                  for alpha in p["alpha_values"]}
        diag = np.where(coords[:, 0] + coords[:, 1] < 1.0, 1.0, -1.0)
        vert = np.where(coords[:, 0] < 0.5, 1.0, -1.0)
        for alpha, u in fields.items():
            _write_csv(cfg.out_dir / f"field_h{h:g}_alpha{alpha:g}.csv",
                       ["x1", "x2", "u", "sign"], np.column_stack([coords, u, sign(u)]))
            s = sign(u)
            boundary_rows.append([h, alpha,
                                  float(np.mean(s == diag)), float(np.mean(s == vert))])
        alphas = list(fields)
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                agree = float(np.mean(sign(fields[alphas[i]]) == sign(fields[alphas[j]])))
                pair_rows.append([h, alphas[i], alphas[j], agree])

    _write_csv(cfg.out_dir / "agreement_boundary.csv",
               ["h", "alpha", "diag_agreement", "vert_agreement"], boundary_rows)
    _write_csv(cfg.out_dir / "agreement_alpha.csv",
               ["h", "alpha_i", "alpha_j", "sign_agreement"], pair_rows)
    return {"boundary": boundary_rows, "pairs": pair_rows}


# ---------------------------------------------------------------------------
# rates


def _detect_bounds(eps: np.ndarray, err: np.ndarray, window: int):
    """Sweet-spot bounds: second-difference sign changes of the smoothed curve.

    The error curve is averaged with a centered moving window, then the lower
    (upper) bound is the last (first) sign change of the second difference
    below (above) the interior minimum.  Returns (eps_lower, eps_upper); a
    missing bound is nan.
    """
    valid = np.isfinite(err)
    eps, err = eps[valid], err[valid]
    if len(err) < max(window + 2, 5):
        return float("nan"), float("nan")
    kernel = np.ones(window) / window
    sm = np.convolve(err, kernel, mode="valid")
    off = (window - 1) // 2
    eps_sm = eps[off:off + len(sm)]
    i_min = int(np.argmin(sm))
    d2 = np.diff(sm, 2)  # d2[i] is the curvature at sm[i+1]
    signs = np.sign(d2)
    changes = np.flatnonzero(signs[1:] * signs[:-1] < 0) + 1  # curvature index
    lower = upper = float("nan")
    below = changes[changes + 1 < i_min]
    above = changes[changes + 1 > i_min]
    if len(below):
        lower = float(eps_sm[below[-1] + 1])
    if len(above):
        upper = float(eps_sm[above[0] + 1])
    return lower, upper


def _two_labels(p: dict) -> Model2Spec:
    """Model-2 labels: +1 at ``label_plus`` and -1 at ``label_minus``."""
    return Model2Spec(points=np.array([p["label_plus"], p["label_minus"]]),
                      signs=np.array([1.0, -1.0]))


def _continuum_references(models: list, p: dict) -> tuple:
    """The continuum kriging and probit fields of each model on one grid; at
    integer alpha the operator's one factor serves both, a `CosineFactor`
    (the grid's density is uniform), so no reference factors a matrix."""
    op = discretize(Density("uniform"), p["continuum_grid_n"])
    idx, y, w = continuum_labeled_nodes(op, _two_labels(p))
    refs = {}
    for m in models:
        if m == "krige":
            refs[m] = continuum_krige(op, p["alpha"], p["tau"], idx, y)
        else:
            pot = ProbitPotential(gamma=p["gamma"], indices=idx, y=y, weights=w)
            refs[m] = continuum_probit_map(op, p["alpha"], p["tau"], pot)
    return op.grid, refs


def run_rates(cfg: ExperimentConfig) -> dict:
    """Discrete-vs-continuum error sweeps over (n, epsilon) for kriging/probit.

    `EpsilonSweep` builds the operators s_n L of a cloud's sweep.  At integer
    alpha one factorization of s_n L + tau^2 I per sweep point is shared by
    all requested models; otherwise one full-graph eigendecomposition of
    s_n L per sweep point is.  Emits seed-averaged error curves, detected
    sweet-spot bounds per n, and log-log fits of the bounds against n.  A sweep point
    whose eigensolve or model solve fails is left out of the averages and
    listed in ``result["dropped"]`` as {n, seed (of its cloud), epsilon,
    model, exception}.
    """
    p = cfg.params
    models = _models(p)
    eps_grid = np.linspace(p["eps_min"], p["eps_max"], p["eps_count"])
    grid, refs = _continuum_references(models, p)
    spec = _two_labels(p)
    dropped = []

    def drop(n, seed, eps, ms, exc):
        for m in ms:
            dropped.append({"n": n, "seed": seed, "epsilon": float(eps), "model": m,
                            "exception": f"{type(exc).__name__}: {exc}"})

    if factored(p["alpha"]):
        def prior_of(base):
            # takes base over; factored on first use, it serves every model
            return PoweredFactor(base, int(p["alpha"]), p["tau"])
        solve_krige, solve_probit = sparse_krige, sparse_probit_map
    else:
        def prior_of(base):
            return FractionalOperator(decompose(base), alpha=p["alpha"], tau=p["tau"])
        solve_krige, solve_probit = krige, probit_map

    def sweep_seed(n, seed_idx):
        seed = _point_seed(cfg.seed, n, seed_idx)
        points = sample_cloud(Density("uniform"), n - 2, seed=seed)
        points, labels = assign_labels(points, spec)
        pot = ProbitPotential.for_graph(labels, p["gamma"])
        solvers = {"krige": lambda prior: solve_krige(prior, labels.indices, labels.y),
                   "probit": lambda prior: solve_probit(prior, pot)}
        # the empirical L^2 error of discrete_vs_continuum_error, with each
        # reference interpolated at the points once
        at_points = {m: interpolate_to_points(grid, refs[m], points) for m in models}
        errs = {m: np.full(len(eps_grid), np.nan) for m in models}
        sweep = EpsilonSweep(points, eps_grid)
        for k, eps in enumerate(eps_grid):
            base = sweep.scaled_laplacian(eps)
            try:
                prior = prior_of(base)
            except (EigensolverError, np.linalg.LinAlgError) as exc:
                drop(n, seed, eps, models, exc)
                continue
            for m in models:
                try:
                    u = solvers[m](prior)
                    errs[m][k] = float(np.sqrt(np.mean((u - at_points[m]) ** 2)))
                except (ValueError, RuntimeError) as exc:
                    drop(n, seed, eps, [m], exc)
        return errs

    err_rows, bound_rows = [], []
    bounds = {m: {} for m in models}
    for n in p["n_values"]:
        results = [sweep_seed(n, s) for s in range(p["n_seeds"])]
        for m in models:
            stack = np.vstack([r[m] for r in results])
            mean = np.nanmean(stack, axis=0)
            sd = np.nanstd(stack, axis=0)
            for k, eps in enumerate(eps_grid):
                err_rows.append([m, n, eps, mean[k], sd[k]])
            lo, hi = _detect_bounds(eps_grid, mean, SMOOTHING_WINDOW)
            bounds[m][n] = (lo, hi)
            bound_rows.append([m, n, lo, hi])

    fit_rows = []
    for m in models:
        for which, pick in (("lower", 0), ("upper", 1)):
            ns = [n for n in p["n_values"] if np.isfinite(bounds[m][n][pick])]
            if len(ns) >= 2:
                x = np.log([float(n) for n in ns])
                yv = np.log([bounds[m][n][pick] for n in ns])
                slope, intercept = np.polyfit(x, yv, 1)
                fit_rows.append([m, which, float(slope), float(intercept)])

    _write_csv(cfg.out_dir / "errors.csv",
               ["model", "n", "epsilon", "mean_error", "sd_error"], err_rows)
    _write_csv(cfg.out_dir / "bounds.csv",
               ["model", "n", "eps_lower", "eps_upper"], bound_rows)
    _write_csv(cfg.out_dir / "fits.csv",
               ["model", "bound", "slope", "intercept"], fit_rows)
    return {"eps": eps_grid, "errors": err_rows, "bounds": bounds, "fits": fit_rows,
            "dropped": dropped}


# ---------------------------------------------------------------------------
# extrapolation


def run_extrapolation(cfg: ExperimentConfig) -> dict:
    """Kriging interpolants of two labels across fractional orders.

    For orders at or below d/2 the interpolant degenerates to spikes at the
    labeled points; the spike score is the fraction of unlabeled nodes with
    |u| below SPIKE_THRESHOLD.
    """
    p = cfg.params
    points = sample_cloud(Density("uniform"), p["n"] - 2, seed=_point_seed(cfg.seed, 0))
    points, labels = assign_labels(points, _two_labels(p))
    unlabeled = np.setdiff1d(np.arange(len(points)), labels.indices)

    d = points.shape[1]
    eigs = {}
    rows = []
    scores = {}
    for alpha in p["alpha_values"]:
        eps = EPS_LOW_ALPHA if alpha <= d / 2 else EPS_HIGH_ALPHA
        if eps not in eigs:
            eigs[eps] = decompose_graph(build_graph(points, eps))
        prior = FractionalOperator(eigs[eps], alpha=alpha, tau=p["tau"])
        u = krige(prior, labels.indices, labels.y)
        score = float(np.mean(np.abs(u[unlabeled]) < SPIKE_THRESHOLD))
        scores[alpha] = score
        rows.append([alpha, eps, score])
        _write_csv(cfg.out_dir / f"field_alpha{alpha:g}.csv",
                   [*(f"x{i+1}" for i in range(d)), "u"],
                   np.column_stack([points, u]))
    _write_csv(cfg.out_dir / "spikes.csv", ["alpha", "epsilon", "spike_score"], rows)
    return {"scores": scores}


# ---------------------------------------------------------------------------
# mcmc-moons


def run_mcmc_moons(cfg: ExperimentConfig) -> dict:
    """Sign-posterior pCN sampling on the two-moons density.

    Chains target the indicator (hard-constraint) potential over the spectral
    truncation of the continuum operator; emits mean-sign/variance fields per
    (alpha, tau), the Fiedler vector, and a summary of chain statistics.
    """
    p = cfg.params
    rho = Density("two_moons")
    op = discretize(rho, p["grid_n"])
    off_curve = op.rho_at_nodes < p["offcurve_density"]
    if not off_curve.any():
        raise ConfigError(f"no node is off-curve: offcurve_density = {p['offcurve_density']:g} "
                          f"is at most the smallest node density, "
                          f"{op.rho_at_nodes.min():.6g}")
    idx, y, _ = continuum_labeled_nodes(op, _two_labels(p))
    pot = IndicatorPotential(indices=idx, y=y)
    coords = op.grid.coordinates()
    eig = op.eigendecomposition(m=p["modes"])

    # the chains' decomposition also gives the Fiedler pair: no second eigensolve
    fied, degenerate = fiedler_vector(op, m=p["modes"], positive_at=tuple(p["label_plus"]))
    _write_csv(cfg.out_dir / "fiedler.csv", ["x1", "x2", "fiedler"],
               np.column_stack([coords, fied]))

    # one chain per (alpha, tau), all stepping together
    points = [(alpha, tau) for alpha in p["alpha_values"] for tau in p["tau_values"]]
    chains = run_pcn_chains(
        [FractionalOperator(eig, alpha=alpha, tau=tau) for alpha, tau in points], pot,
        _pcn_config(p),
        [_point_seed(cfg.seed, int(alpha * 10), int(tau * 10)) for alpha, tau in points])
    summary = []
    for (alpha, tau), chain in zip(points, chains):
        mean, var = classification_stats(chain)
        _write_csv(cfg.out_dir / f"moons_alpha{alpha:g}_tau{tau:g}.csv",
                   ["x1", "x2", "mean_sign", "variance"],
                   np.column_stack([coords, mean, var]))
        summary.append([alpha, tau, chain.acceptance_rate,
                        float(mean[idx[0]]), float(mean[idx[1]]),
                        float(np.mean(np.abs(mean[off_curve])))])
    _write_csv(cfg.out_dir / "summary.csv",
               ["alpha", "tau", "acceptance", "mean_sign_label_plus",
                "mean_sign_label_minus", "offcurve_certainty"], summary)
    return {"summary": summary, "fiedler": fied, "degenerate": degenerate}


# ---------------------------------------------------------------------------
# spectra


def run_spectra(cfg: ExperimentConfig) -> dict:
    """Graph spectra against continuum and analytic references; Weyl slopes.

    Graph eigenvalues use the degree-normalized Laplacian scaled by
    s_n * (mean degree), which cancels the boundary-degree bias of the
    unnormalized variant for a uniform density.  The continuum eigenvalues
    of the 2-D and 3-D uniform grids are the closed form `uniform_spectrum`,
    sorted: no eigensolve.
    """
    p = cfg.params
    k_max = SPECTRA_K_MAX
    analytic = np.sort([np.pi ** 2 * (i * i + j * j)
                        for i in range(k_max + 2) for j in range(k_max + 2)])[:k_max]

    eig_rows = [["analytic", 0, k + 1, lam] for k, lam in enumerate(analytic)]
    err_rows = []
    weyl_rows = []
    mean_errors = {}
    max_errors = {}
    graph_lams = {}
    m_graph = max(GRAPH_WEYL_K_MAX + 5, k_max + 1)
    m_cont = p["cont_weyl_k_max"] + 5

    for n in p["n_values"]:
        lams = []
        for s in range(p["n_seeds"]):
            points = sample_cloud(Density("uniform"), n, seed=_point_seed(cfg.seed, n, s))
            g = build_graph(points, p["eps"])
            eig = decompose(laplacian(g, normalized=True), m=min(m_graph, n))
            scale = g.s_n * float(np.mean(g.degrees))
            lams.append(scale * np.clip(eig.eigenvalues, 0.0, None))
        lam = np.mean(np.vstack(lams), axis=0)
        graph_lams[n] = lam
        for k in range(k_max):
            eig_rows.append([f"graph_n{n}", n, k + 1, lam[k]])
            if k >= 1:
                rel = abs(lam[k] - analytic[k]) / analytic[k]
                err_rows.append([n, k + 1, rel])
        rels = [abs(lam[k] - analytic[k]) / analytic[k] for k in range(1, k_max)]
        mean_errors[n] = float(np.mean(rels))
        max_errors[n] = float(np.max(rels))
        weyl_rows.append([f"graph_d2_n{n}",
                          weyl_exponent(lam, GRAPH_WEYL_K_MIN,
                                        min(GRAPH_WEYL_K_MAX, len(lam)))])

    for dim, key in ((2, "continuum_grid_n"), (3, "weyl_grid_n_3d")):
        lam = np.sort(uniform_spectrum(Grid(dim=dim, N=p[key])), axis=None)[:m_cont]
        if dim == 2:
            for k in range(k_max):
                eig_rows.append(["continuum_d2", 0, k + 1, float(lam[k])])
        weyl_rows.append([f"continuum_d{dim}",
                          weyl_exponent(lam, p["cont_weyl_k_min"], p["cont_weyl_k_max"])])

    _write_csv(cfg.out_dir / "eigenvalues.csv", ["source", "n", "k", "lambda"], eig_rows)
    _write_csv(cfg.out_dir / "errors.csv", ["n", "k", "rel_error"], err_rows)
    _write_csv(cfg.out_dir / "weyl.csv", ["setting", "slope"], weyl_rows)
    return {"analytic": analytic, "graph": graph_lams, "mean_errors": mean_errors,
            "max_errors": max_errors, "weyl": {r[0]: r[1] for r in weyl_rows}}


# ---------------------------------------------------------------------------
# smallnoise


def run_smallnoise(cfg: ExperimentConfig) -> dict:
    """Probit/level-set chains against the indicator chain as gamma -> 0."""
    p = cfg.params
    points = sample_cloud(Density("uniform"), p["n"] - 2, seed=_point_seed(cfg.seed, 0))
    points, labels = assign_labels(points, _two_labels(p))
    eig = decompose_graph(build_graph(points, p["eps"]))
    prior = FractionalOperator(eig, alpha=p["alpha"], tau=p["tau"])

    report = small_noise_agreement(prior, labels, p["gammas"], _pcn_config(p),
                                   _point_seed(cfg.seed, 1))

    rows = [["indicator", "", "", "", "", report["indicator_acceptance"]]]
    for name in ("probit", "levelset"):
        for entry in report[name]:
            rows.append([name, entry["gamma"], entry["max_discrepancy"],
                         entry["mean_discrepancy"], entry["max_excess_over_3se"],
                         entry["acceptance"]])
    _write_csv(cfg.out_dir / "smallnoise.csv",
               ["model", "gamma", "max_discrepancy", "mean_discrepancy",
                "max_excess_over_3se", "acceptance"], rows)
    return report


# ---------------------------------------------------------------------------
# dispatch


_RUNNERS = {
    "channel": run_channel,
    "rates-krige": run_rates,
    "rates-probit": run_rates,
    "extrapolation": run_extrapolation,
    "mcmc-moons": run_mcmc_moons,
    "spectra": run_spectra,
    "smallnoise": run_smallnoise,
}


def run(cfg: ExperimentConfig) -> dict:
    """Run an experiment; returns its summary dict and writes its CSVs and the
    resolved configuration into ``cfg.out_dir``.

    Every warning the run raises (for example "graph is disconnected") is
    caught, not printed, and counted in ``result["warnings"]``, a map from
    "Category: message" to its count.  A refusal that only the runner can
    make (one of REFUSALS, such as a label ball with no grid node) removes
    the directories this call made and writes nothing into one that existed.
    """
    made = [d for d in (cfg.out_dir, *cfg.out_dir.parents) if not d.exists()]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _RUNNERS[cfg.experiment](cfg)
    except REFUSALS:
        # each runner refuses before its first CSV, and the config is echoed
        # after the run: the directories made here hold nothing else
        if made:
            shutil.rmtree(made[-1])
        raise
    except BaseException:
        _echo_config(cfg)  # the CSVs of a failed run keep their config
        raise
    _echo_config(cfg)
    result["warnings"] = dict(Counter(f"{w.category.__name__}: {w.message}" for w in caught))
    return result

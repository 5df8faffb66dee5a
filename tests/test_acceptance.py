"""End-to-end acceptance gate.

Each test checks one numbered behavioral guarantee of the package at its
stated tolerance and prints a single PASS/FAIL line to the real stdout so
the verdicts are visible even under pytest capture.  Thresholds here are
contractual: do not loosen them to make a red test green.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.linalg

from graphssl.density import Density, sample_cloud
from graphssl.experiments import ExperimentConfig, run
from graphssl.graph import Kernel, build_graph, laplacian
from graphssl.labels import Model2Spec, assign_labels
from graphssl.models import (
    LevelSetPotential,
    PoweredFactor,
    ProbitPotential,
    krige,
    levelset_objective,
    log_psi,
    probit_map,
    probit_objective,
    sparse_probit_map,
)
from graphssl.posterior import PcnConfig, run_pcn
from graphssl.spectral import (
    FractionalOperator,
    apply_power,
    decompose_graph,
    prior_std,
    quadratic_form,
)
from graphssl.transport import TlpPair, tlp_exact


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    # plain print: the -rA summary (set in pyproject) replays these verdict
    # lines for passed tests too
    print(line, flush=True)
    assert ok, line


def _run_experiment(tmp_path_factory, experiment, **params):
    out = tmp_path_factory.mktemp(f"acc_{experiment}")
    cfg = ExperimentConfig(experiment=experiment, out_dir=out,
                           params=params or {}, threads=4)
    t0 = time.perf_counter()
    result = run(cfg)
    return result, time.perf_counter() - t0, out


@pytest.fixture(scope="module")
def spectra_result(tmp_path_factory):
    return _run_experiment(tmp_path_factory, "spectra")


@pytest.fixture(scope="module")
def channel_result(tmp_path_factory):
    return _run_experiment(tmp_path_factory, "channel")


@pytest.fixture(scope="module")
def smallnoise_result(tmp_path_factory):
    return _run_experiment(tmp_path_factory, "smallnoise")


def test_criterion_01_spectral_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(10, 51))
        cloud = sample_cloud(Density("uniform"), n, seed=int(rng.integers(1 << 30)))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = build_graph(cloud, Kernel(epsilon=float(rng.uniform(0.4, 0.8)), dim=2))
        alpha = float(rng.uniform(0.3, 2.5))
        tau = float(rng.uniform(0.2, 2.0))
        eig = decompose_graph(g)
        prior = FractionalOperator(eig, alpha=alpha, tau=tau, scale=g.s_n)
        M = g.s_n * laplacian(g).toarray() + tau ** 2 * np.eye(n)
        M = 0.5 * (M + M.T)
        Ma = scipy.linalg.fractional_matrix_power(M, alpha).real
        v = rng.standard_normal(n)
        ref = Ma @ v
        got = apply_power(prior, v, 1.0)
        worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        J_ref = 0.5 / n * float(v @ Ma @ v)
        J = quadratic_form(prior, v)
        worst = max(worst, abs(J - J_ref) / abs(J_ref))
    dt = time.perf_counter() - t0
    _report(1, worst < 1e-8 and dt < 10.0,
            f"max rel dev {worst:.2e} vs dense matrix power on 25 graphs, {dt:.1f}s")


def test_criterion_02_eigenvalue_convergence(spectra_result):
    result, dt, _ = spectra_result
    errs = result["max_errors"]
    ok = errs[1600] <= 0.15 and errs[1600] < errs[400] and dt < 300.0
    _report(2, ok, f"max rel eigenvalue error k<=10: n=400 {errs[400]:.3f}, "
                   f"n=1600 {errs[1600]:.3f} (<=0.15, decreasing), {dt:.0f}s")


def test_criterion_03_weyl_law(spectra_result):
    result, dt, _ = spectra_result
    w = result["weyl"]
    ok = (abs(w["graph_d2_n1600"] - 1.0) <= 0.2
          and abs(w["continuum_d2"] - 1.0) <= 0.1
          and abs(w["continuum_d3"] - 2.0 / 3.0) <= 0.1
          and dt < 300.0)
    _report(3, ok, f"fitted exponents: graph d2 {w['graph_d2_n1600']:.3f} (1±0.2), "
                   f"continuum d2 {w['continuum_d2']:.3f} (1±0.1), "
                   f"d3 {w['continuum_d3']:.3f} (2/3±0.1)")


def test_criterion_04_stable_log_psi():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    zs = np.linspace(-30.0, 8.0, 1000)
    refs = np.array([float(mp.log(mp.ncdf(mp.mpf(float(z))))) for z in zs])
    t0 = time.perf_counter()
    ours = log_psi(zs, 1.0)
    dt = time.perf_counter() - t0
    rel = float(np.max(np.abs(ours - refs) / np.abs(refs)))
    _report(4, rel <= 1e-10 and dt < 1.0,
            f"max rel error {rel:.2e} vs 40-digit reference on 1000 points, "
            f"{dt * 1e3:.1f}ms")


def test_criterion_05_probit_uniqueness(small_graph):
    graph, labels = small_graph
    t0 = time.perf_counter()
    eig = decompose_graph(graph)
    prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
    pot = ProbitPotential.for_graph(labels, 0.1)
    rng = np.random.default_rng(1)
    u1 = probit_map(prior, pot, init=rng.standard_normal(graph.n))
    u2 = probit_map(prior, pot, init=3.0 * rng.standard_normal(graph.n))
    dev = float(np.max(np.abs(u1 - u2)))
    strict = True
    for _ in range(100):
        a, b = rng.standard_normal((2, graph.n))
        mid = probit_objective(0.5 * (a + b), prior, pot)
        avg = 0.5 * (probit_objective(a, prior, pot)
                     + probit_objective(b, prior, pot))
        strict = strict and (mid < avg)
    dt = time.perf_counter() - t0
    _report(5, dev < 1e-6 and strict and dt < 60.0,
            f"init-independence dev {dev:.2e} (<1e-6), midpoint strict "
            f"convexity on 100 pairs: {strict}, {dt:.1f}s")


def test_criterion_06_levelset_no_minimizer(small_graph):
    graph, labels = small_graph
    eig = decompose_graph(graph)
    prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=graph.s_n)
    pot = LevelSetPotential.for_graph(labels, 0.5)
    u = krige(prior, labels)
    assert pot.value(u) == 0.0
    vals = [levelset_objective(c * u, prior, pot) for c in (1.0, 0.5, 0.1)]
    ok = vals[0] > vals[1] > vals[2] > 0.0
    _report(6, ok, "objective at c*u for c in (1, 0.5, 0.1): "
                   + ", ".join(f"{v:.4f}" for v in vals) + " strictly decreasing")


def test_criterion_07_kriging_spikes(tmp_path_factory, small_graph):
    graph, labels = small_graph
    eig = decompose_graph(graph)
    prior = FractionalOperator(eig, alpha=1.0, tau=1.0, scale=graph.s_n)
    u = krige(prior, labels)
    interp = float(np.max(np.abs(u[labels.indices] - labels.y)))
    result, dt, _ = _run_experiment(tmp_path_factory, "extrapolation")
    s = result["scores"]
    alphas = sorted(s)
    mono = all(s[a] >= s[b] for a, b in zip(alphas, alphas[1:]))
    ok = (interp < 1e-8 and s[0.5] >= 0.99 and s[2.0] <= 0.5 and mono
          and dt < 120.0)
    _report(7, ok, f"interpolation error {interp:.1e} (<1e-8); spike scores "
                   + ", ".join(f"a={a:g}:{s[a]:.3f}" for a in alphas)
                   + f" (>=0.99 at 0.5, <=0.5 at 2, monotone), {dt:.0f}s")


def test_criterion_08_sweet_spot(tmp_path_factory):
    result, dt, _ = _run_experiment(
        tmp_path_factory, "rates-krige",
        models="krige,probit", n_values=[400, 1600], n_seeds=20)
    curves = {}
    for m, n, eps, mean, sd in result["errors"]:
        curves.setdefault((m, n), []).append(mean)
    interior_ok = True
    for key, vals in curves.items():
        v = np.asarray(vals)
        finite = np.flatnonzero(np.isfinite(v))
        lo, hi = finite[0], finite[-1]
        inner = v[lo + 1:hi]
        interior_ok = interior_ok and np.nanmin(inner) < min(v[lo], v[hi])
    bounds = result["bounds"]
    shift_ok = True
    for m in ("krige", "probit"):
        for pick in (0, 1):
            b4, b16 = bounds[m][400][pick], bounds[m][1600][pick]
            if np.isfinite(b4) and np.isfinite(b16):
                shift_ok = shift_ok and (b16 < b4)
    ok = interior_ok and shift_ok and dt < 1800.0
    desc = "; ".join(f"{m} n={n}: [{bounds[m][n][0]:.3f}, {bounds[m][n][1]:.3f}]"
                     for m in bounds for n in (400, 1600))
    _report(8, ok, f"interior minima below endpoints: {interior_ok}; bounds "
                   f"shift left: {shift_ok} ({desc}), {dt:.0f}s")


def test_criterion_09_label_information_loss():
    t0 = time.perf_counter()
    spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                      signs=np.array([1.0, -1.0]))
    norms = {}
    for n in (400, 800, 1600):
        vals = []
        for s in range(3):
            cloud = sample_cloud(Density("uniform"), n - 2, seed=1000 * s + n)
            cloud, labels = assign_labels(cloud, spec)
            g = build_graph(cloud, Kernel(epsilon=0.3, dim=2))
            pot = ProbitPotential(gamma=0.01, indices=labels.indices,
                                  y=labels.y, weights=np.ones(2))
            factor = PoweredFactor(laplacian(g) * g.s_n, 2, 1.0)
            v = sparse_probit_map(factor, np.full(g.n, 1.0 / g.n), pot)
            vals.append(float(np.sqrt(np.mean(v ** 2))))
        norms[n] = float(np.mean(vals))
    dt = time.perf_counter() - t0
    mono = norms[400] > norms[800] > norms[1600]
    ratio = norms[1600] / norms[400]
    ok = mono and ratio < 0.25 and dt < 600.0
    _report(9, ok, f"||v_n|| = {norms[400]:.4f}, {norms[800]:.4f}, "
                   f"{norms[1600]:.4f}; monotone: {mono}, n=1600/n=400 ratio "
                   f"{ratio:.3f} (<0.25 required), {dt:.0f}s")


def test_criterion_10_small_noise_limit(smallnoise_result):
    report, dt, _ = smallnoise_result
    ok = dt < 1200.0
    details = []
    for name in ("probit", "levelset"):
        entries = report[name]
        gammas = [e["gamma"] for e in entries]
        assert gammas == sorted(gammas, reverse=True)
        disc = [e["max_discrepancy"] for e in entries]
        excess = entries[-1]["max_excess_over_3se"]
        mono = all(a >= b - 1e-9 for a, b in zip(disc, disc[1:]))
        ok = ok and mono and excess == 0.0
        details.append(f"{name}: disc {', '.join(f'{d:.3f}' for d in disc)} "
                       f"nonincreasing {mono}, 3-SE excess at 1e-4: {excess:g}")
    _report(10, ok, "; ".join(details) + f", {dt:.0f}s")


def test_criterion_11_pcn_prior_preservation():
    t0 = time.perf_counter()
    cloud = sample_cloud(Density("uniform"), 60, seed=0)
    g = build_graph(cloud, Kernel(epsilon=0.35, dim=2))
    eig = decompose_graph(g)
    prior = FractionalOperator(eig, alpha=2.0, tau=1.0, scale=g.s_n)
    from graphssl.models import IndicatorPotential
    free = IndicatorPotential(indices=np.array([], dtype=int), y=np.array([]))
    cfg = PcnConfig(beta=0.9, iterations=100_000, burn_in=1000, thinning=1,
                    seed=5, store_samples=True)
    chain = run_pcn(prior, free, cfg)
    coeffs = np.array([prior.eig.coeffs(u) for u in chain.samples])
    ref_var = prior_std(prior, 1.0) ** 2
    var_dev = float(np.max(np.abs(coeffs.var(axis=0) - ref_var) / ref_var))
    cfg1 = PcnConfig(beta=1.0, iterations=4000, burn_in=0, thinning=1,
                     seed=6, store_samples=True)
    chain1 = run_pcn(prior, free, cfg1)
    c1 = np.array([prior.eig.coeffs(u) for u in chain1.samples])
    a = c1[:-1] - c1[:-1].mean(axis=0)
    b = c1[1:] - c1[1:].mean(axis=0)
    corr = float(np.max(np.abs(np.sum(a * b, axis=0) / np.sqrt(
        np.sum(a * a, axis=0) * np.sum(b * b, axis=0)))))
    dt = time.perf_counter() - t0
    ok = var_dev < 0.05 and corr < 0.1 and chain.acceptance_rate == 1.0
    _report(11, ok, f"mode-variance dev {var_dev:.3f} (<0.05) over 1e5 steps; "
                    f"beta=1 lag-1 autocorr {corr:.3f} (<0.1), {dt:.0f}s")


def test_criterion_12_channel_geometry(channel_result):
    result, dt, _ = channel_result
    diag = min(r[2] for r in result["boundary"] if r[0] == 1.0)
    vert = min(r[3] for r in result["boundary"] if r[0] == 0.0)
    pooled = {}
    for h, ai, aj, agree in result["pairs"]:
        pooled.setdefault((ai, aj), []).append(agree)
    cross = min(float(np.mean(v)) for v in pooled.values())
    ok = diag >= 0.95 and vert >= 0.95 and cross >= 0.98 and dt < 900.0
    _report(12, ok, f"boundary agreement: diagonal at h=1 {diag:.4f}, vertical "
                    f"at h=0 {vert:.4f} (>=0.95); min cross-order sign "
                    f"agreement over the h sweep {cross:.4f} (>=0.98), {dt:.0f}s")


def test_criterion_13_tlp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    def pair(m):
        return TlpPair(points=rng.uniform(0, 1, size=(m, 2)),
                       values=rng.standard_normal(m))

    worst = 0.0
    for p in (1.0, 2.0):
        for _ in range(3):
            a, b = pair(8), pair(8)
            dx = np.linalg.norm(a.points[:, None] - b.points[None, :], axis=2)
            df = np.abs(a.values[:, None] - b.values[None, :])
            cost = dx ** p + df ** p
            best = min(cost[range(8), perm].sum()
                       for perm in itertools.permutations(range(8)))
            ref = (best / 8) ** (1.0 / p)
            worst = max(worst, abs(tlp_exact(a, b, p) - ref))
    axioms = True
    for _ in range(50):
        x, y, z = pair(6), pair(6), pair(6)
        axioms = axioms and tlp_exact(x, y) <= tlp_exact(x, z) + tlp_exact(z, y) + 1e-10
        axioms = axioms and abs(tlp_exact(x, y) - tlp_exact(y, x)) < 1e-10
        axioms = axioms and tlp_exact(x, x) < 1e-12 and tlp_exact(x, y) > 0
    dt = time.perf_counter() - t0
    _report(13, worst < 1e-12 and axioms and dt < 30.0,
            f"max dev from factorial brute force {worst:.1e} (<1e-12); metric "
            f"axioms on 50 triples: {axioms}, {dt:.1f}s")


def test_criterion_14_determinism(tmp_path_factory):
    settings = [
        ("extrapolation", {"n": 150, "alpha_values": [0.5, 2.0]}),
        ("channel", {"grid_n": 32, "h_values": [1.0], "alpha_values": [1.0, 2.0]}),
        ("spectra", {"n_values": [200], "n_seeds": 2, "continuum_grid_n": 16,
                     "weyl_grid_n_3d": 8, "cont_weyl_k_min": 10,
                     "cont_weyl_k_max": 40}),
    ]
    ok = True
    checked = 0
    for experiment, params in settings:
        outs = []
        for _ in range(2):
            _, _, out = _run_experiment(tmp_path_factory, experiment, **params)
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        ok = ok and set(outs[0]) == set(outs[1])
        for name in outs[0]:
            checked += 1
            ok = ok and outs[0][name] == outs[1][name]
    _report(14, ok and checked > 0,
            f"{checked} CSVs byte-identical across reruns of "
            f"{len(settings)} experiments")

"""Span tracing of graphssl from outside the program.

`Tracer` wraps the entry points listed in `ENTRY_POINTS` for the duration of
one traced run, records spans (name, layer, start, end, parent) in memory and
derives per-layer self times and counters from them.  Nothing in `src/` is
changed: the wrappers replace module and class attributes and are removed
again when the run ends.

Three kinds of entry point:

- ``span``  a call into a layer; its time belongs to the layer named in the
  table, minus the time of the spans it contains.
- ``leaf``  a timed call (scipy factorization or eigensolver, potential
  evaluation) that belongs to the layer of the enclosing span, so under a MAP
  solve a potential evaluation counts toward models and under `run_pcn`
  toward posterior.
- ``count`` a call that is only counted, for the layer of the enclosing span
  (pCN steps and sample records: too many to time one by one).

An entry point that no longer exists (renamed or removed by a refactor) is
reported with a warning and zero calls; it never fails the run.

Every graphssl module is imported before anything is wrapped, so that a
name bound with "from module import name" is found, wrapped and restored
wherever it is bound: a module first imported while a tracer is active would
keep that tracer's wrapper after it ends.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
import warnings
from collections import Counter

# (layer or None for the enclosing layer, kind, "module:attribute", tag)
ENTRY_POINTS = (
    ("density", "span", "graphssl.density:Density.__post_init__", "construct"),
    ("density", "span", "graphssl.density:sample_cloud", "sample"),
    ("labels", "span", "graphssl.labels:assign_labels", "assign"),
    ("graph", "span", "graphssl.graph:build_graph", "build"),
    ("graph", "span", "graphssl.graph:laplacian", "laplacian"),
    ("graph", "span", "graphssl.graph:kernel_constants", "kernel_moments"),
    ("spectral", "span", "graphssl.spectral:decompose", "decompose"),
    ("spectral", "span", "graphssl.spectral:decompose_graph", "decompose_graph"),
    ("spectral", "span", "graphssl.spectral:weyl_exponent", "weyl"),
    ("continuum", "span", "graphssl.continuum:discretize", "discretize"),
    ("continuum", "span", "graphssl.continuum:ContinuumOperator.eigendecomposition",
     "eigendecomposition"),
    ("continuum", "span", "graphssl.continuum:fiedler_vector", "fiedler"),
    ("continuum", "span", "graphssl.continuum:interpolate_to_points", "interpolate"),
    ("models", "span", "graphssl.models:krige", "krige"),
    ("models", "span", "graphssl.models:probit_map", "probit_map"),
    ("models", "span", "graphssl.models:sparse_krige", "sparse_krige"),
    ("models", "span", "graphssl.models:sparse_probit_map", "sparse_probit_map"),
    ("models", "span", "graphssl.models:continuum_krige", "continuum_krige"),
    ("models", "span", "graphssl.models:continuum_probit_map", "continuum_probit_map"),
    ("models", "span", "graphssl.models:continuum_labeled_nodes", "labeled_nodes"),
    ("posterior", "span", "graphssl.posterior:run_pcn", "chain"),
    ("posterior", "span", "graphssl.posterior:small_noise_agreement", "agreement"),
    ("posterior", "span", "graphssl.posterior:classification_stats", "stats"),
    ("transport", "span", "graphssl.transport:discrete_vs_continuum_error", "error"),
    (None, "leaf", "scipy.linalg:cho_factor", "dense_factor"),
    (None, "leaf", "scipy.linalg:cho_solve", "dense_solve"),
    (None, "leaf", "scipy.sparse.linalg:splu", "sparse_factor"),
    (None, "leaf", "scipy.linalg:eigh", "dense_eig"),
    (None, "leaf", "scipy.sparse.linalg:eigsh", "arpack"),
    (None, "leaf", "graphssl.models:ProbitPotential.value_at_labeled", "potential"),
    (None, "leaf", "graphssl.models:LevelSetPotential.value_at_labeled", "potential"),
    (None, "leaf", "graphssl.models:IndicatorPotential.value_at_labeled", "potential"),
    (None, "leaf", "graphssl.models:ProbitPotential.grad_at_labeled", "potential_grad"),
    (None, "count", "graphssl.posterior:pcn_step", "step"),
    (None, "count", "graphssl.posterior:Chain.record", "record"),
)

LAYERS = ("density", "labels", "graph", "spectral", "continuum", "models",
          "posterior", "transport", "experiments")

# per-layer metric names, in the order BENCHMARK.json lists them
METRICS = (
    "graph.calls", "graph.self_s", "graph.edges", "graph.kernel_moment_calls",
    "models.calls", "models.self_s", "models.newton_iters", "models.objective_evals",
    "models.evals_per_iter",
    "models.dense_factor_calls", "models.dense_factor_s", "models.dense_solve_calls",
    "models.dense_solve_s", "models.sparse_factor_calls", "models.sparse_factor_s",
    "spectral.calls", "spectral.self_s", "spectral.modes", "spectral.dense_calls",
    "spectral.arpack_calls",
    "posterior.chains", "posterior.steps", "posterior.records", "posterior.accept_rate",
    "posterior.steps_per_s", "posterior.self_s", "posterior.potential_evals",
    "posterior.potential_s",
    "continuum.calls", "continuum.nodes", "continuum.self_s",
    "transport.calls", "transport.self_s",
    "density.self_s", "labels.self_s",
    "experiments.self_s", "experiments.csv_files", "experiments.csv_mb",
    "trace.run_s", "trace.overhead_frac",
)


def _import_all(package: str = "graphssl") -> None:
    """Import every module of the package, so that no module binds a wrapper
    by importing it for the first time while a tracer is active."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)


def _resolve(target: str):
    """(owner object, attribute name, original) for "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:  # a class attribute: look in the class itself, not its bases
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the entry points while active and collects spans and counters."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.spans = []          # [name, layer, tag, start, end, parent]
        self.counts = Counter()  # (layer, tag) -> calls of "count" entries
        self.chains = []         # Chain objects returned by run_pcn
        self.edges = 0
        self.modes = 0
        self.nodes = 0
        self.missing = []
        self._stack = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def __enter__(self):
        _import_all()
        for layer, kind, target, tag in self.entry_points:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                warnings.warn(f"trace entry point {target} not found; "
                              "reporting 0 calls", stacklevel=2)
                continue
            wrapper = self._wrap(original, target, layer, kind, tag)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                # names imported with "from module import name" elsewhere
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("graphssl"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, layer, kind, tag):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = {
            "build": self._on_graph, "decompose": self._on_decompose,
            "discretize": self._on_discretize, "chain": self.chains.append,
        }.get(tag)

        if kind == "count":
            def counted(*args, **kwargs):
                counts[(spans[stack[-1]][1] if stack else "experiments", tag)] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            owner = layer or (spans[parent][1] if stack else "experiments")
            span = [name, owner, tag, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                hook(return_value)
            return return_value
        return traced

    def _on_graph(self, g):
        w = g.weights
        self.edges += (w.nnz - int((w.diagonal() != 0).sum())) // 2

    def _on_decompose(self, eig):
        self.modes += len(eig.eigenvalues)

    def _on_discretize(self, op):
        self.nodes += op.matrix.shape[0]

    # -- running ----------------------------------------------------------

    def root(self, fn, *args):
        """Call fn(*args) as the root "experiments" span, inside `with tracer:`."""
        span = ["experiments", "experiments", "run", time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def check(self, run_s: float) -> list[str]:
        """Problems with the span tree.  Self times mean something only when
        the spans nest like the calls of one thread under the root span:
        every span closed, inside its parent, after its previous sibling.
        Then the self times add up to the root span, which must be the
        traced run_s."""
        where = Counter()
        ends = {}  # parent -> end of its latest child
        for i, (name, layer, tag, start, end, parent) in enumerate(self.spans):
            if end < start:
                where["left open"] += 1
            elif parent < 0:
                if i > 0 or tag != "run":
                    where["outside the root span"] += 1
            elif not self.spans[parent][3] <= start <= end <= self.spans[parent][4]:
                where["outside their parent span"] += 1
            elif start < ends.get(parent, start):
                where["overlapping an earlier sibling"] += 1
            else:
                ends[parent] = end
        problems = [f"trace: {n} spans {what}" for what, n in where.items()]
        total = sum(self.self_times().values())
        if abs(total - run_s) > 1e-3 * run_s:
            problems.append(f"trace: layer self times sum to {total:.6f} s, "
                            f"traced run_s is {run_s:.6f} s")
        return problems

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus the spans they contain."""
        child = [0.0] * len(self.spans)
        for name, layer, tag, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, tag, start, end, parent), inner in zip(self.spans, child):
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def metrics(self, run_s: float, csv_files: int, csv_bytes: int) -> dict:
        """The names in METRICS from the recorded spans and counters, except
        trace.overhead_frac, which needs untraced runs."""
        kinds = {target: kind for _, kind, target, _ in self.entry_points}
        calls, tag_calls, tag_s = Counter(), Counter(), Counter()  # per layer, per (layer, tag)
        chain_s = 0.0
        for name, layer, tag, start, end, parent in self.spans:
            if tag == "run":
                continue
            if kinds[name] == "span":
                calls[layer] += 1
            tag_calls[(layer, tag)] += 1
            tag_s[(layer, tag)] += end - start
            if tag == "chain":
                chain_s += end - start
        self_s = self.self_times()
        steps = self.counts[("posterior", "step")]
        accepted = sum(c.accepted for c in self.chains)
        chain_steps = sum(c.steps for c in self.chains)
        iters = tag_calls[("models", "potential_grad")]
        evals = tag_calls[("models", "potential")]
        m = {
            "graph.calls": calls["graph"],
            "graph.edges": self.edges,
            "graph.kernel_moment_calls": tag_calls[("graph", "kernel_moments")],
            "models.calls": calls["models"],
            "models.newton_iters": iters,
            "models.objective_evals": evals,
            "models.evals_per_iter": evals / iters if iters else 0.0,
            "spectral.calls": calls["spectral"],
            "spectral.modes": self.modes,
            "spectral.dense_calls": tag_calls[("spectral", "dense_eig")],
            "spectral.arpack_calls": tag_calls[("spectral", "arpack")],
            "posterior.chains": tag_calls[("posterior", "chain")],
            "posterior.steps": steps,
            "posterior.records": self.counts[("posterior", "record")],
            "posterior.accept_rate": accepted / chain_steps if chain_steps else 0.0,
            "posterior.steps_per_s": steps / chain_s if chain_s else 0.0,
            "posterior.potential_evals": tag_calls[("posterior", "potential")],
            "posterior.potential_s": tag_s[("posterior", "potential")],
            "continuum.calls": calls["continuum"],
            "continuum.nodes": self.nodes,
            "transport.calls": calls["transport"],
            "experiments.csv_files": csv_files,
            "experiments.csv_mb": csv_bytes / 1e6,
            "trace.run_s": run_s,
        }
        for kind in ("dense_factor", "dense_solve", "sparse_factor"):
            m[f"models.{kind}_calls"] = tag_calls[("models", kind)]
            m[f"models.{kind}_s"] = tag_s[("models", kind)]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        return m


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_frac", "_rate", "_per_iter")):
        return "ratio"
    return "count"

"""Graph-based semi-supervised learning with fractional graph-Laplacian priors.

The package provides:

* sampling densities on the unit box and i.i.d. point clouds (``density``),
* epsilon-neighborhood graphs and their Laplacians (``graph``),
* spectral calculus for fractional precision operators and Gaussian priors
  (``spectral``),
* finite-volume Neumann discretizations of the weighted continuum operator
  (``continuum``),
* labelling models (``labels``),
* probit / Bayesian level-set / kriging objectives and MAP solvers
  (``models``),
* pCN MCMC posterior sampling, in spectral coefficients or in label space
  (``posterior``),
* TL^p-style discrete-to-continuum comparison metrics (``transport``),
* reproducible experiment drivers and a CLI (``experiments``, ``cli``).
"""

from graphssl.density import Density, sample_cloud
from graphssl.graph import WeightedGraph, kernel_constants, build_graph, laplacian, EpsilonSweep
from graphssl.spectral import (
    EigenDecomposition,
    FractionalOperator,
    decompose,
    decompose_graph,
    apply_power,
    quadratic_form,
    weyl_exponent,
)
from graphssl.continuum import Grid, ContinuumOperator, discretize, interpolate_to_points, fiedler_vector
from graphssl.labels import (
    Ball,
    LabelSet,
    Model1Spec,
    Model2Spec,
    assign_labels,
    sign,
)
from graphssl.models import (
    ProbitPotential,
    LevelSetPotential,
    PoweredFactor,
    log_psi,
    probit_objective,
    probit_map,
    sparse_krige,
    sparse_probit_map,
    levelset_objective,
    krige,
    continuum_probit_map,
)
from graphssl.posterior import (PcnConfig, Chain, pcn_step, run_pcn, run_label_pcn,
                                classification_stats, small_noise_agreement)
from graphssl.transport import TlpPair, tlp_exact, tlp_map_bound, discrete_vs_continuum_error

__version__ = "0.1.0"

__all__ = [
    "Density", "sample_cloud",
    "WeightedGraph", "kernel_constants", "build_graph", "laplacian", "EpsilonSweep",
    "EigenDecomposition", "FractionalOperator", "decompose", "decompose_graph",
    "apply_power", "quadratic_form", "weyl_exponent",
    "Grid", "ContinuumOperator", "discretize", "interpolate_to_points", "fiedler_vector",
    "Ball", "LabelSet", "Model1Spec", "Model2Spec", "assign_labels", "sign",
    "ProbitPotential", "LevelSetPotential", "PoweredFactor", "log_psi",
    "probit_objective", "probit_map", "sparse_krige", "sparse_probit_map",
    "levelset_objective", "krige", "continuum_probit_map",
    "PcnConfig", "Chain", "pcn_step", "run_pcn", "run_label_pcn", "classification_stats",
    "small_noise_agreement",
    "TlpPair", "tlp_exact", "tlp_map_bound", "discrete_vs_continuum_error",
]

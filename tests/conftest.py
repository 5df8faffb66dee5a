import numpy as np
import pytest

from graphssl.density import Density, sample_cloud
from graphssl.graph import build_graph
from graphssl.labels import Model2Spec, assign_labels


@pytest.fixture(scope="session")
def small_graph():
    """A 200-point uniform graph with two fixed opposite labels."""
    spec = Model2Spec(points=np.array([[0.25, 0.25], [0.75, 0.75]]),
                      signs=np.array([1.0, -1.0]))
    points = sample_cloud(Density("uniform"), 198, seed=7)
    points, labels = assign_labels(points, spec)
    graph = build_graph(points, 0.25)
    return graph, labels

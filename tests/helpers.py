"""Shared helpers for the test suite: small randomized instances."""
from __future__ import annotations

import numpy as np

from dimerlab.graphs import (
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    build_cylinder,
    sample_weights,
)
from dimerlab.transfer import kill_vertex_edges

STD_NORMAL = DisorderSpec(Law.normal(0.0, 1.0), Law.normal(0.0, 1.0))

# vertex weights in [-0.5, 0], edge weights in [0, 1.2]: the gauge-transformed
# edge weights stay nonnegative, where the weighted-degree zero bound is sharp
NONNEG_GAUGE = DisorderSpec(Law.uniform(-0.5, 0.0), Law.uniform(0.0, 1.2))

FIBERS = {
    "single": HGraph.single(),
    "path2": HGraph.path(2),
    "path3": HGraph.path(3),
    "cycle3": HGraph.cycle(3),
}


def random_instance(rng: np.random.Generator, n_lo=2, n_hi=8, fibers=None,
                    disorder=STD_NORMAL, max_vertices=None):
    """One random (graph, weights) pair with its own derived seed."""
    names = list(fibers or FIBERS)
    while True:
        name = names[rng.integers(len(names))]
        H = FIBERS[name]
        n = int(rng.integers(n_lo, n_hi + 1))
        if max_vertices is None or n * H.h <= max_vertices:
            break
    g = build_cylinder(n, H)
    seed = RngSeed(int(rng.integers(2**32)), 0)
    return g, sample_weights(g, disorder, seed)


def disabled_edge_batches(seed: int, n: int = 4, replicas: int = 3):
    """Per fiber path(2) and cycle(3): an n-layer cylinder with weight
    replicas, each with every edge at one or two random vertices disabled."""
    rng = np.random.default_rng(seed)
    for name in ("path2", "cycle3"):
        g = build_cylinder(n, FIBERS[name])
        ws = []
        for r in range(replicas):
            w = sample_weights(g, STD_NORMAL, RngSeed(seed, r))
            flat = rng.choice(g.num_vertices, size=int(rng.integers(1, 3)), replace=False)
            ws.append(kill_vertex_edges(w, [g.vertex_at(int(f)) for f in flat]))
        yield g, ws

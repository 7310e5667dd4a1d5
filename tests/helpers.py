"""Shared helpers for the test suite: small randomized instances."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from dimerlab.experiments import _lattice_normal_distance
from dimerlab.graphs import (
    CylinderGraph,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    gauge,
    sample_weights,
)
from dimerlab.sampler import Matching

from oracle import horizontal_index, kill_vertex_edges, unpaired, vertical_index, vertices

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


def gauged(w: WeightAssignment) -> WeightAssignment:
    """The same Gibbs measure with every vertex weight moved to zero: the
    edge weights of ``graphs.gauge``."""
    z = gauge(w.g, w)
    nh = w.g.num_horizontal
    return WeightAssignment(w.g, np.zeros_like(w.nu), z[:nh], z[nh:])


def restrict(g, w, k: int, l: int):
    """Induced sub-cylinder on layers k..l with sliced weights: the reference
    against which the sweeps over table slices are tested."""
    if not (1 <= k <= l <= g.n):
        raise ValueError(f"layer range [{k}:{l}] not inside [1:{g.n}]")
    sub_g = CylinderGraph(l - k + 1, g.H)
    sub_w = WeightAssignment(sub_g, w.nu[k - 1 : l], w.omega_h[k - 1 : l - 1], w.omega_v[k - 1 : l])
    return sub_g, sub_w


def disabled_edge_batches(seed: int, n: int = 4, replicas: int = 3):
    """Per fiber path(2) and cycle(3): an n-layer cylinder with weight
    replicas, each with every edge at one or two random vertices disabled."""
    rng = np.random.default_rng(seed)
    for name in ("path2", "cycle3"):
        g = build_cylinder(n, FIBERS[name])
        flat_order, ws = vertices(g), []
        for r in range(replicas):
            w = sample_weights(g, STD_NORMAL, RngSeed(seed, r))
            flat = rng.choice(g.num_vertices, size=int(rng.integers(1, 3)), replace=False)
            ws.append(kill_vertex_edges(w, [flat_order[int(f)] for f in flat]))
        yield g, ws


# fibers from one vertex to h = 9 (past the 8 terms that numpy adds in
# sequence), with and without fiber cycles
LAYOUT_FIBERS = (HGraph.single(), HGraph.path(2), HGraph.path(3), HGraph.path(5), HGraph.path(9),
                 HGraph.cycle(3), HGraph.cycle(4), HGraph.complete(4), HGraph.complete(6))


def layout_instances(seed: int, dead: str = "", ns=(1, 2, 5, 17)):
    """Per fiber of ``LAYOUT_FIBERS`` and layer count in ``ns``, normal
    weights, with about one in eight edge weights (``dead`` = "edges") or
    also vertex weights (``dead`` = "all") set to -inf."""
    rng = np.random.default_rng(seed)
    for H in LAYOUT_FIBERS:
        for n in ns:
            g = build_cylinder(n, H)
            w = sample_weights(g, STD_NORMAL, RngSeed(seed, n))
            arrays = [w.nu, w.omega_h, w.omega_v]
            for a in arrays[{"": 3, "edges": 1, "all": 0}[dead]:]:
                a[rng.random(a.shape) < 0.125] = -np.inf
            yield g, WeightAssignment(g, *arrays)


def cut_instances(seed: int):
    """Random instances of 1 to 9 layers, then the disabled-edge replicas of
    path(2) and cycle(3) at n=6: inputs for checks at every cut."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        yield random_instance(rng, n_lo=1, n_hi=9)
    for g, ws in disabled_edge_batches(seed, n=6):
        for w in ws:
            yield g, w


def count_calls(monkeypatch, module, names) -> dict:
    """Count calls to ``module``'s functions ``names`` through every dimerlab
    module binding of each; returns the live dict of counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k.startswith("dimerlab")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def lattice_floor(pmf: np.ndarray) -> float:
    """The distance to normal of the law ``pmf`` on 0..pmf.size-1,
    standardized by its own mean and sd: the floor that no number of
    draws from it removes."""
    v = np.arange(pmf.size)
    mean = float(v @ pmf)
    return _lattice_normal_distance(np.cumsum(pmf), mean, float(np.sqrt(((v - mean) ** 2) @ pmf)))


def batch_budget(monkeypatch, replicas: int, H, n: int, *model) -> None:
    """Set the batch budget to the modelled bytes of ``replicas`` replicas
    of n layers over H (``model``: the degree layers and Gibbs draws of
    ``transfer.batch_bytes``): a batch at that length holds exactly that
    many."""
    from dimerlab import transfer

    monkeypatch.setattr(transfer, "BATCH_BYTES", transfer.batch_bytes(H, n, replicas, *model))


def table_builds(call) -> int:
    """How many transfer tables ``call()`` builds: its ``batch_tables`` calls
    through every dimerlab module binding."""
    from dimerlab import transfer

    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, transfer, ["batch_tables"])
        call()
    return calls["batch_tables"]


def root_finds(monkeypatch) -> list:
    """Record each root-finder call of the zero extraction, ``np.roots`` in
    ``leeyang``, as the size of its coefficient array.  Returns the live
    list, one entry per call."""
    from dimerlab import leeyang

    sizes, roots = [], np.roots
    monkeypatch.setattr(leeyang.np, "roots", lambda c: sizes.append(c.size) or roots(c))
    return sizes


def sweep_steps(monkeypatch) -> list:
    """Record each vertex recursion, ``transfer._vertex_sweep``, through
    every dimerlab module binding of it, as (the name of its arithmetic,
    "log", "max", "moment", "scaled" or "degree", its layers and its columns: the
    replicas, both halves' of a forward and flipped pair, or the blocks).
    Returns the live list, one entry per recursion."""
    from dimerlab import transfer

    steps = []
    original = transfer._vertex_sweep

    def counted(v, nu, oh, ov, plan, arith=transfer.LOG, each=None):
        steps.append((arith.name, nu.shape[1], nu.shape[0]))
        return original(v, nu, oh, ov, plan, arith, each)

    for mod in [m for k, m in sys.modules.items() if k.startswith("dimerlab")]:
        if getattr(mod, "_vertex_sweep", None) is original:
            monkeypatch.setattr(mod, "_vertex_sweep", counted)
    return steps


def moves_matching(g, moves) -> Matching:
    """The matching of one draw's moves ``[i, b]``, built edge by edge: the
    horizontal dimer that a vertex closes and the fiber dimer it closes;
    the reference for the array decode."""
    from dimerlab.transfer import FIBER, HORIZONTAL

    idxs = [horizontal_index(g, i, b + 1) for i, b in zip(*np.nonzero(moves == HORIZONTAL))]
    idxs += [vertical_index(g, i + 1, int(moves[i, b]) - FIBER) for i, b in zip(*np.nonzero(moves >= FIBER))]
    return Matching(frozenset(int(e) for e in idxs))


def layer_counts(g, m: Matching) -> np.ndarray:
    """The unpaired-vertex count of each layer of ``m``, read off its
    unpaired vertices: the reference for the sampler's monomer profiles."""
    return np.bincount([i for i, _ in unpaired(g, m)], minlength=g.n + 1)[1:]


def split_parts(monkeypatch, parts: int) -> None:
    """Run every campaign in ``parts`` processes, whatever its work and the
    usable CPUs: a split threshold of 0 and ``parts`` CPUs."""
    from dimerlab import experiments

    monkeypatch.setattr(experiments, "SPLIT_WORK", 0)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(parts)))

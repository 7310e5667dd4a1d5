from __future__ import annotations

import numpy as np
import pytest

from dimerlab.graphs import (
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    dump_weights,
    load_weights,
    sample_weights,
    weighted_degree,
)

from helpers import STD_NORMAL
from oracle import horizontal_index, vertical_index


def test_fiber_factories():
    assert HGraph.single().h == 1 and HGraph.single().edges == ()
    assert HGraph.path(4).edges == ((1, 2), (2, 3), (3, 4))
    assert HGraph.cycle(3).edges == ((1, 2), (1, 3), (2, 3))
    assert len(HGraph.complete(5).edges) == 10
    with pytest.raises(ValueError):
        HGraph.cycle(2)
    with pytest.raises(ValueError):
        HGraph(2, ((2, 1),))  # endpoints must be ordered
    with pytest.raises(ValueError):
        HGraph(3, ((1, 2), (1, 2)))


def test_fiber_neighbors():
    H = HGraph.cycle(4)
    assert H.neighbors(1) == [2, 4]
    assert H.neighbors(3) == [2, 4]


def test_cylinder_counts_and_indexing():
    g = build_cylinder(5, HGraph.path(3))
    assert g.num_vertices == 15
    assert g.num_horizontal == 4 * 3
    assert sum(u[0] == v[0] for u, v in g.edge_list()) == 5 * 2   # vertical: within a layer
    assert len(g.edge_list()) == 22
    # flat index round trip covers every vertex exactly once
    flats = [g.flat_index(v) for v in g.vertices()]
    assert sorted(flats) == list(range(15))
    vertices = list(g.vertices())
    for v in g.vertices():
        assert vertices[g.flat_index(v)] == v


def test_cylinder_edge_order_matches_index_functions():
    g = build_cylinder(4, HGraph.cycle(3))
    edges = g.edge_list()
    assert len(edges) == g.num_horizontal + g.n * len(g.H.edges)
    # horizontal block first, ordered by (cut, fiber vertex)
    for k in range(1, g.n):
        for j in range(1, g.h + 1):
            idx = horizontal_index(g, k, j)
            assert edges[idx] == ((k, j), (k + 1, j))
    # then vertical block, ordered by (layer, H-edge position)
    for i in range(1, g.n + 1):
        for e, (a, b) in enumerate(g.H.edges):
            idx = vertical_index(g, i, e)
            assert edges[idx] == ((i, a), (i, b))


def test_neighbors_symmetric():
    g = build_cylinder(3, HGraph.complete(3))
    for v in g.vertices():
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


def test_law_parse_and_str_round_trip():
    for text in [
        "constant(1.5)",
        "uniform(-1,1)",
        "normal(0,2)",
        "bernoulli_shift(0.3,-1,1)",
        "exponential_shift(2,0.5)",
    ]:
        law = Law.parse(text)
        assert Law.parse(str(law)) == law
    assert Law.parse("-0.25") == Law.constant(-0.25)
    with pytest.raises(ValueError):
        Law.parse("cauchy(0,1)")
    with pytest.raises(ValueError):
        Law.parse("uniform(1,-1)")


def test_law_sampling_matches_mean():
    gen = np.random.default_rng(7)
    for law in [Law.uniform(-1, 3), Law.normal(0.5, 1), Law.parse("exponential_shift(2, -1)"),
                Law.parse("bernoulli_shift(0.25, 0, 4)")]:
        x = law.sample(gen, 200_000)
        assert abs(x.mean() - law.mean()) < 0.02
    c = Law.constant(-2.0).sample(gen, 10)
    assert np.all(c == -2.0)


def test_sample_weights_deterministic_per_seed():
    g = build_cylinder(6, HGraph.path(2))
    w1 = sample_weights(g, STD_NORMAL, RngSeed(42, 3))
    w2 = sample_weights(g, STD_NORMAL, RngSeed(42, 3))
    w3 = sample_weights(g, STD_NORMAL, RngSeed(42, 4))
    assert w1 == w2
    assert w1 != w3


def test_gauge_transform_moves_vertex_weights_onto_edges():
    g = build_cylinder(4, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(5, 0))
    gt = w.gauged()
    assert np.all(gt.nu == 0.0)
    assert gt.gauge_offset == 0.0
    # spot-check one horizontal and one vertical edge by hand
    assert gt.omega_h[1, 0] == pytest.approx(
        w.omega_h[1, 0] - w.nu[1, 0] - w.nu[2, 0]
    )
    assert gt.omega_v[2, 0] == pytest.approx(
        w.omega_v[2, 0] - w.nu[2, 0] - w.nu[2, 1]
    )
    # gauging twice is idempotent
    assert np.allclose(gt.gauged().omega_flat(), gt.omega_flat())


def test_a_disabled_edge_stays_disabled_under_the_gauge():
    # a -inf edge between -inf vertices has gauge weight -inf, not
    # -inf - (-inf) = NaN; a finite edge between them has +inf
    g = build_cylinder(3, HGraph.path(2))
    with np.errstate(invalid="raise"):
        w = WeightAssignment(g, np.full((3, 2), -np.inf), np.full((2, 2), -np.inf), np.zeros((3, 1)))
    assert np.isneginf(w.gauge_h).all()
    assert np.isposinf(w.gauge_v).all()
    assert all(weighted_degree(g, w, v) == np.inf for v in g.vertices())


def test_omega_of_lookup():
    g = build_cylinder(3, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(8, 0))
    assert w.omega_of((1, 1), (2, 1)) == w.omega_h[0, 0]
    assert w.omega_of((2, 2), (2, 1)) == w.omega_v[1, 0]
    with pytest.raises(ValueError):
        w.omega_of((1, 1), (3, 1))


def test_weight_arrays_reject_nan_but_allow_neg_inf():
    g = build_cylinder(2, HGraph.single())
    nu = np.zeros((2, 1))
    oh = np.full((1, 1), -np.inf)  # disabled edge
    ov = np.zeros((2, 0))
    w = WeightAssignment(g, nu, oh, ov)
    assert np.isneginf(w.omega_h[0, 0])
    with pytest.raises(ValueError):
        WeightAssignment(g, np.full((2, 1), np.nan), oh, ov)
    with pytest.raises(ValueError):
        WeightAssignment(g, np.full((2, 1), np.inf), oh, ov)


def test_weighted_degree_by_hand():
    g = build_cylinder(3, HGraph.path(2))
    w = WeightAssignment.constant(g, vertex=0.0, edge=0.0)
    # middle vertex (2,1): two horizontal edges plus one vertical, all weight 1
    assert weighted_degree(g, w, (2, 1)) == pytest.approx(3.0)
    assert weighted_degree(g, w, (1, 1)) == pytest.approx(2.0)


def test_weights_json_round_trip(tmp_path):
    g = build_cylinder(5, HGraph.cycle(3))
    w = sample_weights(g, STD_NORMAL, RngSeed(11, 2))
    path = tmp_path / "w.json"
    dump_weights(path, g, w)
    g2, w2 = load_weights(path)
    assert g2 == g
    assert w2 == w

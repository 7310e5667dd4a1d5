from __future__ import annotations

import io
import json

import numpy as np
import pytest

from dimerlab.graphs import (
    DOMAIN_GIBBS,
    DOMAIN_WEIGHTS,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    dump_weights,
    edge_ends,
    gauge,
    graph_payload,
    load_weights,
    sample_weights,
    stream_keys,
)
from dimerlab.leeyang import localization_bound

from helpers import STD_NORMAL, gauged, layout_instances
from oracle import (
    edges, flat_index, gauge_weight, horizontal_index, neighbors, vertical_index, vertices,
)


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
    # the oracle's neighbours of a vertex: the fiber ones in H-edge order
    g = build_cylinder(1, HGraph.cycle(4))
    assert neighbors(g, (1, 1)) == [(1, 2), (1, 4)]
    assert neighbors(g, (1, 3)) == [(1, 2), (1, 4)]


def test_cylinder_counts_and_indexing():
    g = build_cylinder(5, HGraph.path(3))
    assert g.num_vertices == 15
    assert g.num_horizontal == 4 * 3
    u, v = edge_ends(g)
    assert u.size == 22
    assert (u // g.h == v // g.h).sum() == 5 * 2   # vertical: within a layer
    # no loops, and no edge twice
    assert (u < v).all() and len(set(zip(u.tolist(), v.tolist()))) == 22
    # the oracle's flat index round trip covers every vertex exactly once
    assert [flat_index(g, v) for v in vertices(g)] == list(range(15))


@pytest.mark.parametrize("H", [HGraph.single(), HGraph.path(3), HGraph.cycle(4), HGraph.complete(4)],
                         ids=["single", "path3", "cycle4", "complete4"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_edge_ends_match_the_tuple_enumeration(H, n):
    # the flat endpoints of every edge, in canonical order, against the
    # oracle's own (i, j) enumeration of the cylinder's edges
    g = build_cylinder(n, H)
    expect = [[flat_index(g, u), flat_index(g, v)] for u, v in edges(g)]
    assert edge_ends(g).T.tolist() == expect
    assert edge_ends(g).shape == (2, g.num_horizontal + n * len(H.edges))


def test_neighbors_symmetric():
    # the oracle's neighbours are symmetric, and are the other ends of the
    # edges at each vertex
    g = build_cylinder(3, HGraph.complete(3))
    ends = edge_ends(g).T.tolist()
    for v in vertices(g):
        f = flat_index(g, v)
        assert sorted(flat_index(g, u) for u in neighbors(g, v)) == sorted(
            a + b - f for a, b in ends if f in (a, b))
        for u in neighbors(g, v):
            assert v in neighbors(g, u)


def test_cylinder_edge_order_matches_index_functions():
    g = build_cylinder(4, HGraph.cycle(3))
    ends = edge_ends(g).T.tolist()
    # horizontal block first, ordered by (cut, fiber vertex)
    for k in range(1, g.n):
        for j in range(1, g.h + 1):
            assert ends[horizontal_index(g, k, j)] == [flat_index(g, (k, j)), flat_index(g, (k + 1, j))]
    # then vertical block, ordered by (layer, H-edge position)
    for i in range(1, g.n + 1):
        for e, (a, b) in enumerate(g.H.edges):
            assert ends[vertical_index(g, i, e)] == [flat_index(g, (i, a)), flat_index(g, (i, b))]


def test_law_parse_and_str_round_trip():
    for text in [
        "constant(1.5)",
        "uniform(-1,1)",
        "normal(0,2)",
        "bernoulli_shift(0.3,-1,1)",
        "exponential_shift(2,0.5)",
        "constant(-inf)",
        "bernoulli_shift(0.05,0,-inf)",
        "exponential_shift(1,-inf)",
    ]:
        law = Law.parse(text)
        assert Law.parse(str(law)) == law
    assert Law.parse("-0.25") == Law.constant(-0.25)
    with pytest.raises(ValueError):
        Law.parse("cauchy(0,1)")
    with pytest.raises(ValueError):
        Law.parse("uniform(1,-1)")
    # a parameter other than a weight value is finite; none is NaN or +inf
    for text in ("uniform(0,inf)", "normal(-inf,1)", "normal(0,inf)", "exponential_shift(inf,0)",
                 "bernoulli_shift(nan,0,1)", "bernoulli_shift(0.5,0,inf)", "constant(nan)"):
        with pytest.raises(ValueError, match=r"^\w+\(.*\): parameter \d must be finite"):
            Law.parse(text)
    with pytest.raises(ValueError, match=r"^uniform\(-1e\+308,1e\+308\): b - a must be finite$"):
        Law.parse("uniform(-1e308,1e308)")


def test_law_sampling_matches_mean():
    gen = np.random.default_rng(7)
    for law, mean in [(Law.uniform(-1, 3), 1.0), (Law.normal(0.5, 1), 0.5),
                      (Law.parse("exponential_shift(2, -1)"), -0.5),
                      (Law.parse("bernoulli_shift(0.25, 0, 4)"), 1.0)]:
        x = law.sample(gen, 200_000)
        assert abs(x.mean() - mean) < 0.02
    c = Law.constant(-2.0).sample(gen, 10)
    assert np.all(c == -2.0)


def test_sample_weights_deterministic_per_seed():
    g = build_cylinder(6, HGraph.path(2))
    w1 = sample_weights(g, STD_NORMAL, RngSeed(42, 3))
    w2 = sample_weights(g, STD_NORMAL, RngSeed(42, 3))
    w3 = sample_weights(g, STD_NORMAL, RngSeed(42, 4))
    assert w1 == w2
    assert w1 != w3


@pytest.mark.parametrize("domain", [DOMAIN_WEIGHTS, DOMAIN_GIBBS])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**199 + 12345],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+3", "200-bit"])
def test_stream_keys_are_the_keys_of_seed_sequence(seed, domain):
    # numpy's own key schedule is the oracle, for seeds of one to seven
    # words (past the pool of four) and streams of one and two words, in
    # one batch and alone
    streams = [0, 3, 2**31 + 5, 2**32 - 1, 2**32, 2**40 + 7]
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(s, domain)).generate_state(2, np.uint64)
            for s in streams]
    keys = stream_keys(seed, streams, domain)
    assert keys.dtype == np.uint64 and keys.shape == (len(streams), 2)
    assert np.array_equal(keys, want)
    assert np.array_equal(stream_keys(seed, np.array(streams[::-1], dtype=np.uint64), domain), want[::-1])
    for s, key in zip(streams, want):
        assert np.array_equal(stream_keys(seed, [s], domain), [key])
    assert stream_keys(seed, [], domain).shape == (0, 2)


def test_gauge_transform_moves_vertex_weights_onto_edges():
    g = build_cylinder(4, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(5, 0))
    z = gauge(g, w)
    # spot-check one horizontal and one vertical edge by hand
    assert z[horizontal_index(g, 2, 1)] == pytest.approx(w.omega_h[1, 0] - w.nu[1, 0] - w.nu[2, 0])
    assert z[vertical_index(g, 3, 0)] == pytest.approx(w.omega_v[2, 0] - w.nu[2, 0] - w.nu[2, 1])
    # the weights are left as they were, and gauging twice is idempotent
    assert w == sample_weights(g, STD_NORMAL, RngSeed(5, 0))
    assert np.array_equal(gauge(g, gauged(w)), z)


@pytest.mark.parametrize("dead", ["", "edges", "all"])
def test_gauge_matches_the_edge_by_edge_reference(dead):
    # bit for bit, -inf weights included: a horizontal edge subtracts its
    # endpoint weights one at a time, a fiber edge their sum
    for g, w in layout_instances(3, dead):
        with np.errstate(invalid="raise"):
            z = gauge(g, w)
        assert np.array_equal(z, [gauge_weight(w, u, v) for u, v in edges(g)])


def test_a_disabled_edge_stays_disabled_under_the_gauge():
    # a -inf edge between -inf vertices has gauge weight -inf, not
    # -inf - (-inf) = NaN; a finite edge between them has +inf
    g = build_cylinder(3, HGraph.path(2))
    w = WeightAssignment(g, np.full((3, 2), -np.inf), np.full((2, 2), -np.inf), np.zeros((3, 1)))
    with np.errstate(invalid="raise"):
        z = gauge(g, w)
        assert localization_bound(g, w) == np.inf
    assert np.isneginf(z[: g.num_horizontal]).all()
    assert np.isposinf(z[g.num_horizontal :]).all()


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


def test_localization_bound_by_hand():
    g = build_cylinder(3, HGraph.path(2))
    w = WeightAssignment.constant(g, vertex=0.0, edge=0.0)
    # middle vertex (2,1): two horizontal edges plus one vertical, all weight 1
    assert localization_bound(g, w) == 3.0
    # one vertex, no edge: degree 0
    g1 = build_cylinder(1, HGraph.single())
    assert localization_bound(g1, WeightAssignment.constant(g1)) == 0.0


def test_weights_json_round_trip(tmp_path):
    g = build_cylinder(5, HGraph.cycle(3))
    w = sample_weights(g, STD_NORMAL, RngSeed(11, 2))
    path = tmp_path / "w.json"
    dump_weights(path, g, w)
    g2, w2 = load_weights(path)
    assert g2 == g
    assert w2 == w


def test_weights_json_has_the_bytes_of_json_dump(tmp_path):
    # json.dump to a file, fed each weight as a float and a disabled (-inf)
    # one as None, writes null for it: the file holds those bytes
    g = build_cylinder(4, HGraph.path(2))
    w = sample_weights(g, DisorderSpec(Law.parse("normal(0,1)"), Law.parse("bernoulli_shift(0.5,0,-inf)")),
                       RngSeed(2))
    assert np.isneginf(w.omega_flat()).any()
    path = tmp_path / "w.json"
    dump_weights(path, g, w)
    expect = io.StringIO()
    json.dump({**graph_payload(g), **{key: [None if x == -np.inf else float(x) for x in flat]
                                      for key, flat in (("nu", w.nu_flat()), ("omega", w.omega_flat()))}},
              expect, sort_keys=True)
    assert path.read_text() == expect.getvalue() + "\n"
    assert "null" in path.read_text() and load_weights(path)[1] == w

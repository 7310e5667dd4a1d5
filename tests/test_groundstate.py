from __future__ import annotations

import numpy as np
import pytest

from dimerlab import groundstate
from dimerlab.graphs import (
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    sample_weights,
)
from dimerlab.groundstate import (
    batch_max_values,
    ground_zero_temperature_limit,
    gse_remainder,
    gse_remainder_bound,
    max_weight,
)
from dimerlab.sampler import GibbsSampler, decode_edges, matching_weight
from dimerlab.transfer import MAX, batch_tables, partition_polynomial

from helpers import (
    STD_NORMAL, cut_instances, disabled_edge_batches, layout_instances, random_instance, restrict,
)
from oracle import brute_force_max, ground_remainder_bound, horizontal_index


def test_max_weight_matches_enumeration():
    rng = np.random.default_rng(2025)
    for _ in range(15):
        g, w = random_instance(rng, n_lo=2, n_hi=6, max_vertices=14)
        gs = max_weight(g, w)
        assert gs.value == pytest.approx(brute_force_max(g, w), abs=1e-10)
        # the reported matching must achieve the reported value
        assert matching_weight(g, w, gs.edges) == pytest.approx(gs.value, abs=1e-9)


def test_zero_weights_prefer_empty_matching():
    # every matching ties; the first candidate of every step is S' = 0 and
    # the empty fiber matching
    for H in (HGraph.path(2), HGraph.cycle(3), HGraph.complete(4)):
        g = build_cylinder(5, H)
        gs = max_weight(g, WeightAssignment.constant(g))
        assert gs.value == pytest.approx(0.0)
        assert gs.edges.tolist() == []


def test_large_edge_weight_forces_that_dimer():
    g = build_cylinder(4, HGraph.single())
    oh = np.zeros((3, 1))
    oh[1, 0] = 5.0
    w = WeightAssignment(g, np.zeros((4, 1)), oh, np.zeros((4, 0)))
    gs = max_weight(g, w)
    assert horizontal_index(g, 2, 1) in gs.edges
    assert gs.value == pytest.approx(5.0 + 0.0 + 0.0)


def test_the_max_walk_of_a_batch_gives_each_replica_its_ground_state():
    # the walk at uniforms 0 of a MAX sampler over a batch gives every
    # replica the edges and value of max_weight on that replica alone, and
    # the enumerated maximum: with -inf edges, and with constant weights,
    # where two monomers are never worse than a dimer, so every replica gets
    # the empty matching
    constant = [(g, [WeightAssignment.constant(g, c, c) for c in (0.0, 0.5, 2.0)], True)
                for g in (build_cylinder(3, HGraph.complete(4)), build_cylinder(5, HGraph.path(2)))]
    for g, ws, empty in [*((g, ws, False) for g, ws in disabled_edge_batches(61)), *constant]:
        walker = GibbsSampler(batch_tables(g, *(np.stack([getattr(w, a) for w in ws])
                                                for a in ("nu", "omega_h", "omega_v"))), arith=MAX)
        moves = walker.walk(np.zeros((g.n * g.h, len(ws), 1)))
        for r, w in enumerate(ws):
            (row,) = decode_edges(g.n, g.H, moves[r])
            alone = max_weight(g, w)
            assert row[row >= 0].tolist() == alone.edges.tolist()
            assert walker.values[r] == alone.value
            assert alone.value == pytest.approx(brute_force_max(g, w), abs=1e-10)
            assert not empty or alone.edges.tolist() == []


def test_max_weight_checks_a_large_value_to_its_rounding():
    # normal(0, 1e5) weights at n = 2000: the matching's sum and the sweep's
    # differ by rounding alone, which an absolute tolerance would refuse;
    # a matching one dimer short is still refused
    g = build_cylinder(2000, HGraph.path(2))
    law = Law.parse("normal(0,100000)")
    w = sample_weights(g, DisorderSpec(law, law), RngSeed(3))
    gs = max_weight(g, w)
    assert gs.value == pytest.approx(matching_weight(g, w, gs.edges), rel=1e-14)
    short = groundstate.decode_edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundstate, "decode_edges", lambda *a: np.sort(np.where(
            np.arange(g.num_vertices) == g.num_vertices - 1, -1, short(*a)), axis=1))
        with pytest.raises(AssertionError, match="argmax reconstruction mismatch"):
            max_weight(g, w)


def test_batch_values_match_single_instances():
    rng = np.random.default_rng(6)
    g = build_cylinder(7, HGraph.path(2))
    nus, ohs, ovs, singles = [], [], [], []
    for s in range(10):
        w = sample_weights(g, STD_NORMAL, RngSeed(77, s))
        nus.append(w.nu)
        ohs.append(w.omega_h)
        ovs.append(w.omega_v)
        singles.append(max_weight(g, w).value)
    batch = batch_max_values(g, np.stack(nus), np.stack(ohs), np.stack(ovs))
    assert np.allclose(batch, singles, atol=1e-10)


def test_disabled_edges_max_paths_match_enumeration():
    for g, ws in disabled_edge_batches(67):
        expect = [brute_force_max(g, w) for w in ws]
        batch = batch_max_values(g, np.stack([w.nu for w in ws]),
                                 np.stack([w.omega_h for w in ws]),
                                 np.stack([w.omega_v for w in ws]))
        assert np.allclose(batch, expect, rtol=0.0, atol=1e-10)
        for w, e in zip(ws, expect):
            gs = max_weight(g, w)
            assert gs.value == pytest.approx(e, abs=1e-10)
            assert matching_weight(g, w, gs.edges) == pytest.approx(e, abs=1e-9)


def test_ground_remainder_sandwich():
    rng = np.random.default_rng(8)
    for _ in range(12):
        g, w = random_instance(rng, n_lo=4, n_hi=10)
        rs = gse_remainder(g, w)
        assert rs.shape == (g.n - 1,)
        for r, bound in zip(rs, gse_remainder_bound(g, w), strict=True):
            assert -1e-9 <= r <= bound + 1e-9


def test_ground_remainder_bound_keeps_infinite_gauge_weights():
    # a -inf vertex weight makes the gauge weight of its cut edges +inf: the
    # bound keeps them, so it holds where a section loses its best matching
    rng = np.random.default_rng(9)
    infinite = 0
    for _ in range(40):
        g, w = random_instance(rng, n_lo=3, n_hi=8, max_vertices=20)
        nu = w.nu.copy()
        nu[rng.random(nu.shape) < 0.3] = -np.inf
        w = WeightAssignment(g, nu, w.omega_h, w.omega_v)
        if brute_force_max(g, w) == -np.inf:   # no matching covers the -inf vertices
            continue
        for r, bound in zip(gse_remainder(g, w), gse_remainder_bound(g, w), strict=True):
            assert -1e-9 <= r <= bound + 1e-9
            infinite += r == np.inf
    assert infinite > 0


@pytest.mark.parametrize("dead", ["", "edges", "all"])
def test_remainder_bound_matches_the_cut_by_cut_reference(dead):
    # every cut at once against one cut at a time: bit for bit up to h = 8,
    # where numpy adds a row in sequence, and to 1 ulp past it, where its
    # pairwise sum groups the zeros of disabled edges with the other terms
    for g, w in layout_instances(7, dead):
        got = gse_remainder_bound(g, w)
        ref = np.array([ground_remainder_bound(g, w, k) for k in range(1, g.n)])
        if g.h <= 8:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_array_max_ulp(got, ref, maxulp=1)


def test_gse_remainder_matches_restricted_solves():
    # the forward and flipped (max, +) sweeps against re-solving both sides
    for g, w in cut_instances(18):
        full = max_weight(g, w).value
        expect = [full - max_weight(*restrict(g, w, 1, k)).value
                  - max_weight(*restrict(g, w, k + 1, g.n)).value for k in range(1, g.n)]
        assert np.allclose(gse_remainder(g, w), expect, rtol=0.0, atol=1e-9)


def test_ground_remainder_zero_when_cut_edges_unattractive():
    # if every gauge-transformed cut weight is <= 0 the halves do not
    # interact and the concatenation bound is tight
    g = build_cylinder(6, HGraph.single())
    nu = np.full((6, 1), 1.0)
    oh = np.full((5, 1), -0.5)  # gauge weight -2.5 < 0 everywhere
    w = WeightAssignment(g, nu, oh, np.zeros((6, 0)))
    assert np.array_equal(gse_remainder_bound(g, w), np.zeros(g.n - 1))
    assert np.allclose(gse_remainder(g, w), 0.0, rtol=0.0, atol=1e-12)


def test_zero_temperature_ladder_single_edge():
    # two vertices, one edge: exact free energy is log(e^{b(n1+n2)} + e^{bw})/b
    g = build_cylinder(2, HGraph.single())
    w = WeightAssignment(g, np.array([[0.0], [0.0]]), np.array([[1.0]]),
                         np.zeros((2, 0)))
    betas = [1.0, 2.0, 4.0, 8.0, 16.0]
    lad = ground_zero_temperature_limit(g, w, betas, max_weight(g, w).value)
    assert lad.ground_value == pytest.approx(1.0)
    expect = [np.log(1.0 + np.exp(b * 1.0)) / b for b in betas]
    assert np.allclose(lad.free_energies, expect, atol=1e-12)
    assert np.all(np.diff(lad.gaps) < 0)
    # the gap can never exceed (log #matchings)/beta; here #matchings = 2
    assert np.all(lad.gaps <= np.log(2.0) / np.asarray(betas) + 1e-12)


def test_zero_temperature_gap_bounded_by_matching_count():
    rng = np.random.default_rng(10)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path2"])
    log_count = partition_polynomial(g, WeightAssignment.constant(g)).log_z()
    betas = [2.0, 8.0, 32.0]
    lad = ground_zero_temperature_limit(g, w, betas, max_weight(g, w).value)
    assert np.all(lad.gaps >= -1e-9)
    assert np.all(lad.gaps <= log_count / np.asarray(betas) + 1e-9)


def test_weights_of_another_cylinder_are_refused():
    g, other = build_cylinder(5, HGraph.path(2)), build_cylinder(6, HGraph.path(2))
    w = sample_weights(other, STD_NORMAL, RngSeed(8, 0))
    for route in (max_weight, gse_remainder):
        with pytest.raises(ValueError, match="belongs to a different graph"):
            route(g, w)


def test_zero_temperature_ladder_refuses_non_finite_betas():
    g, w = random_instance(np.random.default_rng(37), n_lo=3, n_hi=3, fibers=["path2"])
    for betas, named in (([1.0, float("nan")], "nan"), ([float("inf"), 2.0, float("-inf")], "inf, -inf")):
        with pytest.raises(ValueError, match=f"beta values must be finite, got {named}$"):
            ground_zero_temperature_limit(g, w, betas, max_weight(g, w).value)

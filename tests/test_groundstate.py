from __future__ import annotations

import numpy as np
import pytest

from dimerlab.graphs import (
    HGraph,
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
from dimerlab.sampler import matching_weight
from dimerlab.transfer import partition_polynomial

from helpers import STD_NORMAL, cut_instances, disabled_edge_batches, random_instance, restrict
from oracle import brute_force_max, horizontal_index


def test_max_weight_matches_enumeration():
    rng = np.random.default_rng(2025)
    for _ in range(15):
        g, w = random_instance(rng, n_lo=2, n_hi=6, max_vertices=14)
        gs = max_weight(g, w)
        assert gs.value == pytest.approx(brute_force_max(g, w), abs=1e-10)
        # the reported matching must achieve the reported value
        assert matching_weight(g, w, gs.matching) == pytest.approx(gs.value, abs=1e-9)


def test_zero_weights_prefer_empty_matching():
    # every matching ties; the first candidate of every step is S' = 0 and
    # the empty fiber matching
    for H in (HGraph.path(2), HGraph.cycle(3), HGraph.complete(4)):
        g = build_cylinder(5, H)
        gs = max_weight(g, WeightAssignment.constant(g))
        assert gs.value == pytest.approx(0.0)
        assert gs.matching.edge_indices == frozenset()


def test_large_edge_weight_forces_that_dimer():
    g = build_cylinder(4, HGraph.single())
    oh = np.zeros((3, 1))
    oh[1, 0] = 5.0
    w = WeightAssignment(g, np.zeros((4, 1)), oh, np.zeros((4, 0)))
    gs = max_weight(g, w)
    assert horizontal_index(g, 2, 1) in gs.matching.edge_indices
    assert gs.value == pytest.approx(5.0 + 0.0 + 0.0)


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
            assert matching_weight(g, w, gs.matching) == pytest.approx(e, abs=1e-9)


def test_ground_remainder_sandwich():
    rng = np.random.default_rng(8)
    for _ in range(12):
        g, w = random_instance(rng, n_lo=4, n_hi=10)
        rs = gse_remainder(g, w)
        assert rs.shape == (g.n - 1,)
        for k, r in enumerate(rs, start=1):
            assert -1e-9 <= r <= gse_remainder_bound(g, w, k) + 1e-9


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
        for k, r in enumerate(gse_remainder(g, w), start=1):
            assert -1e-9 <= r <= gse_remainder_bound(g, w, k) + 1e-9
            infinite += r == np.inf
    assert infinite > 0


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
    for k in range(1, g.n):
        assert gse_remainder_bound(g, w, k) == 0.0
    assert np.allclose(gse_remainder(g, w), 0.0, rtol=0.0, atol=1e-12)


def test_zero_temperature_ladder_single_edge():
    # two vertices, one edge: exact free energy is log(e^{b(n1+n2)} + e^{bw})/b
    g = build_cylinder(2, HGraph.single())
    w = WeightAssignment(g, np.array([[0.0], [0.0]]), np.array([[1.0]]),
                         np.zeros((2, 0)))
    betas = [1.0, 2.0, 4.0, 8.0, 16.0]
    lad = ground_zero_temperature_limit(g, w, betas)
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
    lad = ground_zero_temperature_limit(g, w, betas)
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
            ground_zero_temperature_limit(g, w, betas)

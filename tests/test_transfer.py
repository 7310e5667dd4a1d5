from __future__ import annotations

import itertools

import numpy as np
import pytest

from dimerlab.graphs import (
    HGraph,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    sample_weights,
)
from dimerlab import transfer
from dimerlab.experiments import make_fiber
from dimerlab.groundstate import gse_remainder, gse_remainder_bound, max_values
from dimerlab.leeyang import SpectrumError, density_functionals, spectrum
from dimerlab.sampler import GibbsSampler
from dimerlab.transfer import (
    LOG,
    MAX,
    NEG_INF,
    CapacityError,
    CountingMask,
    EmptyMeasureError,
    MonomerPolynomial,
    _blocked_log_z,
    _empty,
    _log_blocks,
    _resolve_mask,
    _vertex_sweep,
    batch_tables,
    cut_moments,
    cut_remainders,
    increment_laws,
    instance_tables,
    partition_polynomial,
    scalar_log_z,
    section_covariance,
)

from helpers import (
    STD_NORMAL, cut_instances, disabled_edge_batches, gauged, random_instance, restrict,
    sweep_steps, table_builds,
)
from oracle import (
    batch_scalar_log_z, brute_force_polynomial, edge_weight, edges, ground_remainder_bound,
    kill_vertex_edges, layer_cut_moments, layer_cut_remainders, layer_increment_laws,
    layer_max_values, neighbors, remainder_R, remainder_upper_bound, vertex_removed_polynomial,
    vertices,
)


def _assert_poly_close(p, q, tol=1e-10):
    assert p.mask_size == q.mask_size
    a, b = p.log_coeffs, q.log_coeffs
    both = np.isfinite(a) & np.isfinite(b)
    assert np.array_equal(np.isfinite(a), np.isfinite(b))
    assert np.max(np.abs(a[both] - b[both]), initial=0.0) <= tol


def test_path4_zero_weights_coefficients():
    # matchings of the 4-path by monomer count: one perfect, three single
    # dimers, one empty
    g = build_cylinder(4, HGraph.single())
    p = partition_polynomial(g, WeightAssignment.constant(g))
    expect = MonomerPolynomial([0.0, NEG_INF, np.log(3.0), NEG_INF, 0.0], N=4)
    _assert_poly_close(p, expect, tol=1e-12)
    assert p.log_z() == pytest.approx(np.log(5.0), abs=1e-12)


def test_transfer_matches_brute_force_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        g, w = random_instance(rng, n_lo=2, n_hi=6, max_vertices=14)
        _assert_poly_close(partition_polynomial(g, w), brute_force_polynomial(g, w))


def test_transfer_handles_disabled_edges():
    rng = np.random.default_rng(55)
    g, w = random_instance(rng, n_lo=4, n_hi=4, fibers=["path2"])
    w = kill_vertex_edges(w, [(2, 1)])
    _assert_poly_close(partition_polynomial(g, w), brute_force_polynomial(g, w))
    # batched and single scalar sweeps too, on path(2) and cycle(3)
    for g, ws in disabled_edge_batches(61):
        refs = [brute_force_polynomial(g, w) for w in ws]
        tables = batch_tables(g, np.stack([w.nu for w in ws]),
                              np.stack([w.omega_h for w in ws]),
                              np.stack([w.omega_v for w in ws]))
        for x in (-1.0, 0.0, 0.7):
            expect = [p.log_z(x) for p in refs]
            assert np.allclose(batch_scalar_log_z(tables, x), expect, rtol=0.0, atol=1e-10)
            for w, e in zip(ws, expect):
                assert scalar_log_z(g, w, x) == pytest.approx(e, abs=1e-10)
            # the moment sweep: log Z and the cumulants of the tilted count
            lz, mean, var = cut_moments(tables, 1, x)[:3]
            assert np.allclose(lz, expect, rtol=0.0, atol=1e-10)
            for r, p in enumerate(refs):
                assert (mean[r], var[r]) == pytest.approx(p.cumulants(x), rel=1e-10)
        for w, p in zip(ws, refs):
            _assert_poly_close(partition_polynomial(g, w), p)
        # the same all-vertex table gives both section counts at a cut; each
        # matches the cumulants of its own enumerated polynomial
        k = 2
        _, _, _, var_l, var_r, _ = cut_moments(tables, k)
        for r, w in enumerate(ws):
            for got, mask in ((var_l, CountingMask.layer_range(1, k)),
                              (var_r, CountingMask.layer_range(k + 1, g.n))):
                v = brute_force_polynomial(g, w, mask).cumulants()[1]
                assert got[r] == pytest.approx(v, rel=1e-10, abs=1e-12)


def _stacked(ws):
    return [np.stack([getattr(w, a) for w in ws]) for a in ("nu", "omega_h", "omega_v")]


def _batch(g, ws):
    return batch_tables(g, *_stacked(ws))


def _with_dead_vertices(g, w, rng, p=0.3):
    nu = w.nu.copy()
    nu[rng.random(nu.shape) < p] = NEG_INF
    return WeightAssignment(g, nu, w.omega_h, w.omega_v)


def test_replica_results_do_not_depend_on_their_batch():
    # every replica's results are array_equal alone and inside a batch
    rng = np.random.default_rng(83)
    cases = []
    for H in (HGraph.path(2), HGraph.cycle(3), HGraph.path(4)):
        g = build_cylinder(int(rng.integers(3, 8)), H)
        cases.append((g, [sample_weights(g, STD_NORMAL, RngSeed(83, r)) for r in range(6)]))
    cases += list(disabled_edge_batches(89))
    # one-layer cylinders too, whose fibers leave 8 or more matchings
    # avoiding some forbidden sets
    for H in (HGraph.path(6), HGraph.complete(4), HGraph.complete(5)):
        g = build_cylinder(1, H)
        ws = [sample_weights(g, STD_NORMAL, RngSeed(84, r)) for r in range(9)]
        tables = _batch(g, ws)
        for r, w in enumerate(ws):
            alone = _batch(g, [w])
            assert np.array_equal(max_values(tables)[r], max_values(alone)[0]), H
            assert np.array_equal(increment_laws(tables, [0, 1])[0][:, r], increment_laws(alone, [0, 1])[0][:, 0]), H
    for g, ws in cases:
        k, x = g.n // 2, 0.3

        def results(t):
            return [*cut_moments(t, k, x), max_values(t), cut_remainders(t, x=x).T, cut_remainders(t, MAX).T]

        batch = results(_batch(g, ws))
        for r, w in enumerate(ws):
            for got, ref in zip(batch, results(_batch(g, [w]))):
                assert np.array_equal(got[r], ref[0])
    # the increment laws close over the reserved sets of an interior cut: no
    # law depends on how many replicas share the batch
    cuts = [3, 10, 29]
    for H in (HGraph.path(3), HGraph.cycle(3), HGraph.path(4)):
        g = build_cylinder(30, H)
        ws = [sample_weights(g, STD_NORMAL, RngSeed(85, r)) for r in range(10)]
        batch = increment_laws(_batch(g, ws), cuts)
        for r, w in enumerate(ws):
            for got, ref in zip(batch, increment_laws(_batch(g, [w]), cuts)):
                assert np.array_equal(got[:, r], ref[:, 0]), (H, r)


def _transposed(h, n, seed, replicas=3):
    """A batch of path(h) x n and the same grid read as path(n) x h, whose
    vertex weights transpose and whose horizontal and fiber weights swap
    roles; replica 1 has a -inf vertex and a -inf edge."""
    g, gt = build_cylinder(n, HGraph.path(h)), build_cylinder(h, HGraph.path(n))
    nu, oh, ov = _stacked([sample_weights(g, STD_NORMAL, RngSeed(seed, r)) for r in range(replicas)])
    nu[1, 0, 0] = ov[1, -1, -1] = NEG_INF
    return (g, batch_tables(g, nu, oh, ov)), (gt, batch_tables(gt, *(a.transpose(0, 2, 1) for a in (nu, ov, oh))))


def test_a_transposed_grid_has_the_same_values():
    # path(h) x n is path(n) x h: every value of the grid agrees through two
    # vertex plans, at fiber sizes 2 to 12 (the layer oracle stops at 7), and
    # the coefficients of every replica of a batch where both sides are
    # within the polynomial caps
    for h, n in ((2, 6), (3, 5), (6, 4), (8, 3), (10, 4), (12, 5)):
        sides = _transposed(h, n, seed=h)
        (lz, mean, var), (lz_t, mean_t, var_t) = (cut_moments(t, g.n // 2)[:3] for g, t in sides)
        assert lz_t == pytest.approx(lz, rel=1e-13), (h, n)
        assert mean_t == pytest.approx(mean, rel=1e-13) and var_t == pytest.approx(var, rel=1e-13), (h, n)
        assert max_values(sides[1][1]) == pytest.approx(max_values(sides[0][1]), rel=0, abs=1e-12), (h, n)
        for r in range(3):
            one, one_t = (scalar_log_z(g, WeightAssignment(g, t["nu"][r], t["oh"][r], t["ov"][r]))
                          for g, t in sides)
            assert one == pytest.approx(lz[r], rel=1e-13) and one_t == pytest.approx(one, rel=1e-13), (h, n, r)
        if max(h, n) <= transfer.POLY_MAX_H:
            (lc,), (lc_t,) = (increment_laws(t, [0, g.n]) for g, t in sides)
            both = np.isfinite(lc)
            assert np.array_equal(both, np.isfinite(lc_t)), (h, n)
            assert np.max(np.abs(lc[both] - lc_t[both])) <= 1e-12, (h, n)


def _relabelled(tables, perm):
    """The batch of ``tables`` over its fiber relabelled, vertex b as
    ``perm[b]`` (0-based): the same cylinder, whose vertex plan and move
    codes visit the vertices in another order."""
    H = tables["H"]
    moved = {tuple(sorted((perm[a - 1] + 1, perm[c - 1] + 1))): e for e, (a, c) in enumerate(H.edges)}
    H_p = HGraph(H.h, tuple(moved))
    old = np.argsort(perm)   # new vertex j is old vertex old[j]
    return batch_tables(build_cylinder(tables["n"], H_p), tables["nu"][..., old], tables["oh"][..., old],
                        tables["ov"][..., [moved[edge] for edge in H_p.edges]])


def test_a_relabelled_fiber_has_the_same_values():
    # relabelling the fiber's vertices gives the same cylinder through
    # another vertex plan and other move codes: at fiber sizes 1 to 12 (the
    # layer oracle stops at 7), with -inf vertex and edge weights, every
    # column of cut_moments (cov relative to var_U), the LOG and MAX
    # remainders of every cut relative to the value they split, the
    # coefficients where h <= 6, and the value of the backward step
    rng = np.random.default_rng(14)
    for h in range(1, 13):
        H = HGraph.cycle(h) if h % 2 and h > 1 else HGraph.path(h)
        n = 7 if h <= 4 else 5 if h <= 8 else 3
        arrays = [rng.normal(size=(2, rows, cols)) for rows, cols in ((n, h), (n - 1, h), (n, len(H.edges)))]
        for a in arrays:
            a[rng.random(a.shape) < 1 / 12] = NEG_INF
        tables = batch_tables(build_cylinder(n, H), *arrays)
        sides = tables, _relabelled(tables, rng.permutation(h))
        for k in range(1, n):
            got, ref = (np.array(cut_moments(t, k, 0.3)) for t in sides)
            for c in range(6):
                _assert_rel(got[c], ref[c], np.abs(ref[2]) if c == 5 else np.maximum(np.abs(ref[c]), 1.0))
        for arith, x in ((LOG, 0.3), (MAX, 0.0)):
            (got, value), (ref, ref_value) = ((cut_remainders(t, arith, x), transfer.move_terms(t, arith, x)[0])
                                              for t in sides)
            scale = np.maximum(np.abs(ref_value), 1.0)
            _assert_rel(got, ref, scale)
            _assert_rel(np.array(value), np.array(ref_value), scale)
        if h <= transfer.POLY_MAX_H:
            _assert_laws_close(*(increment_laws(t, [0, n])[0] for t in sides))


def test_the_backward_terms_give_the_forward_message_after_every_vertex():
    # the terms of the moves into state s after vertex (i, b) are the very
    # sums that the forward step took: under MAX their largest is the
    # forward message after (i, b) at s, bit for bit, and under LOG their
    # log-sum is it to rounding.  At fiber sizes 1 to 12 with -inf vertex
    # and edge weights, over a batch whose every row is its replica's alone
    rng = np.random.default_rng(34)
    for h in range(1, 13):
        H = HGraph.cycle(h) if h % 2 and h > 1 else HGraph.path(h)
        n = 7 if h <= 4 else 5 if h <= 8 else 3
        arrays = [rng.normal(size=(3, rows, cols)) for rows, cols in ((n, h), (n - 1, h), (n, len(H.edges)))]
        for a in arrays:
            a[rng.random(a.shape) < 1 / 12] = NEG_INF
        tables = batch_tables(build_cylinder(n, H), *arrays)
        for arith, x in ((MAX, 0.0), (LOG, 0.3)):
            values, terms, _, _ = transfer.move_terms(tables, arith, x)
            fw = _vertex_sweep(_empty(1 << h, 3), tables["nu"] + x, tables["oh"], tables["ov"], tables["plan"],
                               arith, "vertex")
            fw = np.moveaxis(fw, -1, 0).reshape(terms.shape[:-1])   # [r, i, b, s]
            if arith is MAX:
                assert np.array_equal(terms.max(axis=-1), fw), h
            else:
                np.testing.assert_allclose(np.logaddexp.reduce(terms, axis=-1), fw, rtol=1e-12, atol=1e-12)
            assert np.array_equal(values, fw[:, -1, -1, 0]), (h, arith)
            for r in range(3):
                alone = {**tables, **{key: tables[key][r : r + 1] for key in ("nu", "oh", "ov")}}
                (value,), (row,), _, _ = transfer.move_terms(alone, arith, x)
                assert value == values[r] and np.array_equal(row, terms[r]), (h, arith, r)


def _section_oracle(g, w, k, x):
    """var_left, var_right and cov at cut k under tilt x, from the masked
    enumerated polynomials and section_covariance; the tilt shifts every
    vertex weight by x."""
    wx = WeightAssignment(g, w.nu + x, w.omega_h, w.omega_v)
    return (brute_force_polynomial(g, wx, CountingMask.layer_range(1, k)).cumulants()[1],
            brute_force_polynomial(g, wx, CountingMask.layer_range(k + 1, g.n)).cumulants()[1],
            section_covariance(g, wx, k))


def _stacked_with_dead_weights(g, seed):
    """Four replicas, one with -inf vertex weights at random, and a -inf
    vertex, fiber-edge and horizontal weight in the others."""
    ws = [sample_weights(g, STD_NORMAL, RngSeed(seed, r)) for r in range(4)]
    nu, oh, ov = _stacked(ws[:3] + [_with_dead_vertices(g, ws[3], np.random.default_rng(seed))])
    nu[1, 2, g.h - 1] = NEG_INF
    ov[2, 1:3, :1] = NEG_INF
    oh[0, 1] = NEG_INF
    return nu, oh, ov


# path, cycle and complete fibers of 1 to 7 vertices, with -inf weights;
# then path(2) at n = 512 and path(4) at n = 128, the sizes of campaign rungs
_ORACLE_CASES = [(f"{kind}({h})", 7 if h <= 4 else 4 if h <= 6 else 3, 0) for kind, hs in (
    ("path", range(1, 8)), ("cycle", range(3, 8)), ("complete", range(2, 7))) for h in hs]
_ORACLE_CASES += [("path(2)", 512, 8), ("path(4)", 128, 4)]


def _assert_rel(got, ref, scale, rel=1e-12):
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    live = np.isfinite(ref)
    assert np.all(np.abs(got[live] - ref[live]) <= rel * np.broadcast_to(scale, ref.shape)[live])


@pytest.mark.parametrize("fiber, n, R", _ORACLE_CASES,
                         ids=[f"{f}-n{n}" for f, n, _ in _ORACLE_CASES])
def test_every_route_matches_the_layer_oracle(fiber, n, R):
    # the vertex recursion against the oracle's layer sweep: the six moment
    # columns at a cut (cov relative to var_U), the maximum, and the LOG and
    # MAX remainders of every cut, relative to the value they split
    g = build_cylinder(n, make_fiber(fiber))
    weights = (_stacked([sample_weights(g, STD_NORMAL, RngSeed(62, r)) for r in range(R)]) if R
               else _stacked_with_dead_weights(g, 61))
    tables = batch_tables(g, *weights)
    for k, x in ((g.n // 2, 0.0), (1, -0.7), (g.n - 1, 0.4)):
        got, ref = cut_moments(tables, k, x), layer_cut_moments(tables, k, x)
        for c, (a, b) in enumerate(zip(got, ref)):
            _assert_rel(a, b, np.abs(ref[2]) if c == 5 else np.maximum(np.abs(b), 1.0))
    M = layer_max_values(tables)
    _assert_rel(max_values(tables), M, np.maximum(np.abs(M), 1.0))
    for arith, x in ((LOG, 0.0), (LOG, 0.6), (MAX, 0.0)):
        scale = np.abs(cut_moments(tables, 1, x)[0] if arith is LOG else M)
        _assert_rel(cut_remainders(tables, arith, x), layer_cut_remainders(tables, arith.name, x),
                    np.maximum(scale, 1.0))


def test_cut_moments_match_enumeration_at_every_cut():
    rng = np.random.default_rng(71)
    instances = [random_instance(rng, n_lo=2, n_hi=6, max_vertices=14) for _ in range(5)]
    instances += [(g, w) for g, ws in disabled_edge_batches(73) for w in ws]
    for g, w in instances:
        tables = instance_tables(g, w)
        whole = brute_force_polynomial(g, w)
        for x in (-1.0, 0.0, 0.7):
            mean, var = whole.cumulants(x)
            for k in range(1, g.n):
                lz, *got = (float(v[0]) for v in cut_moments(tables, k, x))
                assert lz == pytest.approx(whole.log_z(x), rel=0.0, abs=1e-10)
                assert got[:2] == pytest.approx([mean, var], rel=1e-10, abs=1e-12)
                var_l, var_r, cov = _section_oracle(g, w, k, x)
                assert got[2:4] == pytest.approx([var_l, var_r], rel=1e-10, abs=1e-12)
                assert abs(got[4] - cov) <= 1e-10 * var


def test_cut_moments_refuses_cuts_outside_the_cylinder():
    g, w = random_instance(np.random.default_rng(5), n_lo=4, n_hi=4, fibers=["path2"])
    tables = instance_tables(g, w)
    for k in (-1, 0, g.n, g.n + 1):
        with pytest.raises(ValueError, match="cut k"):
            cut_moments(tables, k)


def test_parity_of_coefficients():
    rng = np.random.default_rng(3)
    g, w = random_instance(rng, n_lo=3, n_hi=5, fibers=["path2"])
    p = partition_polynomial(g, w)
    finite = np.isfinite(p.log_coeffs)
    js = np.nonzero(finite)[0]
    assert np.all(js % 2 == g.num_vertices % 2)


def test_layer_mask_counts_only_requested_layers():
    rng = np.random.default_rng(9)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path2"])
    mask = CountingMask.layer_range(2, 3)
    p = partition_polynomial(g, w, mask)
    assert p.mask_size == 2 * g.h
    assert p.log_z() == pytest.approx(scalar_log_z(g, w), abs=1e-10)
    with pytest.raises(TypeError, match="a counting mask is a CountingMask"):
        partition_polynomial(g, w, np.ones((g.n, g.h)))
    # the masked polynomial and the masked scalar log Z are views of one
    # mask-free table; every layer range against its enumerated polynomial
    instances = [random_instance(rng, n_lo=1, n_hi=6, max_vertices=12) for _ in range(4)]
    instances.append(random_instance(rng, n_lo=8, n_hi=8, fibers=["path2"]))
    instances += [(g, w) for g, ws in disabled_edge_batches(53) for w in ws]
    for g, w in instances:
        for k in range(1, g.n + 1):
            for l in range(k, g.n + 1):
                mask = CountingMask.layer_range(k, l)
                ref = brute_force_polynomial(g, w, mask)
                _assert_poly_close(partition_polynomial(g, w, mask), ref, tol=1e-12)
                for x in (-1.0, 0.0, 0.7):
                    assert scalar_log_z(g, w, x, mask) == pytest.approx(ref.log_z(x), rel=0.0, abs=1e-12)


def test_scalar_route_matches_polynomial_log_z():
    rng = np.random.default_rng(12)
    for _ in range(8):
        g, w = random_instance(rng, n_lo=2, n_hi=7)
        p = partition_polynomial(g, w)
        for x in (-1.5, 0.0, 0.7):
            assert scalar_log_z(g, w, x) == pytest.approx(p.log_z(x), abs=1e-9)


def _blocked_cases():
    """(graph, weights) on path, cycle and complete fibers of 1 to 4
    vertices at n = 17 and 23, then the disabled-edge replicas of path(2)
    and cycle(3) at n = 13."""
    for H in (HGraph.single(), HGraph.path(2), HGraph.cycle(3), HGraph.complete(3),
              HGraph.path(4), HGraph.cycle(4), HGraph.complete(4)):
        for n in (17, 23):
            g = build_cylinder(n, H)
            yield g, sample_weights(g, STD_NORMAL, RngSeed(n, H.h))
    for g, ws in disabled_edge_batches(71, n=13):
        for w in ws:
            yield g, w


def test_blocked_log_z_agrees_with_the_batched_row():
    # every block count, also one that leaves a padded tail, at tilts x != 0
    # and under a counting mask, agrees with the sequential layer sweep
    for g, w in _blocked_cases():
        tables = instance_tables(g, w)
        for x, mask in ((0.0, None), (-0.8, None), (0.6, CountingMask.layer_range(3, g.n - 2))):
            ref = batch_scalar_log_z(tables, x, mask)[0]
            nu = w.nu + x * _resolve_mask(mask, g.n)[:, None]
            for K in (1, 2, 3, 4, 5, g.n):
                got = _blocked_log_z(nu, w.omega_h, w.omega_v, tables["plan"], K)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    # and the route the rule picks, where it blocks and where it does not
    for H, n, blocked in ((HGraph.single(), 40, True), (HGraph.path(2), 50, True),
                          (HGraph.complete(3), 130, True), (HGraph.single(), 15, False),
                          (HGraph.path(2), 9, False), (HGraph.cycle(3), 127, False),
                          (HGraph.path(4), 200, False), (HGraph.complete(5), 20, False)):
        g = build_cylinder(n, H)
        w = sample_weights(g, STD_NORMAL, RngSeed(5, 0))
        assert (_log_blocks(n, H.h) > 1) == blocked
        tables = instance_tables(g, w)
        for x, mask in ((0.4, None), (-0.3, CountingMask.layer_range(2, n - 7 if blocked else n - 1))):
            assert scalar_log_z(g, w, x, mask) == pytest.approx(
                batch_scalar_log_z(tables, x, mask)[0], rel=1e-13, abs=0.0)


def test_scalar_log_z_sweeps_about_sqrt_n_layers(monkeypatch):
    steps = sweep_steps(monkeypatch)
    g = build_cylinder(65536, HGraph.single())
    scalar_log_z(g, sample_weights(g, STD_NORMAL, RngSeed(1, 0)))
    assert {name for name, _, _ in steps} == {"log"}
    assert sum(layers for _, layers, _ in steps) <= 3 * 256
    # a fiber the rule leaves unblocked runs one n-layer sweep
    steps.clear()
    g = build_cylinder(64, HGraph.path(4))
    scalar_log_z(g, sample_weights(g, STD_NORMAL, RngSeed(1, 0)))
    assert steps == [("log", 64, 1)]


def test_forward_messages_terminal_state_is_log_z():
    rng = np.random.default_rng(21)
    g, w = random_instance(rng, n_lo=4, n_hi=6, fibers=["path2", "cycle3"])
    tables = instance_tables(g, w)
    nu, oh, ov = (tables[key] for key in ("nu", "oh", "ov"))
    msgs = _vertex_sweep(_empty(2**g.h, 1), nu + 0.4, oh, ov, tables["plan"], LOG, "layer")[..., 0]
    assert msgs.shape[0] == g.n
    assert msgs[-1, 0] == pytest.approx(scalar_log_z(g, w, 0.4), abs=1e-10)
    # the message at the empty reserved set after layer k is log Z of layers 1..k
    for k in range(1, g.n + 1):
        sub_g, sub_w = restrict(g, w, 1, k)
        assert msgs[k - 1, 0] == pytest.approx(scalar_log_z(sub_g, sub_w, 0.4), abs=1e-10)


def test_cumulants_match_pmf_moments():
    rng = np.random.default_rng(31)
    g, w = random_instance(rng, n_lo=3, n_hi=5)
    p = partition_polynomial(g, w)
    mean, var = p.cumulants(0.3, order=2)
    pr = p.pmf(0.3)
    j = np.arange(p.mask_size + 1)
    assert mean == pytest.approx(pr @ j, abs=1e-12)
    assert var == pytest.approx(pr @ (j - mean) ** 2, abs=1e-12)
    assert p.cumulants(0.3, order=1) == (mean,)
    for order in (0, 3):
        with pytest.raises(ValueError, match=f"^cumulant order must be 1 or 2, got {order}$"):
            p.cumulants(0.3, order=order)


def test_capacity_errors():
    big_h = build_cylinder(4, HGraph.path(7))
    w = WeightAssignment.constant(big_h)
    with pytest.raises(CapacityError):
        partition_polynomial(big_h, w)
    with pytest.raises(CapacityError):
        scalar_log_z(build_cylinder(3, HGraph.path(13)),
                     WeightAssignment.constant(build_cylinder(3, HGraph.path(13))))
    long_g = build_cylinder(1025, HGraph.single())
    with pytest.raises(CapacityError):
        partition_polynomial(long_g, WeightAssignment.constant(long_g))
    big_n = build_cylinder(12, HGraph.path(2))
    with pytest.raises(CapacityError):
        brute_force_polynomial(big_n, WeightAssignment.constant(big_n))


def test_restriction_equals_standalone_subcylinder():
    rng = np.random.default_rng(77)
    g, w = random_instance(rng, n_lo=6, n_hi=6, fibers=["path2"])
    p = partition_polynomial(*restrict(g, w, 2, 4))
    sub = build_cylinder(3, g.H)
    sub_w = WeightAssignment(sub, w.nu[1:4], w.omega_h[1:3], w.omega_v[1:4])
    _assert_poly_close(p, partition_polynomial(sub, sub_w), tol=1e-12)


def test_vertex_removal_on_two_path():
    g = build_cylinder(2, HGraph.single())
    w = WeightAssignment(g, np.array([[0.3], [-0.7]]), np.array([[0.2]]),
                         np.zeros((2, 0)))
    p = vertex_removed_polynomial(g, w, (2, 1))
    # removing vertex 2 leaves a single vertex with weight nu_1
    assert p.N == 1 and p.mask_size == 1
    assert p.log_coeffs[1] == pytest.approx(0.3, abs=1e-12)
    assert np.isneginf(p.log_coeffs[0])


def test_terminal_vertex_recurrence():
    # Z = e^{nu_v} Z(without v) + sum over edges vu of e^{omega} Z(without v,u)
    rng = np.random.default_rng(101)
    for _ in range(6):
        g, w = random_instance(rng, n_lo=3, n_hi=5, max_vertices=12)
        v = (g.n, int(rng.integers(1, g.h + 1)))
        total = np.exp(w.nu[v[0] - 1, v[1] - 1]
                       + vertex_removed_polynomial(g, w, v).log_z())
        for u in neighbors(g, v):
            kw = kill_vertex_edges(w, [v])
            pair = vertex_removed_polynomial(g, kw, u).log_z() - kw.nu[v[0] - 1, v[1] - 1]
            total += np.exp(edge_weight(w, u, v) + pair)
        assert np.log(total) == pytest.approx(scalar_log_z(g, w), abs=1e-9)


def test_remainder_nonnegative_and_bounded():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g, w = random_instance(rng, n_lo=4, n_hi=9)
        rs = remainder_R(g, w)
        assert rs.shape == (g.n - 1,)
        for k, r in enumerate(rs, start=1):
            assert -1e-9 <= r <= remainder_upper_bound(g, w, k) + 1e-9


def test_remainder_bounds_refuse_cuts_outside_the_cylinder():
    # the package bounds every cut at once; the per-cut references refuse
    # a cut that does not split the cylinder
    g, w = random_instance(np.random.default_rng(7), n_lo=5, n_hi=5, fibers=["path2"])
    assert gse_remainder_bound(g, w).shape == (4,)
    for bound in (remainder_upper_bound, ground_remainder_bound):
        for k in (-1, 0, 5, 6):
            with pytest.raises(ValueError, match=f"cut k={k} must satisfy 1 <= k < n=5"):
                bound(g, w, k)


def test_remainder_R_matches_restricted_solves():
    # the forward and flipped sweeps of one table against re-solving both
    # sides of each cut
    for g, w in cut_instances(17):
        for x in (-1.0, 0.0, 0.7):
            full = scalar_log_z(g, w, x)
            expect = [full - scalar_log_z(*restrict(g, w, 1, k), x)
                      - scalar_log_z(*restrict(g, w, k + 1, g.n), x) for k in range(1, g.n)]
            assert np.allclose(remainder_R(g, w, x), expect, rtol=0.0, atol=1e-9)


def test_remainder_slope_is_the_mean_count_gap():
    # dR/dx at cut k is the mean monomer count of layers 1..n minus those of
    # 1..k and k+1..n; a central difference of step h errs by O(h^2)
    rng = np.random.default_rng(29)
    g, w = random_instance(rng, n_lo=12, n_hi=12, fibers=["path2"])
    h = 1e-4

    def mean(lo, hi, x):
        return partition_polynomial(*restrict(g, w, lo, hi)).cumulants(x)[0]

    for x in (0.0, 0.4):
        slope = (remainder_R(g, w, x + h) - remainder_R(g, w, x - h)) / (2 * h)
        expect = [mean(1, g.n, x) - mean(1, k, x) - mean(k + 1, g.n, x) for k in range(1, g.n)]
        assert np.allclose(slope, expect, rtol=0.0, atol=1e-6)


def test_flipped_tables_keep_partition_function_and_ground_state():
    # a cylinder read from layer n down to layer 1 keeps the weight of every
    # matching: the layer-flipped table and weights, views, give the same
    # log Z, maximum and polynomial as the table itself
    for g, w in cut_instances(19):
        tables = instance_tables(g, w)
        flip = {**tables, **{key: tables[key][:, ::-1] for key in ("nu", "oh", "ov")}}
        assert batch_scalar_log_z(flip, 0.3)[0] == pytest.approx(
            batch_scalar_log_z(tables, 0.3)[0], abs=1e-10)
        assert max_values(flip)[0] == pytest.approx(max_values(tables)[0], abs=1e-10)
        (a,), (b,) = (increment_laws(t, [0, g.n])[0].T for t in (flip, tables))
        _assert_poly_close(MonomerPolynomial(a, g.num_vertices), MonomerPolynomial(b, g.num_vertices))


def test_increment_laws_match_masked_polynomials():
    # each replica's law on every layer range a+1..b, as the one increment
    # of the cuts [a, b] and as an increment of the finest grid, against the
    # enumerated polynomial of that range: small instances and batches with
    # disabled edges
    rng = np.random.default_rng(23)
    batches = [(g, [w]) for g, w in (random_instance(rng, n_lo=1, n_hi=7, max_vertices=14)
                                     for _ in range(6))]
    batches += list(disabled_edge_batches(23))
    for g, ws in batches:
        tables = _batch(g, ws)
        grid = increment_laws(tables, range(g.n + 1))
        for a in range(g.n):
            for b in range(a + 1, g.n + 1):
                (lc,) = increment_laws(tables, [a, b])
                for r, w in enumerate(ws):
                    ref = brute_force_polynomial(g, w, CountingMask.layer_range(a + 1, b))
                    for got in [lc] + [grid[a]] * (b == a + 1):
                        _assert_poly_close(MonomerPolynomial(got[:, r], g.num_vertices), ref, tol=1e-12)
    # at campaign sizes, the two sections of a cut against the section
    # variances of the moment sweeps of cut_moments
    for H, n in ((HGraph.path(2), 512), (HGraph.cycle(3), 64), (HGraph.path(4), 48)):
        g = build_cylinder(n, H)
        tables = _batch(g, [sample_weights(g, STD_NORMAL, RngSeed(29, r)) for r in range(3)])
        k = n // 3
        laws = increment_laws(tables, [0, k, n])
        var_l, var_r = cut_moments(tables, k)[3:5]
        for lc, var in zip(laws, (var_l, var_r)):
            for r in range(3):
                got = MonomerPolynomial(lc[:, r], g.num_vertices).cumulants()[1]
                assert got == pytest.approx(var[r], rel=1e-10, abs=0.0), (H, r)


def _assert_laws_close(got, ref, rel=1e-12):
    """Same support, and log coefficients within ``rel`` relative (absolute below 1)."""
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    live = np.isfinite(ref)
    assert np.all(np.abs(got[live] - ref[live]) <= rel * np.maximum(np.abs(ref[live]), 1.0))


def test_increment_laws_match_the_layer_degree_sweep():
    # the vertex recursion against the oracle's layer degree sweep over the
    # same tables, and against enumeration on about 12 vertices: whole
    # cylinders, interior cuts and the increments of partial masks, at
    # h = 1..6 on path and cycle fibers, with -inf vertex, fiber-edge and
    # horizontal weights
    def weights(g):
        nu, oh, ov = _stacked([sample_weights(g, STD_NORMAL, RngSeed(97, r)) for r in range(4)])
        nu[1, 1, g.h - 1] = NEG_INF
        ov[2, :, :1] = NEG_INF
        oh[3, 0] = NEG_INF
        return nu, oh, ov

    for H in [HGraph.path(h) for h in range(1, 7)] + [HGraph.cycle(h) for h in range(3, 7)]:
        n = 6 if H.h <= 4 else 4
        g = build_cylinder(n, H)
        tables = batch_tables(g, *weights(g))
        for cuts in ([0, n], [0, 2, n], [1, 3], [1, n - 1, n], range(n + 1)):
            for got, ref in zip(increment_laws(tables, cuts), layer_increment_laws(tables, cuts)):
                _assert_laws_close(got, ref)
        g = build_cylinder(max(2, 14 // H.h), H)
        nu, oh, ov = weights(g)
        tables = batch_tables(g, nu, oh, ov)
        for cuts in ([0, g.n], [0, 1, g.n], [0, g.n - 1]):
            for (a, b), lc in zip(zip(cuts, cuts[1:]), increment_laws(tables, cuts)):
                for r in range(4):
                    w = WeightAssignment(g, nu[r], oh[r], ov[r])
                    ref = brute_force_polynomial(g, w, CountingMask.layer_range(a + 1, b))
                    _assert_laws_close(lc[:, r], ref.log_coeffs)
    # the disabled-edge batches with a -inf vertex weight in two replicas
    for g, ws in disabled_edge_batches(99):
        nu, oh, ov = _stacked(ws)
        nu[0, 1, 0] = nu[2, g.n - 1, g.h - 1] = NEG_INF
        tables = batch_tables(g, nu, oh, ov)
        for k, l in ((1, g.n), (1, 2), (2, 3), (3, g.n)):
            (lc,) = increment_laws(tables, [k - 1, l])
            (ref,) = layer_increment_laws(tables, [k - 1, l])
            _assert_laws_close(lc, ref)
            for r in range(len(ws)):
                w = WeightAssignment(g, nu[r], oh[r], ov[r])
                _assert_laws_close(lc[:, r], brute_force_polynomial(g, w, CountingMask.layer_range(k, l)).log_coeffs)


def test_spectrum_refusals_match_the_layer_oracle_at_32_vertices():
    # at N = 32, where extraction is near its limit and a last-bit change in
    # a coefficient could flip a refusal: the vertex and layer coefficients
    # give the same refusals, the same largest zero to 1e-8 relative and
    # the same density functionals to 1e-11
    def spectra(coeffs, g):
        for lc in coeffs.T:
            try:
                sp = spectrum(MonomerPolynomial(lc, g.num_vertices).monic())
            except SpectrumError:
                yield None
                continue
            yield (sp.max_abs(), *density_functionals(sp, 0.0, g.n))

    for H, n in ((HGraph.path(4), 8), (HGraph.path(2), 16)):
        g = build_cylinder(n, H)
        tables = _batch(g, [sample_weights(g, STD_NORMAL, RngSeed(1, r)) for r in range(64)])
        (got,), (ref,) = increment_laws(tables, [0, n]), layer_increment_laws(tables, [0, n])
        for r, (a, b) in enumerate(zip(spectra(got, g), spectra(ref, g))):
            assert (a is None) == (b is None), (H, r)
            if a is not None:
                assert a[0] == pytest.approx(b[0], rel=1e-8, abs=0.0), (H, r)
                assert abs(a[1] - b[1]) <= 1e-11 and abs(a[2] - b[2]) <= 1e-11, (H, r)


def test_polynomials_run_one_degree_sweep_over_the_counted_layers(monkeypatch):
    # a whole cylinder is one vertex recursion over n layers and no LOG
    # sweep; a mask inside the cylinder adds the forward and flipped LOG
    # passes, as one sweep over both halves' columns, and the recursion
    # runs over its own layers only
    steps = sweep_steps(monkeypatch)
    for g, w in cut_instances(31):
        steps.clear()
        partition_polynomial(g, w)
        assert steps == [("degree", g.n, 1)]
        for k, l in ((1, g.n - 1), (2, g.n), (2, g.n - 1)):
            if 1 <= k <= l <= g.n:
                steps.clear()
                partition_polynomial(g, w, CountingMask.layer_range(k, l))
                assert steps == [("log", g.n, 2), ("degree", l - k + 1, 1)]


def _separate_sweeps(v, tables, fore, back, arith, x=0.0, each=None):
    """The reference of ``transfer._both_ways``: the forward sweep over
    ``fore`` layers and the flipped one over ``back``, each its own
    ``_vertex_sweep`` over the R replicas from the first layer on, under
    SCALED from contiguous copies of the weights, exponentiated."""
    R = tables["nu"].shape[0]
    factors = (lambda a: np.exp(np.array(a))) if arith is transfer.SCALED else np.asarray
    return [_vertex_sweep(np.broadcast_to(v, v.shape[:-1] + (R,)),
                          *map(factors, (nu[:, :layers] + x, oh[:, : layers - 1], ov[:, :layers])),
                          tables["plan"], arith, each)
            for layers, (nu, oh, ov) in zip((fore, back), (transfer._weights(tables, flipped)
                                                           for flipped in (False, True)))]


def _dead_batches(seed: int):
    """Batches of 3 replicas over path(1)..path(7) and cycle(3) at n = 7 and
    of 2 over path(12) at n = 4, with about one in twelve vertex and edge
    weights -inf."""
    rng = np.random.default_rng(seed)
    fibers = [HGraph.single()] + [HGraph.path(h) for h in range(2, 8)] + [HGraph.cycle(3), HGraph.path(12)]
    for H in fibers:
        n, R = (4, 2) if H.h == 12 else (7, 3)
        arrays = [rng.normal(size=(R, rows, cols)) for rows, cols in ((n, H.h), (n - 1, H.h), (n, len(H.edges)))]
        for a in arrays:
            a[rng.random(a.shape) < 1 / 12] = NEG_INF
        yield batch_tables(build_cylinder(n, H), *arrays)


def test_forward_and_flipped_halves_in_one_sweep_keep_every_bit(monkeypatch):
    # cut_moments, cut_remainders and increment_laws sweep both halves as
    # the 2R columns of one recursion over the layers they share, the longer
    # half going on alone; each output is bit for bit that of the two sweeps
    # run apart over their whole lengths, with -inf vertex and edge weights,
    # for cuts before, at and past the middle, and a tilt
    cases = []
    for tables in _dead_batches(27):
        n, h = tables["n"], tables["h"]
        calls = {f"moments k={k}": lambda t=tables, k=k: cut_moments(t, k, 0.3)
                 for k in sorted({1, 2, n // 2, n - 2, n - 1})}
        calls["remainders log"] = lambda t=tables: cut_remainders(t, LOG, 0.3)
        calls["remainders max"] = lambda t=tables: cut_remainders(t, MAX)
        if h <= transfer.POLY_MAX_H:
            calls["laws"] = lambda t=tables, n=n: increment_laws(t, [0, 2, 3, n])
        cases += [(tables, name, call, [np.asarray(a) for a in call()]) for name, call in calls.items()]
    monkeypatch.setattr(transfer, "_both_ways", _separate_sweeps)
    for tables, name, call, joint in cases:
        apart = call()
        assert len(joint) == len(apart) and all(map(np.array_equal, joint, apart)), (tables["H"], name)


def _past_the_certificate():
    """Batches whose replica 0 is past the certificate of the scaled moment
    sweep (``transfer.SCALED``), beside two normal(0,1) replicas: at
    path(2), of normal(0,100) weights; at path(12), n = 4, of weights about
    -50, whose terms underflow inside a layer; and at path(2), n = 24, of
    weights in [-99, 99], within the weight bound, whose states spread past
    the range bound, with -inf vertex and edge weights as the batch's other
    replicas have."""
    def draw(g, R, rng, law, dead):
        arrays = [law(rng, (R, rows, cols)) for rows, cols in ((g.n, g.h), (g.n - 1, g.h), (g.n, len(g.H.edges)))]
        for a, p in zip(arrays, (dead, 0.4 * dead, 0.6 * dead)):
            a[rng.random(a.shape) < p] = NEG_INF
        return arrays

    rng = np.random.default_rng(92)
    for n, h, law, dead in ((9, 2, lambda r, size: r.normal(0.0, 100.0, size), 0.0),
                            (4, 12, lambda r, size: r.normal(-50.0, 0.1, size), 0.0),
                            (24, 2, lambda r, size: r.uniform(-99.0, 99.0, size), 0.5)):
        g = build_cylinder(n, HGraph.path(h))
        past = draw(g, 1, np.random.default_rng(25) if dead else rng, law, dead)
        yield batch_tables(g, *map(np.concatenate, zip(past, draw(g, 2, rng, lambda r, size: r.normal(size=size),
                                                                  dead / 10))))


def test_replicas_past_the_certificate_run_the_moment_sweep(monkeypatch):
    # cut_moments sweeps in scaled linear arithmetic; a replica past its
    # certificate runs again by the MOMENT sweeps, alone of its batch and
    # before an empty measure is refused: its row is that of the MOMENT
    # route, the other rows are not, and every row is the replica's alone
    steps = sweep_steps(monkeypatch)
    for tables in _past_the_certificate():
        n, R = tables["n"], tables["nu"].shape[0]
        for k, x in ((n // 2, 0.0), (1, 0.4)):
            steps.clear()
            got = np.array(cut_moments(tables, k, x))
            assert [s for s in steps if s[0] == "moment"][0] == ("moment", min(k, n - k), 2)
            with monkeypatch.context() as m:   # every replica past the certificate
                m.setattr(transfer, "_FACTOR_BITS", -np.inf)
                log = np.array(cut_moments(tables, k, x))
            assert np.array_equal(got[:, 0], log[:, 0]), (tables["H"], k)
            assert not np.array_equal(got[:, 1:], log[:, 1:]), (tables["H"], k)
            for r in range(R):
                alone = {**tables, **{key: tables[key][r : r + 1] for key in ("nu", "oh", "ov")}}
                assert np.array_equal(got[:, r], np.array(cut_moments(alone, k, x))[:, 0]), (tables["H"], k, r)
            if tables["h"] <= 7:
                for c, ref in enumerate(layer_cut_moments(tables, k, x)):
                    _assert_rel(got[c], ref, np.abs(got[2]) if c == 5 else np.maximum(np.abs(ref), 1.0))


def test_increment_laws_refuse_bad_cuts():
    g, w = random_instance(np.random.default_rng(5), n_lo=4, n_hi=4, fibers=["path2"])
    tables = instance_tables(g, w)
    for cuts in ([], [2], [0, 0, 4], [-1, 4], [0, 5], [3, 1], [0, 2, 2, 4]):
        with pytest.raises(ValueError, match=r"must strictly increase inside \[0:4\]"):
            increment_laws(tables, cuts)


def test_remainders_build_one_table():
    for g, w in cut_instances(20):
        assert table_builds(lambda: remainder_R(g, w, 0.3)) == 1
        assert table_builds(lambda: gse_remainder(g, w)) == 1


def test_monic_shifts_by_the_all_monomer_coefficient():
    # the gauge to zero vertex weights divides Z by exp(sum nu)
    rng = np.random.default_rng(41)
    for _ in range(4):
        g, w = random_instance(rng, n_lo=2, n_hi=5)
        _assert_poly_close(partition_polynomial(g, w).monic(), partition_polynomial(g, gauged(w)))
    # a -inf vertex weight leaves no all-monomer matching to divide by
    nu = np.array(w.nu, copy=True)
    nu[0, 0] = -np.inf
    p = partition_polynomial(g, WeightAssignment(g, nu, w.omega_h, w.omega_v))
    with pytest.raises(ValueError, match=r"vanishes \(a vertex weight is -inf\)"):
        p.monic()
    with pytest.raises(ValueError, match=r"not counted \(partial mask\)"):
        partition_polynomial(g, w, CountingMask.layer_range(1, 1)).monic()


@pytest.mark.parametrize("H, n, dead", [
    # an odd number of vertices, each of weight -inf: no perfect matching
    (HGraph.single(), 5, ("nu",)),
    (HGraph.cycle(3), 5, ("nu",)),
    (HGraph.path(2), 6, ("nu", "omega_h", "omega_v")),
], ids=["single-odd", "cycle3-odd", "path2-all"])
def test_every_batched_route_refuses_an_empty_replica(H, n, dead):
    # replica 2 of 4 has no matching of finite weight: the moments, the
    # maximum and both remainders refuse it by one rule, where they would
    # give log Z = M = -inf next to zero moments and NaN remainders
    # (-inf - -inf); the batch without it runs, each replica as alone
    g = build_cylinder(n, H)
    ws = [sample_weights(g, STD_NORMAL, RngSeed(8, r)) for r in range(4)]
    ws[2] = WeightAssignment(g, *(np.full_like(getattr(ws[2], a), NEG_INF) if a in dead
                                  else getattr(ws[2], a) for a in ("nu", "omega_h", "omega_v")))
    routes = {
        "cut_moments": lambda t: cut_moments(t, 2, 0.3),
        "max_values": max_values,
        "cut_remainders LOG": cut_remainders,
        "cut_remainders MAX": lambda t: cut_remainders(t, MAX),
    }
    tables, kept = _batch(g, ws), _batch(g, ws[:2] + ws[3:])
    for name, route in routes.items():
        with pytest.raises(EmptyMeasureError, match=r"^replica 2 has no matching of finite weight"
                                                    r" \(1 of 4\): empty Gibbs measure$") as err:
            route(tables)
        assert err.value.replicas.tolist() == [2], name
        assert np.isfinite(np.asarray(route(kept))).all(), name
    assert np.array_equal(cut_remainders(kept)[:, 2], remainder_R(g, ws[3]))


def test_the_backward_step_names_an_empty_replica_in_its_batch():
    # the sampler and the argmax sweep read their whole batch: an empty
    # replica 2 of 4 (3 vertices of weight -inf, no perfect matching) is
    # refused in the words of every batched route, and the batch without
    # it runs
    g = build_cylinder(3, HGraph.single())
    ws = [sample_weights(g, STD_NORMAL, RngSeed(8, r)) for r in range(4)]
    ws[2] = WeightAssignment(g, np.full(3, NEG_INF), ws[2].omega_h, ws[2].omega_v)
    tables, kept = _batch(g, ws), _batch(g, ws[:2] + ws[3:])
    for route in (lambda t: GibbsSampler(t).log_z, lambda t: transfer.move_terms(t, MAX)[0]):
        with pytest.raises(EmptyMeasureError, match=r"^replica 2 has no matching of finite weight"
                                                    r" \(1 of 4\): empty Gibbs measure$") as err:
            route(tables)
        assert err.value.replicas.tolist() == [2]
        assert np.isfinite(route(kept)).all()


def test_remainder_vanishes_on_disconnected_cut():
    rng = np.random.default_rng(14)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path2"])
    oh = np.array(w.omega_h, copy=True)
    oh[2, :] = -np.inf  # sever the cylinder between layers 3 and 4
    w2 = WeightAssignment(g, w.nu, oh, w.omega_v)
    assert remainder_R(g, w2)[2] == pytest.approx(0.0, abs=1e-10)


def _enumerated_section_cov(g, w, k):
    all_edges = edges(g)
    cov_num = mean_l = mean_r = total = 0.0
    for size in range(len(all_edges) + 1):
        for combo in itertools.combinations(range(len(all_edges)), size):
            used = set()
            ok = True
            for ei in combo:
                a, b = all_edges[ei]
                if a in used or b in used:
                    ok = False
                    break
                used.add(a)
                used.add(b)
            if not ok:
                continue
            weight = sum(edge_weight(w, *all_edges[ei]) for ei in combo)
            weight += sum(w.nu[i - 1, j - 1] for (i, j) in vertices(g)
                          if (i, j) not in used)
            ul = sum(1 for (i, j) in vertices(g) if i <= k and (i, j) not in used)
            ur = sum(1 for (i, j) in vertices(g) if i > k and (i, j) not in used)
            z = np.exp(weight)
            total += z
            mean_l += z * ul
            mean_r += z * ur
            cov_num += z * ul * ur
    mean_l /= total
    mean_r /= total
    return cov_num / total - mean_l * mean_r


def test_section_covariance_matches_enumeration():
    rng = np.random.default_rng(23)
    g, w = random_instance(rng, n_lo=4, n_hi=4, fibers=["path2"])
    got = []
    # the three laws are increments of one table
    assert table_builds(lambda: got.append(section_covariance(g, w, 2))) == 1
    assert got[0] == pytest.approx(_enumerated_section_cov(g, w, 2), abs=1e-9)


def test_polynomial_payload_round_trip():
    rng = np.random.default_rng(37)
    g, w = random_instance(rng, n_lo=3, n_hi=4)
    p = partition_polynomial(g, w)
    d = p.to_payload()
    q = MonomerPolynomial([NEG_INF if v is None else v for v in d["log_coeffs"]], d["N"], d["mask_size"])
    _assert_poly_close(p, q, tol=0.0)
    assert q.N == p.N

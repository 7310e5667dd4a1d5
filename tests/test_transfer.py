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
from dimerlab.transfer import (
    NEG_INF,
    CapacityError,
    CountingMask,
    MonomerPolynomial,
    _blocked_log_z,
    _log_blocks,
    _moment_W,
    _tilted_W,
    batch_tables,
    cut_moments,
    increment_laws,
    instance_tables,
    messages,
    partition_polynomial,
    scalar_log_z,
    section_covariance,
)

from helpers import (
    STD_NORMAL, cut_instances, disabled_edge_batches, random_instance, restrict,
    sweep_steps, table_builds,
)
from oracle import (
    batch_scalar_log_z, brute_force_polynomial, full_moment_W, full_tilted_W, kill_vertex_edges,
    remainder_R, remainder_upper_bound, vertex_removed_polynomial,
)


def _assert_poly_close(p, q, tol=1e-10):
    assert p.mask_size == q.mask_size
    a, b = p.log_coeffs, q.log_coeffs
    both = np.isfinite(a) & np.isfinite(b)
    assert np.array_equal(np.isfinite(a), np.isfinite(b))
    assert np.max(np.abs(a[both] - b[both]), initial=0.0) <= tol


def _fiber_rows_per_forbidden_set(H):
    """The fiber rows of each forbidden set F from a depth-first recursion of its own."""
    out = []
    for F in range(1 << H.h):
        rows = []

        def rec(e, used, chosen):
            if e == len(H.edges):
                rows.append((chosen, used))
                return
            rec(e + 1, used, chosen)
            a, b = H.edges[e]
            pair = 1 << (a - 1) | 1 << (b - 1)
            if not used & pair:
                rec(e + 1, used | pair, chosen + (e,))

        rec(0, F, ())
        out.append(rows)
    return out


@pytest.mark.parametrize("fiber", ["single"] + [f"path({k})" for k in range(2, 8)]
                         + [f"cycle({k})" for k in range(3, 8)]
                         + [f"complete({k})" for k in range(2, 7)])
def test_fiber_tables_from_one_enumeration_match_one_recursion_per_forbidden_set(
        monkeypatch, fiber):
    # the same rows in the same order, so the same row groups and, bit for
    # bit, the same layer tables
    H = make_fiber(fiber)
    g = build_cylinder(3, H)
    w = sample_weights(g, STD_NORMAL, RngSeed(5, 0))
    ht, tables = transfer._HTables(H), instance_tables(g, w)
    monkeypatch.setattr(transfer, "_fiber_rows", _fiber_rows_per_forbidden_set)
    ref = transfer._HTables(H)
    monkeypatch.setattr(transfer, "_h_tables", lambda _: ref)
    assert ht.fiber_edges == ref.fiber_edges
    for key in ("fiber_start", "row_edges", "row_mono"):
        assert np.array_equal(getattr(ht, key), getattr(ref, key)), key
    assert [(d, F, rows.tolist()) for d, F, rows in ht.groups] == \
        [(d, F, rows.tolist()) for d, F, rows in ref.groups]
    want = instance_tables(g, w)
    for key in ("B", "scores"):
        assert np.array_equal(tables[key], want[key]), key


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


def _batch(g, ws):
    return batch_tables(g, *(np.stack([getattr(w, a) for w in ws]) for a in ("nu", "omega_h", "omega_v")))


def test_replica_results_do_not_depend_on_their_batch(monkeypatch):
    # every replica's results are array_equal alone and inside a batch, and
    # the tables carry the documented layer-major, replica-last layout
    rng = np.random.default_rng(83)
    cases = []
    for H in (HGraph.path(2), HGraph.cycle(3), HGraph.path(4)):
        g = build_cylinder(int(rng.integers(3, 8)), H)
        cases.append((g, [sample_weights(g, STD_NORMAL, RngSeed(83, r)) for r in range(6)]))
    cases += list(disabled_edge_batches(89))
    # one-layer tables too, where a batch of one holds one number per fiber
    # row and some forbidden sets of these fibers leave 8 or more rows
    for H in (HGraph.path(6), HGraph.complete(4), HGraph.complete(5)):
        g = build_cylinder(1, H)
        ws = [sample_weights(g, STD_NORMAL, RngSeed(84, r)) for r in range(9)]
        tables = _batch(g, ws)
        for r, w in enumerate(ws):
            alone = _batch(g, [w])
            for key in ("B", "scores"):
                assert np.array_equal(tables[key][..., r], alone[key][..., 0]), (H, key)
    for g, ws in cases:
        tables = _batch(g, ws)
        rows, R = tables["ht"].fiber_start[-1], len(ws)
        shapes = {"B": (g.h + 1, g.n, 2**g.h, R), "hsum": (g.n - 1, 2**g.h, R),
                  "scores": (rows, g.n, R)}
        for key, shape in shapes.items():
            assert tables[key].shape == shape and tables[key].flags.c_contiguous, key
        k, x = g.n // 2, 0.3

        def results(t):
            return [*cut_moments(t, k, x), max_values(t), batch_scalar_log_z(t, x)]

        batch, W = results(tables), _tilted_W(tables, x)
        for r, w in enumerate(ws):
            alone = _batch(g, [w])
            for got, ref in zip(batch, results(alone)):
                assert np.array_equal(got[r], ref[0])
            assert np.array_equal(W[..., r], _tilted_W(alone, x)[..., 0])
    # the increment laws close over the reserved sets of an interior cut: no
    # law depends on how many replicas share the batch or the block
    cuts = [3, 10, 29]
    for H in (HGraph.path(3), HGraph.cycle(3), HGraph.path(4)):
        g = build_cylinder(30, H)
        ws = [sample_weights(g, STD_NORMAL, RngSeed(85, r)) for r in range(10)]
        tables = _batch(g, ws)
        batch = increment_laws(tables, cuts)
        for r, w in enumerate(ws):
            for got, ref in zip(batch, increment_laws(_batch(g, [w]), cuts)):
                assert np.array_equal(got[:, r], ref[:, 0]), (H, r)
        for block in (1, 1 << 30):
            monkeypatch.setattr(transfer, "_POLY_BLOCK", block)
            for got, ref in zip(increment_laws(tables, cuts), batch):
                assert np.array_equal(got, ref), (H, block)
        monkeypatch.undo()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_rank_blocks_reduce_with_the_bits_of_reduceat():
    # every ufunc of the semirings, on terms by (previous set, new set) with
    # -inf entries and a leading axis, laid out in each reducer's order
    rng = np.random.default_rng(91)
    for H in (HGraph.single(), HGraph.path(2), HGraph.path(3), HGraph.cycle(3)):
        ht = transfer._h_tables(H)
        assert np.diff(ht.pair_start).max() <= 8   # the largest segment
        terms = rng.normal(size=(2, ht.states, ht.states, 7))
        terms[terms < -1.2] = NEG_INF
        for vals in (terms, np.exp(terms)):
            for ufunc in (np.add, np.maximum, np.logaddexp):
                got, ref = (red(ufunc, vals[:, red.s, red.next]) for red in (ht.rank_blocks, ht.reduce_at))
                assert _same_bits(got, ref), (H, ufunc)
    assert transfer._h_tables(HGraph.path(4)).rank_blocks is None


def test_sweeps_give_the_same_bits_under_either_reducer(monkeypatch):
    # rank blocks (threshold 0) against reduceat (a threshold no batch
    # reaches) over whole routes, at h = 1, 2, 3 and with disabled edges
    cases = []
    for H in (HGraph.single(), HGraph.path(2), HGraph.path(3), HGraph.cycle(3)):
        g = build_cylinder(7, H)
        cases.append((g, [sample_weights(g, STD_NORMAL, RngSeed(93, r)) for r in range(5)]))
    cases += list(disabled_edge_batches(95, n=6))
    rank_calls = []
    rank_call = transfer._RankBlocks.__call__
    monkeypatch.setattr(transfer._RankBlocks, "__call__",
                        lambda self, *a: rank_calls.append(1) or rank_call(self, *a))

    def routes(g, ws):
        tables = _batch(g, ws)
        W = _tilted_W(tables, 0.4)
        single = instance_tables(g, ws[0])
        return [*cut_moments(tables, 3, -0.5), max_values(tables),
                messages(W, tables), messages(W, tables, flipped=True),
                *increment_laws(tables, [0, 2, 5, g.n]),
                _blocked_log_z(_tilted_W(single, 0.4), single["hsum"], single["ht"], 3)]

    for g, ws in cases:
        got = []
        for block, used in ((0, True), (1 << 62, False)):
            monkeypatch.setattr(transfer, "_RANK_MIN_BLOCK", block)
            rank_calls.clear()
            got.append(routes(g, ws))
            assert bool(rank_calls) == used
        for a, b in zip(*got):
            assert _same_bits(a, b), g.H


def _with_dead_vertices(g, w, rng, p=0.3):
    nu = w.nu.copy()
    nu[rng.random(nu.shape) < p] = NEG_INF
    return WeightAssignment(g, nu, w.omega_h, w.omega_v)


def test_direct_columns_of_the_tilt_collapses_match_the_full_collapse():
    # the sets whose fiber rows all leave one monomer count are written
    # directly and the others summed over the counts they reach: every entry
    # has the bits of the log-sum-exp over every d, -inf and signed zeros too
    rng = np.random.default_rng(97)
    cases = list(disabled_edge_batches(97, n=5))
    for H in (HGraph.single(), HGraph.path(2), HGraph.cycle(3), HGraph.path(4), HGraph.complete(4)):
        g = build_cylinder(5, H)
        ws = [sample_weights(g, STD_NORMAL, RngSeed(97, r)) for r in range(3)]
        cases.append((g, [*ws, _with_dead_vertices(g, ws[0], rng)]))
    for g, ws in cases:
        tables = _batch(g, ws)
        ht = tables["ht"]
        assert ht.one_count and (tables["B"] == NEG_INF).any()
        assert sorted(np.concatenate([ht.mixed, *(sets for _, sets in ht.one_count)])) == list(range(ht.states))
        mask = CountingMask.layer_range(2, g.n - 1)
        # and a table of -0.0 weights, which a -0.0 tilt (x < 0, d = 0) keeps
        for t in (tables, {**tables, "B": np.where(tables["B"] == NEG_INF, NEG_INF, -0.0)}):
            for x in (0.0, -0.6, 1.3):
                assert _same_bits(_tilted_W(t, x), full_tilted_W(t, x))
                assert _same_bits(_tilted_W(t, x, mask), full_tilted_W(t, x, mask))
                assert _same_bits(_moment_W(t, x), full_moment_W(t, x))


def _section_oracle(g, w, k, x):
    """var_left, var_right and cov at cut k under tilt x, from the masked
    enumerated polynomials and section_covariance; the tilt shifts every
    vertex weight by x."""
    wx = WeightAssignment(g, w.nu + x, w.omega_h, w.omega_v)
    return (brute_force_polynomial(g, wx, CountingMask.layer_range(1, k)).cumulants()[1],
            brute_force_polynomial(g, wx, CountingMask.layer_range(k + 1, g.n)).cumulants()[1],
            section_covariance(g, wx, k))


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
    # and under a counting mask, agrees with the sequential batched sweep
    for g, w in _blocked_cases():
        tables = instance_tables(g, w)
        for x, mask in ((0.0, None), (-0.8, None), (0.6, CountingMask.layer_range(3, g.n - 2))):
            ref = batch_scalar_log_z(tables, x, mask)[0]
            W = _tilted_W(tables, x, mask)
            for K in (2, 3, 4, 5, g.n):
                got = _blocked_log_z(W, tables["hsum"], tables["ht"], K)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    # and the route the rule picks, where it blocks
    for H, n in ((HGraph.single(), 40), (HGraph.path(2), 50), (HGraph.complete(3), 130)):
        g = build_cylinder(n, H)
        w = sample_weights(g, STD_NORMAL, RngSeed(5, 0))
        assert _log_blocks(n, H.h) > 1
        tables = instance_tables(g, w)
        for x, mask in ((0.4, None), (-0.3, CountingMask.layer_range(2, n - 7))):
            assert scalar_log_z(g, w, x, mask) == pytest.approx(
                batch_scalar_log_z(tables, x, mask)[0], rel=1e-13, abs=0.0)


def test_unblocked_scalar_log_z_is_the_batched_row():
    # where blocking does not pay, the single-instance value is the batched
    # row bit for bit
    for H, n in ((HGraph.single(), 15), (HGraph.path(2), 9), (HGraph.cycle(3), 127),
                 (HGraph.path(4), 200), (HGraph.complete(5), 20)):
        assert _log_blocks(n, H.h) == 1
        g = build_cylinder(n, H)
        w = sample_weights(g, STD_NORMAL, RngSeed(8, 0))
        tables = instance_tables(g, w)
        for x, mask in ((0.0, None), (0.7, CountingMask.layer_range(2, n - 1))):
            assert np.array_equal(scalar_log_z(g, w, x, mask), batch_scalar_log_z(tables, x, mask)[0])


def test_scalar_log_z_sweeps_about_sqrt_n_layers(monkeypatch):
    steps = sweep_steps(monkeypatch)
    g = build_cylinder(65536, HGraph.single())
    scalar_log_z(g, sample_weights(g, STD_NORMAL, RngSeed(1, 0)))
    assert {name for name, _ in steps} == {"log"}
    assert sum(layers for _, layers in steps) <= 3 * 256
    # a fiber the rule leaves unblocked runs one n-layer sweep
    steps.clear()
    g = build_cylinder(64, HGraph.path(4))
    scalar_log_z(g, sample_weights(g, STD_NORMAL, RngSeed(1, 0)))
    assert steps == [("log", 64)]


def test_forward_messages_terminal_state_is_log_z():
    rng = np.random.default_rng(21)
    g, w = random_instance(rng, n_lo=4, n_hi=6, fibers=["path2", "cycle3"])
    tables = instance_tables(g, w)
    msgs = messages(_tilted_W(tables, 0.4), tables)[..., 0]
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
    mean, var, k3, k4 = p.cumulants(0.3, order=4)
    pr = p.pmf(0.3)
    j = np.arange(p.mask_size + 1)
    assert mean == pytest.approx(pr @ j, abs=1e-12)
    assert var == pytest.approx(pr @ (j - mean) ** 2, abs=1e-12)
    assert k3 == pytest.approx(pr @ (j - mean) ** 3, abs=1e-12)
    assert k4 == pytest.approx(pr @ (j - mean) ** 4 - 3 * var**2, abs=1e-12)


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
        for u in g.neighbors(v):
            kw = kill_vertex_edges(w, [v])
            pair = vertex_removed_polynomial(g, kw, u).log_z() - kw.nu[v[0] - 1, v[1] - 1]
            total += np.exp(w.omega_of(u, v) + pair)
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
    g, w = random_instance(np.random.default_rng(7), n_lo=5, n_hi=5, fibers=["path2"])
    for bound in (remainder_upper_bound, gse_remainder_bound):
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
    # matching: the layer-flipped table, a view, gives the same log Z, maximum
    # and polynomial as the table itself
    for g, w in cut_instances(19):
        tables = instance_tables(g, w)
        flip = {**tables, "B": tables["B"][:, ::-1], "hsum": tables["hsum"][::-1],
                "scores": tables["scores"][:, ::-1]}
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


def test_polynomials_run_one_degree_sweep_over_the_counted_layers(monkeypatch):
    # a whole cylinder is one n-layer degree sweep and no LOG sweep; a mask
    # inside the cylinder adds the forward and flipped LOG passes and sweeps
    # its own layers, after the forward message when it starts past layer 1
    steps = sweep_steps(monkeypatch)
    for g, w in cut_instances(31):
        steps.clear()
        partition_polynomial(g, w)
        assert steps == [("degree", g.n)]
        for k, l in ((1, g.n - 1), (2, g.n), (2, g.n - 1)):
            if 1 <= k <= l <= g.n:
                steps.clear()
                partition_polynomial(g, w, CountingMask.layer_range(k, l))
                assert steps == [("log", g.n), ("log", g.n), ("degree", l - k + 1 + (k > 1))]


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
        _assert_poly_close(partition_polynomial(g, w).monic(), partition_polynomial(g, w.gauged()))
    # a -inf vertex weight leaves no all-monomer matching to divide by
    nu = np.array(w.nu, copy=True)
    nu[0, 0] = -np.inf
    p = partition_polynomial(g, WeightAssignment(g, nu, w.omega_h, w.omega_v))
    with pytest.raises(ValueError, match=r"vanishes \(a vertex weight is -inf\)"):
        p.monic()
    with pytest.raises(ValueError, match=r"not counted \(partial mask\)"):
        partition_polynomial(g, w, CountingMask.layer_range(1, 1)).monic()


def test_remainder_vanishes_on_disconnected_cut():
    rng = np.random.default_rng(14)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path2"])
    oh = np.array(w.omega_h, copy=True)
    oh[2, :] = -np.inf  # sever the cylinder between layers 3 and 4
    w2 = WeightAssignment(g, w.nu, oh, w.omega_v)
    assert remainder_R(g, w2)[2] == pytest.approx(0.0, abs=1e-10)


def _enumerated_section_cov(g, w, k):
    edges = g.edge_list()
    cov_num = mean_l = mean_r = total = 0.0
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            used = set()
            ok = True
            for ei in combo:
                a, b = edges[ei]
                if a in used or b in used:
                    ok = False
                    break
                used.add(a)
                used.add(b)
            if not ok:
                continue
            weight = sum(w.omega_of(*edges[ei]) for ei in combo)
            weight += sum(w.nu[i - 1, j - 1] for (i, j) in g.vertices()
                          if (i, j) not in used)
            ul = sum(1 for (i, j) in g.vertices() if i <= k and (i, j) not in used)
            ur = sum(1 for (i, j) in g.vertices() if i > k and (i, j) not in used)
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

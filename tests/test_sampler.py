from __future__ import annotations

import numpy as np
import pytest

from dimerlab.graphs import (
    DOMAIN_GIBBS,
    HGraph,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    rng_generator,
    sample_weights,
)
from dimerlab.sampler import GibbsSampler, heights, matching_weight
from dimerlab import groundstate, transfer
from dimerlab.transfer import (
    FIBER, HORIZONTAL, MONOMER, NEG_INF, OPEN, CapacityError, batch_tables, instance_tables,
    partition_polynomial, scalar_log_z,
)

from helpers import (
    STD_NORMAL, batch_budget, count_calls, disabled_edge_batches, layer_counts, moves_matching,
    random_instance, table_builds,
)
from oracle import brute_force_polynomial, edge_weight, edges, unpaired


def _draw(sampler, gen, count):
    """``count`` matchings from ``sampler``, each its sorted edge indices."""
    rows = sampler.matchings_from_states(sampler.draw_states([gen], count)[0])
    return [row[row >= 0] for row in rows]


def _unpaired_count(g, edges) -> int:
    return g.num_vertices - 2 * len(edges)


def _exact_sample(g, w, seed, count):
    """``count`` draws of the Gibbs measure of ``w`` from the Gibbs stream of ``seed``."""
    return _draw(GibbsSampler(instance_tables(g, w)), rng_generator(seed, DOMAIN_GIBBS), count)


def test_matching_rejects_shared_vertices():
    g = build_cylinder(3, HGraph.single())
    # edges 0 and 1 both touch vertex (2,1)
    bad = np.array([0, 1])
    with pytest.raises(ValueError, match="share a vertex"):
        matching_weight(g, WeightAssignment.constant(g), bad)


def test_matching_weight_by_hand():
    g = build_cylinder(3, HGraph.single())
    w = WeightAssignment(g, np.array([[0.1], [0.2], [0.4]]),
                         np.array([[1.0], [2.0]]), np.zeros((3, 0)))
    m = np.array([0])  # dimer on layers 1-2, monomer at layer 3
    assert matching_weight(g, w, m) == pytest.approx(1.0 + 0.4)
    assert _unpaired_count(g, m) == 1
    assert unpaired(g, m) == [(3, 1)]


def test_matching_weight_matches_the_tuple_sum():
    # the index sum over the flat weights against the oracle's sum over
    # (i, j) tuples: the dimer weights, then the unpaired vertices' weights
    for g, ws in disabled_edge_batches(59):
        all_edges = edges(g)
        for w in ws:
            for m in _draw(GibbsSampler(instance_tables(g, w)), np.random.default_rng(59), 20):
                ref = sum(edge_weight(w, *all_edges[e]) for e in m)
                ref += sum(w.nu[i - 1, j - 1] for i, j in unpaired(g, m))
                assert matching_weight(g, w, m) == pytest.approx(ref, rel=1e-15, abs=1e-15)


def test_empty_matching_observables():
    g = build_cylinder(8, HGraph.path(2))
    per_layer = layer_counts(g, [])
    theta, theta_hat = heights(per_layer[None], [0.0, 0.5, 1.0], 2.0)
    assert per_layer.sum() == 16
    assert list(theta[0]) == [0.0, 8.0, 16.0]
    # theta(t) - n t u vanishes when every vertex is unpaired and u = h
    assert np.allclose(theta_hat[0], 0.0)
    assert per_layer[:3].sum() == 6


def test_draws_are_valid_matchings_and_deterministic():
    rng = np.random.default_rng(17)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path2"])
    draws1 = _exact_sample(g, w, RngSeed(99, 0), count=40)
    draws2 = _exact_sample(g, w, RngSeed(99, 0), count=40)
    assert [m.tolist() for m in draws1] == [m.tolist() for m in draws2]
    for m in draws1:
        assert np.isfinite(matching_weight(g, w, m))   # raises if edges overlap


def test_draws_avoid_disabled_edges():
    for g, ws in disabled_edge_batches(71):
        for w in ws:
            draws = _draw(GibbsSampler(instance_tables(g, w), x=0.3), np.random.default_rng(5), 300)
            assert all(np.isfinite(matching_weight(g, w, m)) for m in draws)


def test_empirical_monomer_pmf_matches_polynomial():
    rng = np.random.default_rng(19)
    g, w = random_instance(rng, n_lo=4, n_hi=4, fibers=["path2"])
    pmf = partition_polynomial(g, w).pmf()
    draws = _exact_sample(g, w, RngSeed(7, 1), count=20000)
    counts = np.bincount([_unpaired_count(g, m) for m in draws],
                         minlength=pmf.size)
    freq = counts / counts.sum()
    sigma = np.sqrt(pmf * (1 - pmf) / 20000)
    assert np.all(np.abs(freq - pmf) <= 5 * sigma + 1e-12)


def test_tilted_sampler_shifts_the_monomer_count():
    rng = np.random.default_rng(23)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["single"])
    x = 1.2
    pmf = partition_polynomial(g, w).pmf(x)
    gen = np.random.default_rng(5)
    sampler = GibbsSampler(instance_tables(g, w), x=x)
    draws = _draw(sampler, gen, 20000)
    mean = np.mean([_unpaired_count(g, m) for m in draws])
    expect = pmf @ np.arange(pmf.size)
    var = pmf @ (np.arange(pmf.size) - expect) ** 2
    assert mean == pytest.approx(expect, abs=5 * np.sqrt(var / 20000))


def test_monomer_profiles_match_matchings():
    rng = np.random.default_rng(29)
    g, w = random_instance(rng, n_lo=6, n_hi=6, fibers=["path2"])
    sampler = GibbsSampler(instance_tables(g, w))
    gen = np.random.default_rng(11)
    (moves,) = sampler.draw_states([gen], 25)
    profiles = sampler.monomer_profiles(moves)
    rows = sampler.matchings_from_states(moves)
    assert profiles.shape == (25, g.n)
    for row, m in zip(profiles, rows):
        assert list(row) == list(layer_counts(g, m[m >= 0]))


def test_array_decode_matches_path_matching():
    # the array-lookup decode of every draw against the move-by-move
    # reference: each row the sorted edges after -1 padding, also where the
    # fiber's vertex order is not its edge order (complete(4)), and at n = 1
    for H, n in ((HGraph.path(2), 512), (HGraph.cycle(3), 64), (HGraph.complete(4), 16),
                 (HGraph.path(3), 1)):
        g = build_cylinder(n, H)
        sampler = GibbsSampler(instance_tables(g, sample_weights(g, STD_NORMAL, RngSeed(41, n))), x=0.7)
        (moves,) = sampler.draw_states([np.random.default_rng(n)], 30)
        expect = [moves_matching(g, m) for m in moves]
        rows = sampler.matchings_from_states(moves)
        assert rows.shape == (30, g.num_vertices)
        assert [m.tolist() for m in expect] == [r[r >= 0].tolist() for r in rows]
        assert all(not (r[:-1] > r[1:]).any() and (r[: g.num_vertices - len(m)] == -1).all()
                   for r, m in zip(rows, expect))


def test_sampler_weight_distribution_is_gibbs():
    # empirical mean of H(m) should match d/dbeta log Z at beta=1, i.e. the
    # Gibbs expectation of the Hamiltonian, computed here by a small tilt
    rng = np.random.default_rng(31)
    g, w = random_instance(rng, n_lo=4, n_hi=4, fibers=["single"])
    eta = 1e-4
    w_plus = WeightAssignment(g, w.nu * (1 + eta), w.omega_h * (1 + eta),
                              w.omega_v * (1 + eta))
    w_minus = WeightAssignment(g, w.nu * (1 - eta), w.omega_h * (1 - eta),
                               w.omega_v * (1 - eta))
    expect_H = (scalar_log_z(g, w_plus) - scalar_log_z(g, w_minus)) / (2 * eta)
    draws = _exact_sample(g, w, RngSeed(3, 2), count=30000)
    values = np.array([matching_weight(g, w, m) for m in draws])
    assert values.mean() == pytest.approx(expect_H, abs=5 * values.std() / np.sqrt(30000))


def test_a_batch_sampler_draws_each_replica_as_its_own_sampler():
    # a sampler of a batch table builds no table and draws for every replica,
    # from that replica's generator, bit for bit what a sampler on that
    # environment's own table draws, in one block and in several; it takes
    # exactly one generator per replica
    cases = [(g, [sample_weights(g, STD_NORMAL, RngSeed(37, r)) for r in range(4)])
             for g in (build_cylinder(7, HGraph.path(3)), build_cylinder(5, HGraph.cycle(3)))]
    for g, ws in cases + list(disabled_edge_batches(37)):
        tables = batch_tables(g, *(np.stack([getattr(w, a) for w in ws]) for a in ("nu", "omega_h", "omega_v")))
        samplers = []
        assert table_builds(lambda: samplers.append(GibbsSampler(tables, x=0.4))) == 0
        got = samplers[0].draw_states([np.random.default_rng(r) for r in range(len(ws))], 200)
        gens = [np.random.default_rng(r) for r in range(len(ws))]
        blocks = [samplers[0].draw_states(gens, k) for k in (1, 60, 139)]
        assert np.array_equal(np.concatenate(blocks, axis=1), got)
        for r, w in enumerate(ws):
            (ref,) = GibbsSampler(instance_tables(g, w), x=0.4).draw_states([np.random.default_rng(r)], 200)
            assert np.array_equal(got[r], ref)
        with pytest.raises(ValueError, match=f"^need one generator per replica, {len(ws)}, got 1$"):
            samplers[0].draw_states(gens[:1], 1)


def _move_paths(g, i=0, b=0, state=0):
    """Every path of the vertex recursion from vertex (i, b) on, before
    which ``state`` holds the open vertices of layer i below b and the
    reservations of the cut before from b on: (vertex, move, state after
    it) per vertex, ending at the empty set after the last layer."""
    if i == g.n:
        if state == 0:
            yield []
        return
    nxt = (i, b + 1) if b + 1 < g.h else (i + 1, 0)
    bit = 1 << b
    if state & bit:   # reserved at the cut before: the horizontal dimer closes
        options = [(HORIZONTAL, state ^ bit)]
    else:
        options = [(MONOMER, state), (OPEN, state | bit)]
        options += [(FIBER + e, state ^ 1 << (a - 1)) for e, (a, c) in enumerate(g.H.edges)
                    if c == b + 1 and state >> (a - 1) & 1]
    for code, after in options:
        for rest in _move_paths(g, *nxt, after):
            yield [((i, b), code, after), *rest]


def _mass(sampler, i, b, after, code):
    """The probability that the law of vertex (i, b) gives the move ``code``
    into state ``after``, read off the stored cumulative law."""
    cum = sampler.law[:, 0, i, b, after]
    j = list(sampler.code[b, after]).index(code)
    return cum[j] - (cum[j - 1] if j else 0.0)


def _law_instances():
    for H, n in ((HGraph.path(2), 4), (HGraph.cycle(3), 3), (HGraph.complete(4), 2)):
        g = build_cylinder(n, H)
        yield g, sample_weights(g, STD_NORMAL, RngSeed(43, n))
    for g, ws in disabled_edge_batches(43):
        for w in ws:
            yield g, w


@pytest.mark.parametrize("x", [0.0, 0.3])
def test_backward_step_gives_the_exact_law_of_every_path(x):
    # the product of a path's per-vertex move probabilities, read off the
    # stored cumulative laws, against exp(H + x U - log Z) by enumeration
    for g, w in _law_instances():
        sampler = GibbsSampler(instance_tables(g, w), x=x)
        log_z = brute_force_polynomial(g, w).log_z(x)
        # a law ends at exactly 1.0; a state of zero mass is all zeros
        assert np.isin(sampler.law[-1], (0.0, 1.0)).all()
        total = 0.0
        for path in _move_paths(g):
            prob = 1.0
            for (i, b), code, after in path:
                prob *= _mass(sampler, i, b, after, code)
            moves = np.empty((g.n, g.h), dtype=int)
            for (i, b), code, _ in path:
                moves[i, b] = code
            m = moves_matching(g, moves)
            H = matching_weight(g, w, m)
            if H == NEG_INF:
                assert prob == 0.0
            else:
                assert prob == pytest.approx(np.exp(H + x * _unpaired_count(g, m) - log_z), rel=1e-12, abs=0.0)
            total += prob
        assert total == pytest.approx(1.0, rel=1e-12)


def test_draws_invert_the_law_of_each_vertex_at_its_own_uniform():
    # each vertex's pick is the inverse of the law of its moves, in their
    # order, at that vertex's uniform, the uniforms consumed draw-major: so
    # draws taken in blocks are the draws taken at once
    for g, w in _law_instances():
        sampler = GibbsSampler(instance_tables(g, w), x=0.3)
        count = 200
        (moves,) = sampler.draw_states([np.random.default_rng(53)], count)
        gen = np.random.default_rng(53)
        assert np.array_equal(np.concatenate([sampler.draw_states([gen], k)[0] for k in (1, 60, 139)]), moves)
        us = np.random.default_rng(53).random((count, g.n * g.h))
        for d in range(count):
            after = 0
            for k in range(g.n * g.h - 1, -1, -1):
                i, b = divmod(k, g.h)
                codes = [c for c in sampler.code[b, after] if c >= 0]
                probs = [_mass(sampler, i, b, after, c) for c in codes]
                j = np.searchsorted(np.cumsum(probs), us[d, k], side="right")
                assert moves[d, i, b] == codes[j]
                after = sampler.prev[b, after, list(sampler.code[b, after]).index(codes[j])]


def test_sampler_refuses_a_vanishing_partition_function():
    # three vertices in a row with every monomer forbidden: no matching has weight
    g = build_cylinder(3, HGraph.single())
    w = WeightAssignment(g, np.full((3, 1), NEG_INF), np.zeros((2, 1)), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="empty Gibbs measure"):
        GibbsSampler(instance_tables(g, w))


def test_sampler_refuses_a_pick_in_a_zero_mass_segment():
    # move laws that vanish at layer 2 while the forward messages do not:
    # the backward step still reaches layer 2, whose laws then have no mass
    g = build_cylinder(4, HGraph.path(2))
    sampler = GibbsSampler(instance_tables(g, sample_weights(g, STD_NORMAL, RngSeed(47, 0))))
    sampler.law[:, 0, 1] = 0.0
    with pytest.raises(ValueError, match="zero mass"):
        sampler.draw_states([np.random.default_rng(0)], 10)


def test_a_batch_past_the_samplers_byte_model_is_refused(monkeypatch):
    # a budget that holds two replicas of path(4) at n = 64 and one draw:
    # a batch of two is built, one of three is refused before any message
    # is made, and under a budget below one replica so are max_weight and
    # a sampler of one, in the words of replicas_per_batch
    g = build_cylinder(64, HGraph.path(4))
    ws = [sample_weights(g, STD_NORMAL, RngSeed(83, r)) for r in range(3)]
    tables = [batch_tables(g, *(np.stack([getattr(w, a) for w in ws[:R]]) for a in ("nu", "omega_h", "omega_v")))
              for R in (1, 2, 3)]
    batch_budget(monkeypatch, 2, g.H, g.n, 0, 1)
    assert GibbsSampler(tables[1]).values.shape == (2,)
    terms = count_calls(monkeypatch, transfer, ["move_terms"])
    need = transfer.batch_bytes(g.H, g.n, 3, 0, 1)
    with pytest.raises(CapacityError, match=f"^3 replicas of fiber size h=4 at n=64 layers need {need:,} bytes,"
                                            f" over the batch budget of {transfer.BATCH_BYTES:,}$"):
        GibbsSampler(tables[2])
    batch_budget(monkeypatch, 0, g.H, g.n, 0, 1)
    need = transfer.batch_bytes(g.H, g.n, 1, 0, 1)
    for route in (lambda: GibbsSampler(tables[0]), lambda: groundstate.max_weight(g, ws[0]),
                  lambda: transfer.replicas_per_batch(g.H, g.n, 0, 1)):
        with pytest.raises(CapacityError, match=f"^one replica of fiber size h=4 at n=64 layers needs {need:,}"
                                                f" bytes, over the batch budget of {transfer.BATCH_BYTES:,}$"):
            route()
    assert terms["move_terms"] == 0

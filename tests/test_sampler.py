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
from dimerlab.sampler import GibbsSampler, Matching, heights, matching_weight
from dimerlab.transfer import NEG_INF, batch_tables, instance_tables, partition_polynomial, scalar_log_z

from helpers import (
    STD_NORMAL, disabled_edge_batches, layer_counts, path_matching, random_instance, table_builds,
)
from oracle import brute_force_polynomial


def _draw(sampler, gen, count):
    """``count`` matchings from ``sampler``, decoded from its layer paths."""
    return sampler.matchings_from_states(*sampler.draw_states(gen, count))


def _exact_sample(g, w, seed, count):
    """``count`` draws of the Gibbs measure of ``w`` from the Gibbs stream of ``seed``."""
    return _draw(GibbsSampler(instance_tables(g, w)), rng_generator(seed, DOMAIN_GIBBS), count)


def test_matching_rejects_shared_vertices():
    g = build_cylinder(3, HGraph.single())
    # edges 0 and 1 both touch vertex (2,1)
    bad = Matching(frozenset({0, 1}))
    with pytest.raises(ValueError, match="share a vertex"):
        bad.covered_flat(g)


def test_matching_weight_by_hand():
    g = build_cylinder(3, HGraph.single())
    w = WeightAssignment(g, np.array([[0.1], [0.2], [0.4]]),
                         np.array([[1.0], [2.0]]), np.zeros((3, 0)))
    m = Matching(frozenset({0}))  # dimer on layers 1-2, monomer at layer 3
    assert matching_weight(g, w, m) == pytest.approx(1.0 + 0.4)
    assert m.num_unpaired(g) == 1
    assert m.unpaired(g) == [(3, 1)]


def test_empty_matching_observables():
    g = build_cylinder(8, HGraph.path(2))
    per_layer = layer_counts(g, Matching(frozenset()))
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
    assert [sorted(m.edge_indices) for m in draws1] == [
        sorted(m.edge_indices) for m in draws2
    ]
    for m in draws1:
        m.covered_flat(g)  # raises if overlapping
        assert np.isfinite(matching_weight(g, w, m))


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
    counts = np.bincount([m.num_unpaired(g) for m in draws],
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
    mean = np.mean([m.num_unpaired(g) for m in draws])
    expect = pmf @ np.arange(pmf.size)
    var = pmf @ (np.arange(pmf.size) - expect) ** 2
    assert mean == pytest.approx(expect, abs=5 * np.sqrt(var / 20000))


def test_monomer_profiles_match_matchings():
    rng = np.random.default_rng(29)
    g, w = random_instance(rng, n_lo=6, n_hi=6, fibers=["path2"])
    sampler = GibbsSampler(instance_tables(g, w))
    gen = np.random.default_rng(11)
    S_path, m_path = sampler.draw_states(gen, 25)
    profiles = sampler.monomer_profiles(S_path, m_path)
    matchings = sampler.matchings_from_states(S_path, m_path)
    assert profiles.shape == (25, g.n)
    for row, m in zip(profiles, matchings):
        covered = m.covered_flat(g)
        per_layer = [
            sum(1 for j in range(1, g.h + 1) if g.flat_index((i, j)) not in covered)
            for i in range(1, g.n + 1)
        ]
        assert list(row) == per_layer


def test_array_decode_matches_path_matching():
    # the array-lookup decode of every draw against the one-path reference
    for H, n in ((HGraph.path(2), 512), (HGraph.cycle(3), 64)):
        g = build_cylinder(n, H)
        sampler = GibbsSampler(instance_tables(g, sample_weights(g, STD_NORMAL, RngSeed(41, n))), x=0.7)
        S_path, m_path = sampler.draw_states(np.random.default_rng(n), 30)
        expect = [path_matching(g, sampler.ht, s, m) for s, m in zip(S_path, m_path)]
        assert sampler.matchings_from_states(S_path, m_path) == expect


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


def test_sampler_reads_a_replica_of_a_batch_table():
    # a sampler on replica r of a batch table builds no table and draws, bit
    # for bit, what a sampler on that environment's own table draws
    cases = [(g, [sample_weights(g, STD_NORMAL, RngSeed(37, r)) for r in range(4)])
             for g in (build_cylinder(7, HGraph.path(3)), build_cylinder(5, HGraph.cycle(3)))]
    for g, ws in cases + list(disabled_edge_batches(37)):
        tables = batch_tables(g, *(np.stack([getattr(w, a) for w in ws]) for a in ("nu", "omega_h", "omega_v")))
        for r, w in enumerate(ws):
            samplers = []
            assert table_builds(lambda: samplers.append(GibbsSampler(tables, r, x=0.4))) == 0
            got = samplers[0].draw_states(np.random.default_rng(r), 200)
            ref = GibbsSampler(instance_tables(g, w), x=0.4).draw_states(np.random.default_rng(r), 200)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _dp_paths(ht, n, i=0, prev=0):
    """Every path of the transfer DP from layer i on, after reserved set
    ``prev``: (reserved sets after each layer, fiber rows), 0 after the last."""
    if i == n:
        yield [], []
        return
    for S in range(ht.states if i < n - 1 else 1):
        if S & prev:
            continue
        for row in range(ht.fiber_start[S | prev], ht.fiber_start[(S | prev) + 1]):
            for S_rest, rows_rest in _dp_paths(ht, n, i + 1, S):
                yield [S, *S_rest], [row, *rows_rest]


def _law_instances():
    for H, n in ((HGraph.path(2), 4), (HGraph.cycle(3), 3), (HGraph.complete(4), 2)):
        g = build_cylinder(n, H)
        yield g, sample_weights(g, STD_NORMAL, RngSeed(43, n))
    for g, ws in disabled_edge_batches(43):
        for w in ws:
            yield g, w


@pytest.mark.parametrize("x", [0.0, 0.3])
def test_backward_step_gives_the_exact_law_of_every_path(x):
    # the product of a path's stage-1 and stage-2 probabilities, read off the
    # stored cumulative laws, against exp(H + x U - log Z) by enumeration
    for g, w in _law_instances():
        sampler = GibbsSampler(instance_tables(g, w), x=x)
        ht, log_z = sampler.ht, brute_force_polynomial(g, w).log_z(x)
        for law, starts in ((sampler.prev_law, ht.pair_start), (sampler.row_law, ht.fiber_start)):
            # a law ends at exactly 1.0; a segment of zero mass is all zeros
            assert np.isin(law[:, starts[1:] - 1], (0.0, 1.0)).all()

        def mass(cum, lo, k):
            return cum[k] - (cum[k - 1] if k > lo else 0.0)

        total = 0.0
        for S_path, rows in _dp_paths(ht, g.n):
            prob = 1.0
            for i, (S, row) in enumerate(zip(S_path, rows)):
                prev = S_path[i - 1] if i else 0
                lo = ht.pair_start[S]
                p = lo + list(ht.pair_s[lo : ht.pair_start[S + 1]]).index(prev)
                prob *= mass(sampler.prev_law[i], lo, p)
                prob *= mass(sampler.row_law[i], ht.fiber_start[S | prev], row)
            m = path_matching(g, ht, S_path, rows)
            H = matching_weight(g, w, m)
            if H == NEG_INF:
                assert prob == 0.0
            else:
                assert prob == pytest.approx(np.exp(H + x * m.num_unpaired(g) - log_z), rel=1e-12, abs=0.0)
            total += prob
        assert total == pytest.approx(1.0, rel=1e-12)


def test_draws_invert_the_joint_law_at_one_uniform_per_layer():
    # each layer's pick is the inverse of the joint law of (S', row), in the
    # order (S' ascending, row ascending), at that layer's uniform
    for g, w in _law_instances():
        sampler = GibbsSampler(instance_tables(g, w), x=0.3)
        ht, count = sampler.ht, 200
        S_path, m_path = sampler.draw_states(np.random.default_rng(53), count)
        rng = np.random.default_rng(53)
        us = {i: rng.random(count) for i in range(g.n - 1, -1, -1)}
        for d in range(count):
            for i in range(g.n):
                S = S_path[d, i]
                prev_cum, probs, cands = 0.0, [], []
                for p in range(ht.pair_start[S], ht.pair_start[S + 1]):
                    F = ht.pair_s[p] | S
                    row_cum = 0.0
                    for row in range(ht.fiber_start[F], ht.fiber_start[F + 1]):
                        probs.append((sampler.prev_law[i, p] - prev_cum)
                                     * (sampler.row_law[i, row] - row_cum))
                        cands.append((ht.pair_s[p], row))
                        row_cum = sampler.row_law[i, row]
                    prev_cum = sampler.prev_law[i, p]
                k = np.searchsorted(np.cumsum(probs), us[i][d], side="right")
                assert cands[k] == (S_path[d, i - 1] if i else 0, m_path[d, i])


def test_sampler_refuses_a_vanishing_partition_function():
    # three vertices in a row with every monomer forbidden: no matching has weight
    g = build_cylinder(3, HGraph.single())
    w = WeightAssignment(g, np.full((3, 1), NEG_INF), np.zeros((2, 1)), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="partition function vanishes"):
        GibbsSampler(instance_tables(g, w))


def test_sampler_refuses_a_pick_in_a_zero_mass_segment():
    # fiber-row scores that vanish at layer 2 while its layer weights do not:
    # stage 1 still reaches layer 2, whose stage-2 laws then have no mass
    g = build_cylinder(4, HGraph.path(2))
    tables = instance_tables(g, sample_weights(g, STD_NORMAL, RngSeed(47, 0)))
    tables["scores"][:, 1] = NEG_INF
    sampler = GibbsSampler(tables)
    with pytest.raises(ValueError, match="zero mass"):
        sampler.draw_states(np.random.default_rng(0), 10)

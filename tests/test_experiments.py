from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dimerlab import transfer
from dimerlab.graphs import (
    DOMAIN_GIBBS,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    rng_generator,
    sample_weights,
)
from dimerlab.experiments import (
    CONFIG_KEYS,
    ExperimentConfig,
    _draw_weight_batch,
    _lattice_normal_distance,
    brownian_fdd_check,
    clt_checks,
    estimate_limits,
    functional_consistency_check,
    jsonify,
    linear_growth_check,
    make_fiber,
    parse_config,
    run_replicas,
    write_config,
    write_json,
)
from dimerlab.groundstate import max_weight
from dimerlab.leeyang import SpectrumError, spectrum
from dimerlab.sampler import GibbsSampler, heights
from dimerlab.transfer import (
    CountingMask, cut_moments, instance_tables, partition_polynomial, section_covariance,
)

from helpers import STD_NORMAL, count_calls, restrict, sweep_steps, table_builds

CONST0 = DisorderSpec(Law.constant(0.0), Law.constant(0.0))


def _small_cfg(**kw):
    base = dict(fiber="single", n_ladder=(8, 16), replicas=10,
                disorder=CONST0, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_make_fiber_parsing():
    assert make_fiber("single") == HGraph.single()
    assert make_fiber("path(3)") == HGraph.path(3)
    assert make_fiber("cycle(4)") == HGraph.cycle(4)
    assert make_fiber("complete(3)") == HGraph.complete(3)
    with pytest.raises(ValueError):
        make_fiber("torus(3)")


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(replicas=1)
    with pytest.raises(ValueError):
        _small_cfg(n_ladder=())
    with pytest.raises(ValueError):
        _small_cfg(cut_fraction=1.5)
    with pytest.raises(ValueError, match="ladder 8,16,8 repeats a length"):
        parse_config("[ladder]\nn = 8, 16, 8\n", is_text=True)
    for chunk in (0, -4):
        with pytest.raises(ValueError, match=f"chunk must be >= 1 replica per batch, got {chunk}"):
            parse_config(f"[ladder]\nchunk = {chunk}\n", is_text=True)
    # an empty tilt grid would let the functionals check pass having compared nothing
    with pytest.raises(ValueError, match="empty x_grid"):
        parse_config("[ladder]\nx_grid =\nwith_spectrum = true\n", is_text=True)
    for key, grid, shown in (("x_grid", "0, nan", "0.0,nan"), ("x_grid", "inf", "inf"),
                             ("t_grid", "0, nan, 1", "0.0,nan,1.0")):
        with pytest.raises(ValueError, match=f"{key} entries must be finite, got {shown}$"):
            parse_config(f"[ladder]\n{key} = {grid}\n", is_text=True)


def test_config_text_round_trip():
    cfg = _small_cfg(x_grid=(-1.0, 0.0, 1.0))
    text = write_config(cfg)
    again = parse_config(text, is_text=True)
    assert write_config(again) == text
    assert again.n_ladder == cfg.n_ladder
    assert again.disorder == cfg.disorder
    assert again.thresholds == cfg.thresholds


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown option"):
        parse_config("[graph]\nfibre = single\n", is_text=True)
    with pytest.raises(ValueError, match="unknown config section"):
        parse_config("[weather]\nrain = yes\n", is_text=True)
    with pytest.raises(ValueError, match="unknown checks option"):
        parse_config("[checks]\nks_konst = 2\n", is_text=True)
    # retired keys that older configs set are accepted and ignored; a mode
    # other than the two it once named, or a with_sections that is no
    # boolean, is still an error
    old = parse_config("[ladder]\nmode = polynomial\nwith_sections = false\n"
                       "[checks]\nse_mult = 2\nquenched_dist = 0.1\n", is_text=True)
    assert write_config(old) == write_config(ExperimentConfig())
    with pytest.raises(ValueError, match="unknown mode"):
        parse_config("[ladder]\nmode = exactly\n", is_text=True)
    with pytest.raises(ValueError, match="with_sections must be a boolean, got 'banana'"):
        parse_config("[ladder]\nwith_sections = banana\n", is_text=True)


@pytest.mark.parametrize("text,message", [
    ("[ladder]\nreplicas = 2.5\n", "[ladder] replicas must be an integer, got '2.5'"),
    ("[ladder]\nn = 8, x\n", "[ladder] n must be a comma list of integers, got '8, x'"),
    ("[ladder]\nwith_ground = maybe\n", "[ladder] with_ground must be a boolean, got 'maybe'"),
    ("[ladder]\nt_grid = 0, half\n", "[ladder] t_grid must be a comma list of numbers, got '0, half'"),
    ("[disorder]\nedge = uniform(1,0)\n", "[disorder] edge must be a weight law: uniform(a, b) needs a <= b"),
    # a NaN or infinite threshold would fail or pass every metric it bounds
    ("[checks]\nskew_tol = nan\n", "[checks] skew_tol must be a finite number, got 'nan'"),
    ("[checks]\nks_const = inf\n", "[checks] ks_const must be a finite number, got 'inf'"),
    ("[checks]\nse_mult = two\n", "[checks] se_mult must be a finite number, got 'two'"),
    ("[ladder]\nseed = -1\n", "seed must be >= 0, got -1"),
], ids=["int", "int-list", "bool", "grid", "law", "threshold-nan", "threshold-inf",
        "retired-threshold", "seed-neg"])
def test_config_refusals_name_the_key(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config(text, is_text=True)


def test_config_doc_lists_every_live_key():
    # the INI block of docs/config.md against the key table: a key added,
    # retired or renamed in one and not the other fails here
    doc = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    section, listed = None, set()
    for line in doc.split("```ini\n", 1)[1].split("```", 1)[0].splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = m.group(1)
        elif m := re.match(r"(\w+)\s*=", line):
            listed.add((section, m.group(1)))
    assert listed == {key for key, entry in CONFIG_KEYS.items() if entry.attr is not None}


def test_constant_disorder_rows_are_identical():
    cfg = _small_cfg(fiber="single", n_ladder=(4,), replicas=2)
    table = run_replicas(cfg)
    lz = table.at(4, "log_z")
    assert lz.size == 2
    assert lz[0] == lz[1] == pytest.approx(np.log(5.0), abs=1e-10)


@pytest.mark.parametrize("kw, chunks", [
    (dict(replicas=12, with_spectrum=True), (5, 256)),
    # a chunk of 70 replicas sweeps in rank blocks, a chunk of 3 by reduceat
    (dict(fiber="path(3)", n_ladder=(5, 8), replicas=70), (70, 3)),
], ids=["spectra", "rank-blocks"])
def test_run_replicas_deterministic_and_chunk_independent(kw, chunks):
    assert 3 < transfer._RANK_MIN_BLOCK <= 70
    ta, tb = (run_replicas(_small_cfg(disorder=STD_NORMAL, chunk=c, **kw)) for c in chunks)
    assert ({"max_lambda", "u_n", "varQ_n"} <= set(ta.columns)) == kw.get("with_spectrum", False)
    for key in ta.columns:
        assert np.array_equal(ta.columns[key], tb.columns[key], equal_nan=True)


def test_run_replicas_distinct_rows_under_disorder():
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=50)
    table = run_replicas(cfg)
    assert np.unique(table.at(16, "log_z")).size == 50


def test_campaign_without_spectra_runs_past_the_polynomial_caps():
    # only the spectrum needs coefficients: without it, every column comes
    # from the moment sweeps, which have no cap on n
    table = run_replicas(_small_cfg(fiber="path(2)", n_ladder=(8, 2000), replicas=3,
                                    disorder=STD_NORMAL))
    assert sorted(table.ns()) == [8, 2000]
    for key in ("log_z", "var_U", "cov_cut", "var_left", "var_right"):
        assert np.all(np.isfinite(table.at(2000, key))), key


def _reference_row(g, w, k):
    """One campaign row from the single-instance reference routes: the masked
    polynomials, section_covariance and the argmax engine."""
    p = partition_polynomial(g, w)
    mean, var = p.cumulants(0.0, 2)
    return {
        "log_z": p.log_z(),
        "mean_U": mean,
        "var_U": var,
        "var_left": partition_polynomial(g, w, CountingMask.layer_range(1, k)).cumulants()[1],
        "var_right":
            partition_polynomial(g, w, CountingMask.layer_range(k + 1, g.n)).cumulants()[1],
        "cov_cut": section_covariance(g, w, k),
        "M": max_weight(g, w).value,
    }


def test_campaign_rows_match_reference_routes():
    n, k = 10, 5
    g = build_cylinder(n, HGraph.path(2))
    refs = [_reference_row(g, sample_weights(g, STD_NORMAL, RngSeed(3, stream=s)), k)
            for s in range(6)]
    ref = {key: np.array([r[key] for r in refs]) for key in refs[0]}
    table = run_replicas(_small_cfg(
        fiber="path(2)", n_ladder=(n,), replicas=6, disorder=STD_NORMAL,
        seed=3, with_ground=True))
    assert list(table.at(n, "stream")) == list(range(6))
    for key in ("log_z", "mean_U", "var_U", "var_left", "var_right"):
        assert np.allclose(table.at(n, key), ref[key], rtol=1e-10, atol=0.0), key
    assert np.all(np.abs(table.at(n, "cov_cut") - ref["cov_cut"]) <= 1e-10 * ref["var_U"])
    assert np.allclose(table.at(n, "M"), ref["M"], rtol=0.0, atol=1e-10)


def test_scalar_chunk_builds_one_table_and_no_tilted_sweeps(monkeypatch):
    # each chunk draws its log Z, cumulants, sections, ground state and
    # spectra from a single table; a second table build, a finite-difference
    # sweep or a per-replica polynomial would show in these counts
    calls = count_calls(monkeypatch, transfer, ["batch_tables", "partition_polynomial"])
    steps = sweep_steps(monkeypatch)
    chunks, replicas = 2 * 3, 2 * 10
    for with_spectrum in (False, True):
        for key in calls:
            calls[key] = 0
        steps.clear()
        cfg = _small_cfg(fiber="path(2)", n_ladder=(6, 9), replicas=10, chunk=4,
                         disorder=STD_NORMAL, with_ground=True, with_spectrum=with_spectrum)
        table = run_replicas(cfg)
        assert len(table) == replicas
        assert calls == {"batch_tables": chunks, "partition_polynomial": 0}, with_spectrum
        # per chunk: the two moment sweeps meet at the cut (k = 3 of 6 and
        # k = 4 of 9), so their layer steps add up to n; then the (max, +)
        # sweep of n layers, and with spectra one n-layer degree sweep and
        # no LOG sweep
        expect = []
        for n, k in ((6, 3), (9, 4)):
            expect += ([("moment", k), ("moment", n - k), ("max", n)]
                       + [("degree", n)] * with_spectrum) * 3
        assert sorted(steps) == sorted(expect), with_spectrum


def test_campaign_spectra_match_gauged_polynomials():
    # the chunk's shifted coefficients against one polynomial of the gauged
    # weights per replica: up to N = 32, where the functional check extracts
    # zeros, and at N = 96, where every extraction is refused
    ns, replicas = (6, 16, 48), 8
    table = run_replicas(_small_cfg(fiber="path(2)", n_ladder=ns, replicas=replicas,
                                    disorder=STD_NORMAL, seed=5, with_spectrum=True))
    for n in ns:
        g = build_cylinder(n, HGraph.path(2))
        for s, lam, u, vq, mean, var in zip(*(table.at(n, key) for key in (
                "stream", "max_lambda", "u_n", "varQ_n", "mean_U", "var_U"))):
            w = sample_weights(g, STD_NORMAL, RngSeed(5, stream=int(s)))
            try:
                ref = spectrum(partition_polynomial(g, w.gauged()))
            except SpectrumError:
                assert n == 48 and np.isnan([lam, u, vq]).all(), (n, s)
                continue
            assert n < 48, (n, s)
            assert lam == pytest.approx(ref.max_abs(), rel=1e-9, abs=0.0), (n, s)
            assert abs(u - mean / n) <= 1e-9 and abs(vq - var / n) <= 1e-9, (n, s)


def test_functional_check_builds_one_table():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8,), replicas=4, disorder=STD_NORMAL)
    assert table_builds(lambda: functional_consistency_check(cfg, environments=6)) == 1


def test_weight_batch_matches_single_draws():
    # the stacked draws are bit-identical to one sample_weights per stream
    g = build_cylinder(7, HGraph.cycle(3))
    cfg = _small_cfg(fiber="cycle(3)", n_ladder=(7,), disorder=STD_NORMAL, seed=12)
    streams = [0, 3, 4, 9]
    ws = [sample_weights(g, STD_NORMAL, RngSeed(12, stream=s)) for s in streams]
    for got, name in zip(_draw_weight_batch(g, cfg, streams), ("nu", "omega_h", "omega_v")):
        assert np.array_equal(got, np.stack([getattr(w, name) for w in ws])), name
    # and refused once for the batch if a law yields NaN
    bad = _small_cfg(disorder=DisorderSpec(Law.normal(0.0, 1.0), Law.constant(float("nan"))))
    with pytest.raises(ValueError, match="omega_h contains NaN"):
        _draw_weight_batch(g, bad, streams)


def test_fibonacci_limit_estimates():
    # zero weights on a chain: Z_n is the (n+1)-st Fibonacci number, so the
    # log-partition rate tends to log of the golden ratio with no variance;
    # the replicas are bit-identical, so their sample variances are exactly 0
    g = build_cylinder(64, HGraph.single())
    exact_u = partition_polynomial(g, WeightAssignment.constant(g)).cumulants(0.0, 1)[0]
    est = estimate_limits(run_replicas(_small_cfg(n_ladder=(16, 32, 64), replicas=5)))
    assert est.sigma2_F == 0.0
    assert est.sigma2_A == 0.0
    assert est.per_n[64]["var_f"] == 0.0
    assert est.f_hat == pytest.approx(np.log((1 + np.sqrt(5)) / 2), abs=8e-3)
    # the rate converges from below like c/n, so halving n doubles the gap
    assert est.drift["f"] < 2e-2
    assert est.u_hat == pytest.approx(exact_u / 64, abs=1e-5)


def test_clt_checks_zero_variance_verdict():
    cfg = _small_cfg(replicas=40)
    summary = clt_checks(run_replicas(cfg))
    assert all(e.verdict == "zero-variance" for e in summary.entries)
    assert summary.ok


def test_clt_checks_requires_enough_replicas():
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=10)
    with pytest.raises(ValueError, match=">= 30"):
        clt_checks(run_replicas(cfg))


def test_quenched_two_point_lattice_distance():
    # path of 2 with zero weights: U is 0 or 2 with equal mass, and the
    # standardized sup-distance to the normal is Phi(1) - 1/2
    from scipy.stats import norm

    g = build_cylinder(2, HGraph.single())
    distance = _lattice_normal_distance(partition_polynomial(g, WeightAssignment.constant(g)).pmf())
    assert distance == pytest.approx(norm.cdf(1.0) - 0.5, abs=1e-12)


def test_quenched_ladder_distance_decreases():
    # the exact count law of each prefix cylinder, layers 1..k
    g = build_cylinder(128, HGraph.single())
    w = sample_weights(g, STD_NORMAL, RngSeed(21, 0))
    d = [_lattice_normal_distance(partition_polynomial(*restrict(g, w, 1, k)).pmf())
         for k in (32, 64, 128)]
    assert d[2] < d[1] < d[0]


def test_joint_sections_small_covariance_at_scale():
    g = build_cylinder(64, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(33, 0))
    _, _, var_u, var_left, var_right, cov_cut = (
        float(v[0]) for v in cut_moments(instance_tables(g, w), 32))
    t, sigma2_q = 32 / g.n, var_u / g.n
    assert t == pytest.approx(0.5)
    # the one-sweep rates against the masked polynomials and polarization
    cov = section_covariance(g, w, 32)
    var_all = partition_polynomial(g, w).cumulants()[1]
    var_l = partition_polynomial(g, w, CountingMask.layer_range(1, 32)).cumulants()[1]
    var_r = partition_polynomial(g, w, CountingMask.layer_range(33, 64)).cumulants()[1]
    assert abs(cov_cut / g.n * 64 - cov) <= 1e-10 * var_all
    assert var_left / g.n * 64 == pytest.approx(var_l, rel=1e-10, abs=0.0)
    assert var_right / g.n * 64 == pytest.approx(var_r, rel=1e-10, abs=0.0)
    assert sigma2_q * 64 == pytest.approx(var_all, rel=1e-10, abs=0.0)
    assert abs(cov_cut / g.n) / sigma2_q < 0.02
    assert (var_left / g.n) / (t * sigma2_q) == pytest.approx(1.0, abs=0.15)
    assert (var_right / g.n) / ((1.0 - t) * sigma2_q) == pytest.approx(1.0, abs=0.15)


def test_brownian_report_shapes():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(32,), replicas=2,
                     disorder=STD_NORMAL, gibbs_samples=200, height_envs=2,
                     t_grid=tuple(np.linspace(0, 1, 5)))
    est = estimate_limits(run_replicas(cfg))
    rep = brownian_fdd_check(cfg, est.u_hat, est.total_sigma2())
    assert rep.samples == 400
    assert rep.increment_vars.shape == (4,)
    assert np.all(rep.var_ratios > 0)
    assert 0 <= rep.max_abs_corr <= 1


def test_brownian_exact_laws_are_views_of_one_table():
    # one table for every environment: each sampler reads its replica, and
    # the exact law of the pooled increments is the mean of the environments'
    # masked polynomials
    for envs in (1, 3):
        cfg = _small_cfg(fiber="path(2)", n_ladder=(32,), replicas=2, disorder=STD_NORMAL,
                         gibbs_samples=200, height_envs=envs)
        reps = []
        assert table_builds(lambda: reps.append(brownian_fdd_check(cfg, 0.5, 1.0))) == 1
        rep, = reps
        g = build_cylinder(32, HGraph.path(2))
        cuts = np.floor(32 * rep.t_grid).astype(int)
        incs, pmfs = [], []
        for env in range(envs):
            w = sample_weights(g, cfg.disorder, RngSeed(cfg.seed, stream=env))
            sampler = GibbsSampler(instance_tables(g, w))
            theta, _ = heights(sampler.monomer_profiles(*sampler.draw_states(
                rng_generator(RngSeed(cfg.seed, stream=env), DOMAIN_GIBBS), cfg.gibbs_samples)), rep.t_grid, None)
            incs.append(np.diff(theta, axis=1))
            pmfs.append([partition_polynomial(g, w, CountingMask.layer_range(a + 1, b)).pmf()
                         for a, b in zip(cuts, cuts[1:])])
        inc = np.concatenate(incs)
        assert rep.samples == inc.shape[0] == envs * cfg.gibbs_samples
        for j in range(inc.shape[1]):
            pmf = np.mean([p[j] for p in pmfs], axis=0)
            emp = np.searchsorted(np.sort(inc[:, j]), np.arange(pmf.size), side="right") / inc.shape[0]
            assert rep.lattice_floors[j] == pytest.approx(_lattice_normal_distance(pmf), rel=0.0, abs=1e-12)
            assert rep.ks_exact[j] == pytest.approx(np.max(np.abs(emp - np.cumsum(pmf))), rel=0.0, abs=1e-12)


def test_brownian_normality_of_several_environments_allows_the_lattice_floor():
    # exact Gibbs draws of two environments: the pooled increments are
    # lattice-valued, so their KS distance to normal exceeds the bare
    # sampling envelope, but not the exact pooled law's floor plus it
    cfg = _small_cfg(fiber="path(2)", n_ladder=(32,), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=500, height_envs=2, t_grid=tuple(np.linspace(0, 1, 5)))
    rep = brownian_fdd_check(cfg, 0.5, 1.0)
    assert not np.all(rep.ks_stats <= rep.ks_envelope)
    assert rep.normality_ok()


@pytest.mark.parametrize("envs", [1, 2])
def test_brownian_refuses_a_grid_finer_than_the_layers(envs):
    # 17 points on 8 layers repeat floor(8 t); so do points outside [0, 1]
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8,), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=20, height_envs=envs)
    with pytest.raises(ValueError, match=r"strictly increase at n=8; t_grid 0,0\.0625,"):
        brownian_fdd_check(cfg, 0.5, 1.0)
    for grid in ((0.0, 1.25), (0.5,)):
        cfg.t_grid = grid
        with pytest.raises(ValueError, match="strictly increase at n=8"):
            brownian_fdd_check(cfg, 0.5, 1.0)
    cfg.t_grid = (0.0, 0.25, 0.5, 1.0)
    assert brownian_fdd_check(cfg, 0.5, 1.0).increment_vars.shape == (3,)


def test_linear_growth_bounded():
    cfg = _small_cfg(disorder=STD_NORMAL, n_ladder=(8, 16, 32), replicas=25)
    rep = linear_growth_check(run_replicas(cfg))
    assert rep.max_deviation < 1.0
    assert rep.u_consistency < 0.02


def test_functional_consistency_report():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 300), replicas=4,
                     disorder=STD_NORMAL, x_grid=(-2.0, 0.0, 2.0))
    rep = functional_consistency_check(cfg, environments=4)
    assert rep.n == 8  # 300 is over the extraction ceiling and is skipped
    assert rep.ok and rep.failures == 0
    assert rep.max_u_gap <= 1e-9 and rep.max_varq_gap <= 1e-9
    # a NaN gap fails the check instead of vanishing from the maximum (the
    # config refuses a non-finite tilt; this one bypasses its validation)
    cfg.x_grid = (0.0, float("nan"))
    rep = functional_consistency_check(cfg, environments=4)
    assert not rep.ok and np.isnan(rep.max_u_gap)


def test_replica_table_csv_round_trip(tmp_path):
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=7)
    table = run_replicas(cfg)
    path = tmp_path / "t.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        keys = next(reader)
        again = np.array([[float(v) if v else np.nan for v in row] for row in reader])
    assert set(keys) == set(table.columns)
    for j, key in enumerate(keys):
        assert np.array_equal(table.columns[key], again[:, j], equal_nan=True)


def test_jsonify_passes_int_lists_through_and_converts_the_rest():
    draws = [[3, 1, 2], []]
    out = jsonify({"draws": draws, "mixed": [np.int64(4), 5], "x": (np.float64(0.5), float("nan"))})
    assert out == {"draws": draws, "mixed": [4, 5], "x": [0.5, None]}
    assert out["draws"][0] is draws[0]
    assert all(type(v) is int for v in out["mixed"])


def test_numpy_nan_scalars_are_written_as_null(tmp_path):
    nan = np.float64("nan")
    path = tmp_path / "nan.json"
    write_json({"a": nan, "b": float("nan"), "c": [nan, np.float32("nan"), 1.0], "d": (nan,)}, str(path))
    assert "NaN" not in path.read_text()
    assert json.loads(path.read_text()) == {"a": None, "b": None, "c": [None, None, 1.0], "d": [None]}


_NUMBERS = st.one_of(st.integers(), st.floats(), st.integers(-2**62, 2**62).map(np.int64),
                     st.floats(width=32).map(np.float32), st.floats().map(np.float64),
                     st.sampled_from([np.float64("nan"), np.float32("nan")]))
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(),
                    st.lists(st.floats(), max_size=6).map(np.array),
                    st.lists(st.integers(-2**31, 2**31), max_size=6).map(np.array),
                    st.lists(st.floats(), min_size=2, max_size=2).map(lambda v: np.array([v, v])))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, payload):
    # nested dicts and lists of ints, floats (+-inf, NaN), bools, None,
    # non-ASCII strings, empty containers and numpy arrays and scalars; a
    # NaN of any kind is written as null, never as the literal NaN
    path = tmp_path / "out.json"
    write_json(payload, str(path))
    assert path.read_text() == json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n"
    constants = []
    json.loads(path.read_text(), parse_constant=constants.append)
    assert "NaN" not in constants


def test_write_json_refuses_what_json_refuses(tmp_path):
    for payload in ({"a": object()}, [np.bool_(True)]):
        with pytest.raises(TypeError):
            json.dumps(jsonify(payload))
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(payload, str(tmp_path / "bad.json"))

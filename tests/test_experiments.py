from __future__ import annotations

import numpy as np
import pytest

from dimerlab import transfer
from dimerlab.graphs import (
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    sample_weights,
)
from dimerlab.experiments import (
    ExperimentConfig,
    ReplicaTable,
    brownian_fdd_check,
    clt_checks,
    estimate_limits,
    functional_consistency_check,
    joint_sections_check,
    linear_growth_check,
    make_fiber,
    parse_config,
    quenched_clt_check,
    quenched_ladder,
    run_replicas,
    write_config,
)
from dimerlab.transfer import partition_polynomial

from helpers import STD_NORMAL, count_calls

CONST0 = DisorderSpec(Law.constant(0.0), Law.constant(0.0))


def _small_cfg(**kw):
    base = dict(fiber="single", n_ladder=(8, 16), replicas=10,
                disorder=CONST0, seed=1, mode="polynomial")
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
        _small_cfg(mode="exactly")
    with pytest.raises(ValueError):
        _small_cfg(n_ladder=())
    with pytest.raises(ValueError):
        _small_cfg(cut_fraction=1.5)


def test_config_text_round_trip():
    cfg = _small_cfg(with_sections=True, x_grid=(-1.0, 0.0, 1.0))
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


def test_constant_disorder_rows_are_identical():
    cfg = _small_cfg(fiber="single", n_ladder=(4,), replicas=2, mode="polynomial")
    table = run_replicas(cfg)
    lz = table.at(4, "log_z")
    assert lz.size == 2
    assert lz[0] == lz[1] == pytest.approx(np.log(5.0), abs=1e-10)


def test_run_replicas_deterministic_and_chunk_independent():
    cfg_a = _small_cfg(disorder=STD_NORMAL, replicas=12, chunk=5, mode="scalar",
                       with_sections=True)
    cfg_b = _small_cfg(disorder=STD_NORMAL, replicas=12, chunk=256, mode="scalar",
                       with_sections=True)
    ta, tb = run_replicas(cfg_a), run_replicas(cfg_b)
    for key in ta.columns:
        assert np.array_equal(ta.columns[key], tb.columns[key], equal_nan=True)


def test_run_replicas_distinct_rows_under_disorder():
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=50, mode="scalar")
    table = run_replicas(cfg)
    assert np.unique(table.at(16, "log_z")).size == 50


def test_capacity_noted_per_rung_not_fatal():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 2000), replicas=3,
                     disorder=STD_NORMAL, mode="polynomial")
    table = run_replicas(cfg)
    assert sorted(table.ns()) == [8]
    assert table.errors and table.errors[0][0] == 2000
    assert "1024" in table.errors[0][1]


def test_scalar_and_polynomial_modes_agree():
    kw = dict(fiber="path(2)", n_ladder=(10,), replicas=6,
              disorder=STD_NORMAL, seed=3, with_sections=True)
    ts = run_replicas(_small_cfg(mode="scalar", **kw))
    tp = run_replicas(_small_cfg(mode="polynomial", **kw))
    assert np.allclose(ts.at(10, "log_z"), tp.at(10, "log_z"), atol=1e-10)
    for key in ("mean_U", "var_U", "var_left", "var_right"):
        assert np.allclose(ts.at(10, key), tp.at(10, key), rtol=1e-10, atol=0.0)
    assert np.all(np.abs(ts.at(10, "cov_cut") - tp.at(10, "cov_cut"))
                  <= 1e-10 * tp.at(10, "var_U"))
    assert np.allclose(ts.at(10, "M"), tp.at(10, "M"), atol=1e-10)


def test_scalar_chunk_builds_one_table_and_no_tilted_sweeps(monkeypatch):
    # each scalar chunk draws its log Z, cumulants, sections and ground state
    # from a single table; a second table build or a finite-difference sweep
    # would show in these counts
    calls = count_calls(monkeypatch, transfer, ["batch_tables", "batch_scalar_log_z"])
    cfg = _small_cfg(fiber="path(2)", n_ladder=(6, 9), replicas=10, chunk=4,
                     disorder=STD_NORMAL, mode="scalar", with_sections=True,
                     with_ground=True)
    table = run_replicas(cfg)
    assert not table.errors and len(table) == 20
    chunks = 2 * 3
    assert calls == {"batch_tables": chunks, "batch_scalar_log_z": 0}


def test_fibonacci_limit_estimates():
    # zero weights on a chain: Z_n is the (n+1)-st Fibonacci number, so the
    # log-partition rate tends to log of the golden ratio with no variance
    cfg = _small_cfg(n_ladder=(16, 32, 64), replicas=5, mode="polynomial")
    est = estimate_limits(run_replicas(cfg))
    assert est.sigma2_F == 0.0
    assert est.sigma2_A == 0.0
    assert est.f_hat == pytest.approx(np.log((1 + np.sqrt(5)) / 2), abs=8e-3)
    # the rate converges from below like c/n, so halving n doubles the gap
    assert est.drift["f"] < 2e-2
    g = build_cylinder(64, HGraph.single())
    exact_u = partition_polynomial(g, WeightAssignment.constant(g)).cumulants(0.0, 1)[0]
    assert est.u_hat == pytest.approx(exact_u / 64, abs=1e-5)


def test_clt_checks_zero_variance_verdict():
    cfg = _small_cfg(replicas=40, mode="scalar")
    summary = clt_checks(run_replicas(cfg))
    assert all(e.verdict == "zero-variance" for e in summary.entries)
    assert summary.ok


def test_clt_checks_requires_enough_replicas():
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=10, mode="scalar")
    with pytest.raises(ValueError, match=">= 30"):
        clt_checks(run_replicas(cfg))


def test_quenched_two_point_lattice_distance():
    # path of 2 with zero weights: U is 0 or 2 with equal mass, and the
    # standardized sup-distance to the normal is Phi(1) - 1/2
    from scipy.stats import norm

    g = build_cylinder(2, HGraph.single())
    rep = quenched_clt_check(g, WeightAssignment.constant(g))
    assert rep.distance == pytest.approx(norm.cdf(1.0) - 0.5, abs=1e-12)


def test_quenched_ladder_distance_decreases():
    g = build_cylinder(128, HGraph.single())
    w = sample_weights(g, STD_NORMAL, RngSeed(21, 0))
    reports = quenched_ladder(g, w, (32, 64, 128))
    d = [r.distance for r in reports]
    assert d[2] < d[1] < d[0]


def test_joint_sections_small_covariance_at_scale():
    g = build_cylinder(64, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(33, 0))
    rep = joint_sections_check(g, w, k=32)
    assert rep.t == pytest.approx(0.5)
    assert rep.cov_ratio < 0.02
    assert rep.var_left_ratio == pytest.approx(1.0, abs=0.15)
    assert rep.var_right_ratio == pytest.approx(1.0, abs=0.15)


def test_brownian_report_shapes():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(32,), replicas=2,
                     disorder=STD_NORMAL, mode="scalar",
                     gibbs_samples=200, height_envs=2,
                     t_grid=tuple(np.linspace(0, 1, 5)))
    est = estimate_limits(run_replicas(cfg))
    rep = brownian_fdd_check(cfg, est.u_hat, est.total_sigma2())
    assert rep.samples == 400
    assert rep.increment_vars.shape == (4,)
    assert np.all(rep.var_ratios > 0)
    assert 0 <= rep.max_abs_corr <= 1


def test_linear_growth_bounded():
    cfg = _small_cfg(disorder=STD_NORMAL, n_ladder=(8, 16, 32), replicas=25,
                     mode="scalar")
    rep = linear_growth_check(run_replicas(cfg))
    assert rep.max_deviation < 1.0
    assert rep.u_consistency < 0.02


def test_functional_consistency_report():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 300), replicas=4,
                     disorder=STD_NORMAL, mode="polynomial",
                     x_grid=(-2.0, 0.0, 2.0))
    rep = functional_consistency_check(cfg, environments=4)
    assert rep.n == 8  # 300 is over the extraction ceiling and is skipped
    assert rep.ok and rep.failures == 0
    assert rep.max_u_gap <= 1e-9 and rep.max_varq_gap <= 1e-9


def test_replica_table_csv_round_trip(tmp_path):
    cfg = _small_cfg(disorder=STD_NORMAL, replicas=7, mode="scalar",
                     with_sections=True)
    table = run_replicas(cfg)
    path = tmp_path / "t.csv"
    table.to_csv(path)
    again = ReplicaTable.from_csv(path)
    assert set(again.columns) == set(table.columns)
    for key in table.columns:
        assert np.array_equal(table.columns[key], again.columns[key], equal_nan=True)

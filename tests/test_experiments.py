from __future__ import annotations

import csv
import io
import itertools
import json
import os
import pickle
import re
import signal
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dimerlab import experiments, output, transfer
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
    _ks_normal,
    _norm_cdf,
    _replica_chunk,
    _skew_kurtosis,
    brownian_fdd_check,
    check_runnable,
    clt_checks,
    estimate_limits,
    functional_consistency_check,
    linear_growth_check,
    make_fiber,
    parse_config,
    run_replicas,
    write_config,
)
from dimerlab.output import Cells, IntRows, jsonify, write_csv, write_json
from dimerlab.groundstate import max_weight
from dimerlab.leeyang import SpectrumError, spectrum
from dimerlab.sampler import GibbsSampler, heights
from dimerlab.transfer import (
    CountingMask, cut_moments, instance_tables, partition_polynomial, section_covariance,
)

from helpers import (
    STD_NORMAL, batch_budget, count_calls, gauged, lattice_floor, restrict, root_finds, split_parts,
    sweep_steps, table_builds,
)

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
    # other than the two it once named, a with_sections that is no boolean,
    # or a chunk that is no integer, is still an error
    old = parse_config("[ladder]\nmode = polynomial\nwith_sections = false\nchunk = 64\n"
                       "[checks]\nse_mult = 2\nquenched_dist = 0.1\n", is_text=True)
    assert write_config(old) == write_config(ExperimentConfig())
    with pytest.raises(ValueError, match="unknown mode"):
        parse_config("[ladder]\nmode = exactly\n", is_text=True)
    with pytest.raises(ValueError, match="with_sections must be a boolean, got 'banana'"):
        parse_config("[ladder]\nwith_sections = banana\n", is_text=True)
    with pytest.raises(ValueError, match="chunk must be an integer, got '2.5'"):
        parse_config("[ladder]\nchunk = 2.5\n", is_text=True)


@pytest.mark.parametrize("text,message", [
    ("[ladder]\nreplicas = 2.5\n", "[ladder] replicas must be an integer, got '2.5'"),
    ("[ladder]\nn = 8, x\n", "[ladder] n must be a comma list of integers, got '8, x'"),
    ("[ladder]\nwith_ground = maybe\n", "[ladder] with_ground must be a boolean, got 'maybe'"),
    ("[ladder]\nt_grid = 0, half\n", "[ladder] t_grid must be a comma list of numbers, got '0, half'"),
    ("[disorder]\nedge = uniform(1,0)\n", "[disorder] edge must be a weight law: uniform(a, b) needs a <= b"),
    ("[disorder]\nvertex = uniform(0,inf)\n",
     "[disorder] vertex must be a weight law: uniform(0.0,inf): parameter 2 must be finite"),
    # a NaN or infinite threshold would fail or pass every metric it bounds
    ("[checks]\nskew_tol = nan\n", "[checks] skew_tol must be a finite number, got 'nan'"),
    ("[checks]\nks_const = inf\n", "[checks] ks_const must be a finite number, got 'inf'"),
    ("[checks]\nse_mult = two\n", "[checks] se_mult must be a finite number, got 'two'"),
    ("[ladder]\nseed = -1\n", "seed must be >= 0, got -1"),
], ids=["int", "int-list", "bool", "grid", "law", "law-inf", "threshold-nan", "threshold-inf",
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


@pytest.mark.parametrize("kw", [
    dict(replicas=12, with_spectrum=True),
    dict(fiber="path(3)", n_ladder=(5, 8), replicas=70),
], ids=["spectra", "seventy-replicas"])
def test_run_replicas_deterministic_and_batch_independent(monkeypatch, kw):
    cfg = _small_cfg(disorder=STD_NORMAL, **kw)
    ref = run_replicas(cfg)   # one batch per rung
    assert ({"max_lambda", "u_n", "varQ_n"} <= set(ref.columns)) == cfg.with_spectrum
    calls = count_calls(monkeypatch, transfer, ["batch_tables"])
    for k in (1, 2, 3):
        top = max(cfg.n_ladder)
        batch_budget(monkeypatch, k, cfg.fiber_graph(), top, top if cfg.with_spectrum else 0)
        calls["batch_tables"] = 0
        table = run_replicas(cfg)
        assert calls["batch_tables"] > -(-cfg.replicas // k)   # the top rung's, and more
        for key in ref.columns:
            assert np.array_equal(ref.columns[key], table.columns[key], equal_nan=True), (k, key)


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


def test_each_batch_builds_one_table_and_no_tilted_sweeps(monkeypatch):
    # each batch draws its log Z, cumulants, sections, ground state and
    # spectra from a single table; a second table build, a finite-difference
    # sweep or a per-replica polynomial would show in these counts
    calls = count_calls(monkeypatch, transfer, ["batch_tables", "partition_polynomial"])
    steps = sweep_steps(monkeypatch)
    H, replicas = HGraph.path(2), 2 * 10
    for with_spectrum in (False, True):
        for key in calls:
            calls[key] = 0
        steps.clear()
        batch_budget(monkeypatch, 4, H, 9, 9 * with_spectrum)
        size = {n: transfer.replicas_per_batch(H, n, n * with_spectrum) for n in (6, 9)}
        sizes = {n: [min(s, 10 - lo) for lo in range(0, 10, s)] for n, s in size.items()}
        assert sizes[9] == [4, 4, 2]
        cfg = _small_cfg(fiber="path(2)", n_ladder=(6, 9), replicas=10,
                         disorder=STD_NORMAL, with_ground=True, with_spectrum=with_spectrum)
        table = run_replicas(cfg)
        assert len(table) == replicas
        assert calls == {"batch_tables": sum(map(len, sizes.values())), "partition_polynomial": 0}, with_spectrum
        # per batch of R: the two SCALED moment sweeps that meet at the cut
        # (k = 3 of 6 and k = 4 of 9) run as one over 2R columns for the
        # min(k, n - k) layers they share, and the longer half goes on over
        # its other layers on R, with no MOMENT sweep of a replica past the
        # certificate; then the MAX one over n layers, and with spectra one
        # DEGREE recursion over n layers and no LOG one
        expect = []
        for n, k in ((6, 3), (9, 4)):
            for R in sizes[n]:
                expect += ([("scaled", min(k, n - k), 2 * R)]
                           + [("scaled", abs(n - 2 * k), R)] * (n != 2 * k)
                           + [("max", n, R)] + [("degree", n, R)] * with_spectrum)
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
                ref = spectrum(partition_polynomial(g, gauged(w)))
            except SpectrumError:
                assert n == 48 and np.isnan([lam, u, vq]).all(), (n, s)
                continue
            assert n < 48, (n, s)
            assert lam == pytest.approx(ref.max_abs(), rel=1e-9, abs=0.0), (n, s)
            assert abs(u - mean / n) <= 1e-9 and abs(vq - var / n) <= 1e-9, (n, s)


def test_spectra_past_the_extraction_limit_compute_no_zeros(monkeypatch):
    # the polynomial workload's shape: path(4) at n = 8 (N = 32) and n = 48
    # (N = 192), 8 replicas, with the functional check.  Only N = 32 reaches
    # the root finder: the 8 campaign rows, whose zeros the check reads, so
    # 8 np.roots calls and 1 degree recursion, where extracting at n = 48
    # too took 24 and 3, and the check extracting its own took 16 and 2
    calls = root_finds(monkeypatch)
    steps = sweep_steps(monkeypatch)
    cfg = _small_cfg(fiber="path(4)", n_ladder=(8, 48), replicas=8, disorder=STD_NORMAL,
                     seed=7, with_spectrum=True)
    table = run_replicas(cfg)
    report, failed = experiments.run_checks(cfg, table, ["functionals"])
    assert failed == [] and report["functionals"].n == 8
    assert calls == [17] * 8   # the even part of a degree-32 polynomial
    assert [layers for name, layers, _ in steps if name == "degree"] == [8]
    assert report["refused_spectra"] == {8: 0, 48: 8}
    assert np.isnan([table.at(48, key) for key in ("max_lambda", "u_n", "varQ_n")]).all()


def test_functional_check_builds_one_table():
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8,), replicas=4, disorder=STD_NORMAL)
    assert table_builds(lambda: functional_consistency_check(cfg, environments=6)) == 1


def _functionals_text(cfg, table=None) -> str:
    return json.dumps(jsonify(functional_consistency_check(cfg, table=table)), sort_keys=True)


def _spectral_cfg(replicas: int):
    # path(2) at n = 8, 16 (N = 32, the check's rung) and 32 (past the limit)
    return _small_cfg(fiber="path(2)", n_ladder=(8, 16, 32), replicas=replicas, disorder=STD_NORMAL,
                      seed=4, with_spectrum=True, x_grid=(-1.0, 0.0, 1.5))


def test_functional_check_reads_the_zeros_of_a_campaign_that_covers_it(monkeypatch):
    # a campaign of at least FUNCTIONAL_ENVIRONMENTS replicas keeps the
    # zeros of streams 0..7 at the check's rung, bit for bit those that the
    # check extracts from its own draws: given the table, the check builds
    # no table, runs no degree recursion and no root finder, and reports
    # what it reports without it
    cfg = _spectral_cfg(10)
    table = run_replicas(cfg)
    assert len(table.zeros) == experiments.FUNCTIONAL_ENVIRONMENTS == 8
    g = build_cylinder(16, cfg.fiber_graph())
    fresh = experiments._spectra(g, transfer.batch_tables(g, *_draw_weight_batch(g, cfg, range(8))))
    for (p, sp), (q, sq) in zip(table.zeros, fresh, strict=True):
        assert np.array_equal(p.log_coeffs, q.log_coeffs) and sp == sq
    ref = _functionals_text(cfg)
    steps, roots, got = sweep_steps(monkeypatch), root_finds(monkeypatch), []
    assert table_builds(lambda: got.append(_functionals_text(cfg, table))) == 0
    assert steps == [] and roots == []
    assert got == [ref]


def test_functional_check_extracts_only_the_environments_the_campaign_missed(monkeypatch):
    # 3 replicas cover streams 0..2: the check draws streams 3..7 in one
    # table, one degree recursion over their 5 columns and 5 root finds
    cfg = _spectral_cfg(3)
    table = run_replicas(cfg)
    assert len(table.zeros) == 3
    ref = _functionals_text(cfg)
    steps, roots, got = sweep_steps(monkeypatch), root_finds(monkeypatch), []
    assert table_builds(lambda: got.append(_functionals_text(cfg, table))) == 1
    assert [(name, layers, columns) for name, layers, columns in steps] == [("degree", 16, 5)]
    assert len(roots) == 5
    assert got == [ref]


def test_functional_check_reads_zeros_from_batches_smaller_than_its_environments(monkeypatch):
    # a budget of 3 replicas splits the rung into batches of 3, 3, 3 and 1:
    # the first 8 streams' zeros come from three batches, and the report is
    # that of the default budget, with no table built
    cfg = _spectral_cfg(10)
    ref = _functionals_text(cfg)
    H = cfg.fiber_graph()
    batch_budget(monkeypatch, 3, H, 16, 16)
    sizes, chunk = [], experiments._replica_chunk
    monkeypatch.setattr(experiments, "_replica_chunk",
                        lambda g, *a: sizes.append((g.n, len(a[1]))) or chunk(g, *a))
    table = run_replicas(cfg)
    assert [b for n, b in sizes if n == 16] == [3, 3, 3, 1]
    assert len(table.zeros) == 8
    got = []
    assert table_builds(lambda: got.append(_functionals_text(cfg, table))) == 0
    assert got == [ref]


def test_a_minus_inf_vertex_weight_refuses_the_extraction(monkeypatch):
    # a -inf vertex weight leaves no all-monomer coefficient, so no monic
    # form: the campaign keeps that row with empty spectral cells, counted
    # as refused, and the functionals check fails that environment, whether
    # it reads the zeros from the campaign or extracts them itself
    disorder = DisorderSpec(Law.parse("bernoulli_shift(0.05,0,-inf)"), Law.normal(0, 1))
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 16), replicas=16, disorder=disorder, seed=3,
                     with_spectrum=True)
    table = run_replicas(cfg)
    report, failed = experiments.run_checks(cfg, table, ["functionals"])
    for n in (8, 16):
        g = build_cylinder(n, HGraph.path(2))
        dead = [bool(np.isneginf(sample_weights(g, disorder, RngSeed(3, s)).nu).any()) for s in range(16)]
        assert np.isnan(table.at(n, "max_lambda")).tolist() == dead, n
        assert report["refused_spectra"][n] == sum(dead), n
    rep = report["functionals"]
    assert failed == ["functionals"] and not rep.ok
    assert rep.n == 16 and rep.failures == sum(dead[:8]) > 0
    assert _functionals_text(cfg) == _functionals_text(cfg, table)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk(g, cfg, R: int, k: int) -> tuple:
    """The rows of streams 0..R-1 at cut k, drawn and built as the batch map does."""
    return _replica_chunk(g, cfg, range(R), transfer.batch_tables(g, *_draw_weight_batch(g, cfg, range(R))), k)


_PEAK_CASES = [
    (2, 512, 256, False, 256), (4, 128, 64, False, 64), (6, 64, 16, False, 32),
    (8, 32, 8, False, 16),
    # spectra within the extraction limit (n*h <= 32), where the degree
    # recursion runs over the whole batch; at path(6), R = 256 it is the
    # largest stage
    (2, 16, 32, True, 8), (4, 8, 16, True, 4), (6, 5, 8, True, 2), (6, 5, 256, True, 2),
    # at h = 12 the mix at the cut outweighs the weights; off centre the
    # longer half's own message is alive beside the joint one
    (12, 16, 4, False, 8), (12, 5, 2, False, 2), (12, 16, 4, False, 3),
]


# a case's id names its cut k only when k is off the centre n // 2
@pytest.mark.parametrize("h, n, R, spectra, k", _PEAK_CASES,
                         ids=["-".join(map(str, c[:4] if c[4] == c[1] // 2 else c)) for c in _PEAK_CASES])
def test_batch_model_bounds_the_traced_peak(h, n, R, spectra, k):
    # the modelled bytes of a batch are at or above the peak that
    # tracemalloc sees for its rows at cut k, and within twice it; the
    # first call builds the fiber tables and imports what the routes need
    cfg = _small_cfg(fiber=f"path({h})", n_ladder=(n,), replicas=R, disorder=STD_NORMAL,
                     with_ground=True, with_spectrum=spectra)
    g = build_cylinder(n, cfg.fiber_graph())
    _chunk(g, cfg, 2, k)
    peak = _traced_peak(lambda: _chunk(g, cfg, R, k))
    model = transfer.batch_bytes(g.H, n, R, n if spectra else 0)
    assert peak <= model <= 2 * peak, (model, peak)


@pytest.mark.parametrize("h, n, R, k", [(2, 512, 256, 256), (4, 128, 64, 64), (12, 16, 4, 8), (12, 5, 2, 2)])
def test_batch_model_bounds_the_traced_peak_past_the_certificate(monkeypatch, h, n, R, k):
    # normal(0,100) weights put every replica past the certificate of the
    # scaled moment sweep: the MOMENT sweeps that run them again, in parts
    # of at most R / 2 beside the batch's messages, stay within its model
    steps = sweep_steps(monkeypatch)
    cfg = _small_cfg(fiber=f"path({h})", n_ladder=(n,), replicas=R, with_ground=True,
                     disorder=DisorderSpec(Law.normal(0.0, 100.0), Law.normal(0.0, 100.0)))
    g = build_cylinder(n, cfg.fiber_graph())
    _chunk(g, cfg, 2, k)
    steps.clear()
    peak = _traced_peak(lambda: _chunk(g, cfg, R, k))
    assert ("moment", min(k, n - k), 2 * max(R // 2, 1)) in steps
    model = transfer.batch_bytes(g.H, n, R)
    assert peak <= model <= 2 * peak, (model, peak)


def test_a_rung_past_the_extraction_limit_is_sized_without_the_degree_term(monkeypatch):
    # path(4) at n = 48 is N = 192: its rows run no degree recursion, so its
    # batches hold replicas_per_batch(H, 48, 0) replicas, where the degree
    # term would not leave room for one; n = 8 (N = 32) keeps the term
    H = HGraph.path(4)
    cfg = _small_cfg(fiber="path(4)", n_ladder=(8, 48), replicas=8, disorder=STD_NORMAL,
                     with_spectrum=True)
    assert (cfg.degree_layers(8), cfg.degree_layers(48)) == (8, 0)
    batch_budget(monkeypatch, 3, H, 48, 0)
    assert transfer.replicas_per_batch(H, 48, 0) == 3
    assert transfer.batch_bytes(H, 48, 1, 48) > transfer.BATCH_BYTES
    sizes, chunk = [], experiments._replica_chunk
    monkeypatch.setattr(experiments, "_replica_chunk",
                        lambda g, *a: sizes.append((g.n, len(a[1]))) or chunk(g, *a))
    run_replicas(cfg)
    assert [b for n, b in sizes if n == 48] == [3, 3, 2]
    k = transfer.replicas_per_batch(H, 8, 8)
    assert [b for n, b in sizes if n == 8] == [min(k, 8 - lo) for lo in range(0, 8, k)]


def test_batch_model_bounds_the_traced_peak_of_the_brownian_check():
    # the sampler of the batch is the largest stage of every environment,
    # ahead of the LOG passes and the degree recursion of increment_laws:
    # at path(4) its block of draws, at path(6) its laws, and at path(2),
    # n = 256 both alike; at path(1) with 33 t points its block of draws
    # too, beside which the check holds only its rows of [1, increments]
    # and integer tallies, no increment of an earlier block
    for h, n, envs, draws, points in ((4, 64, 16, 100, 5), (6, 64, 48, 50, 5), (2, 256, 16, 10, 17),
                                      (1, 64, 16, 100, 33)):
        cfg = _small_cfg(fiber=f"path({h})", n_ladder=(n,), replicas=2, disorder=STD_NORMAL,
                         gibbs_samples=draws, height_envs=envs, t_grid=tuple(np.linspace(0, 1, points)))
        brownian_fdd_check(replace(cfg, n_ladder=(32,), height_envs=2), 1.0)
        peak = _traced_peak(lambda: brownian_fdd_check(cfg, 1.0))
        degree_layers = n // (points - 1)
        model = transfer.batch_bytes(cfg.fiber_graph(), n, envs, degree_layers, draws)
        assert transfer.replicas_per_batch(cfg.fiber_graph(), n, degree_layers, draws) >= envs   # one batch
        assert peak <= model <= 2 * peak, (h, model, peak)


def test_large_fibers_run_in_batches_or_are_refused_when_read():
    # by the model's arithmetic, without drawing a replica: a path(12) rung
    # of 1024 layers runs in batches of about a thousand replicas, one of
    # 100,000 layers (its weights alone are 27 MiB per replica) in batches
    # of a few, and one of 2,000,000 layers, of which one replica exceeds
    # the budget, is refused with h, n and the bytes
    H = HGraph.path(12)
    assert transfer.replicas_per_batch(H, 1024) > 1000
    k = transfer.replicas_per_batch(H, 100_000)
    assert 1 < k < 32 and k * 8 * 100_000 * 35 < transfer.BATCH_BYTES
    assert transfer.batch_bytes(H, 100_000, k) <= transfer.BATCH_BYTES < transfer.batch_bytes(H, 100_000, k + 1)
    _small_cfg(fiber="path(12)", n_ladder=(8, 100_000))   # accepted when read
    one = transfer.batch_bytes(H, 2_000_000, 1)
    assert one > transfer.BATCH_BYTES
    with pytest.raises(transfer.CapacityError,
                       match=f"^one replica of fiber size h=12 at n=2000000 layers needs {one:,} bytes,"
                             f" over the batch budget of {transfer.BATCH_BYTES:,}$"):
        parse_config("[graph]\nfiber = path(12)\n[ladder]\nn = 64, 2000000\n", is_text=True)


def test_brownian_check_names_the_stream_of_an_empty_environment(monkeypatch):
    # with every edge -inf an environment has a matching of finite weight
    # only if no vertex weight is -inf; the sampler of the batch refuses its
    # empty ones, and the check names the first one's stream and counts them,
    # also split in two, where the empty ones are in the child's part
    disorder = DisorderSpec(Law.parse("bernoulli_shift(0.05,0,-inf)"), Law.constant(float("-inf")))
    cfg = _small_cfg(n_ladder=(8,), disorder=disorder, seed=3, height_envs=8, gibbs_samples=4,
                     t_grid=(0.0, 0.5, 1.0))
    g = build_cylinder(8, HGraph.single())
    empty = [s for s in range(8) if np.isneginf(sample_weights(g, disorder, RngSeed(3, s)).nu).any()]
    assert empty[0] >= 4 and len(empty) > 1
    message = (f"^stream {empty[0]} at n=8 has no matching of finite weight"
               rf" \({len(empty)} of the 8 replicas of its batch\): empty Gibbs measure$")
    with pytest.raises(experiments.EmptyStreamError, match=message):
        brownian_fdd_check(cfg, 1.0)
    split_parts(monkeypatch, 2)
    with pytest.raises(experiments.EmptyStreamError, match=message):
        brownian_fdd_check(cfg, 1.0)
    _no_child_left()


def test_brownian_check_refuses_a_single_draw():
    # one draw in all has no sample variance: refused before the campaign
    cfg = _small_cfg(fiber="path(2)", n_ladder=(16,), disorder=STD_NORMAL, height_envs=1, gibbs_samples=1,
                     t_grid=(0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="2 draws in all for a variance; got 1 x 1$"):
        check_runnable(cfg, ["brownian"])
    with pytest.raises(ValueError, match="2 draws in all"):
        brownian_fdd_check(cfg, 1.0)
    assert brownian_fdd_check(replace(cfg, gibbs_samples=2), 1.0).samples == 2


def test_brownian_check_refuses_an_increment_without_variance():
    # with every edge -inf every draw leaves every vertex unpaired, so each
    # increment is the number of its vertices in all draws: refused by
    # name, with no NaN field and no numpy warning
    cfg = _small_cfg(fiber="path(2)", n_ladder=(16,), height_envs=2, gibbs_samples=3, t_grid=(0.0, 0.5, 1.0),
                     disorder=DisorderSpec(Law.normal(0, 1), Law.constant(float("-inf"))))
    with pytest.raises(ValueError, match=r"^height increment 1 \(t 0 to 0.5\) takes one value in all 6 draws"):
        brownian_fdd_check(cfg, 1.0)


def test_blocks_of_draws_never_narrow_a_brownian_batch(monkeypatch):
    # at path(2), n = 64 (increments of 4 layers), 40 draws: a budget that
    # the build of 3 samplers fills holds 3 of the 7 environments per batch,
    # in blocks of fewer draws, where blocks sized for one replica would
    # hold all 40 draws and one environment; the report is the default's
    H = HGraph.path(2)
    cfg = _small_cfg(fiber="path(2)", n_ladder=(64,), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=40, height_envs=7)

    def report():
        out = []
        builds = table_builds(lambda: out.append(json.dumps(jsonify(brownian_fdd_check(cfg, 1.0)),
                                                            sort_keys=True)))
        return builds, out[0]

    ref = report()
    batch_budget(monkeypatch, 3, H, 64, 4, 1)
    block = transfer.draws_per_block(H, 64, 4, 40, 7)
    assert 1 < block < 40 == transfer.draws_per_block(H, 64, 4, 40)
    assert transfer.replicas_per_batch(H, 64, 4, block) == 3 > transfer.replicas_per_batch(H, 64, 4, 40)
    assert report() == (3, ref[1])
    # at 120,000 bytes the build of two samplers alone exceeds the budget:
    # batches of one, in blocks of 12
    monkeypatch.setattr(transfer, "BATCH_BYTES", 120_000)
    assert transfer.batch_bytes(H, 64, 2, 4, 1) > 120_000
    assert transfer.draws_per_block(H, 64, 4, 40, 7) == 12
    assert report() == (7, ref[1])


def test_brownian_draws_past_the_budget_are_planned_in_blocks(monkeypatch):
    # 3,000,000 draws of one environment at path(2), n = 40 exceed the
    # budget at once: the check plans them in blocks when the config is
    # read, and draws nothing there
    monkeypatch.setattr(GibbsSampler, "draw_states", lambda *a: pytest.fail("drew"))
    cfg = parse_config("[graph]\nfiber = path(2)\n[ladder]\nn = 20, 40\nreplicas = 4\n"
                       "height_envs = 2\ngibbs_samples = 3000000\n", is_text=True)
    check_runnable(cfg, ["brownian"])
    H, cuts = cfg.fiber_graph(), np.floor(40 * np.asarray(cfg.t_grid)).astype(int)
    layers = int(np.diff(cuts).max())
    assert transfer.batch_bytes(H, 40, 1, layers, 3_000_000) > transfer.BATCH_BYTES
    block = transfer.draws_per_block(H, 40, layers, 3_000_000)
    assert 1 < block < 3_000_000
    assert (transfer.batch_bytes(H, 40, 1, layers, block) <= transfer.BATCH_BYTES
            < transfer.batch_bytes(H, 40, 1, layers, block + 1))


def test_check_reports_do_not_depend_on_their_batch(monkeypatch):
    # the Brownian and functional checks draw their environments in batches
    # of the budget, one table each: batches of 1 to 3 of the seven
    # environments give the reports of the default, one batch of all
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 32), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=40, height_envs=7, t_grid=tuple(np.linspace(0, 1, 5)))
    H = cfg.fiber_graph()

    def run(check):
        out = []
        builds = table_builds(lambda: out.append(json.dumps(jsonify(check()), sort_keys=True)))
        return builds, out[0]

    def brownian():
        return brownian_fdd_check(cfg, 1.0)

    def functional():
        return functional_consistency_check(cfg, environments=7)

    ref = {check: run(check) for check in (brownian, functional)}
    assert all(builds == 1 for builds, _ in ref.values())
    for k in (1, 2, 3):
        # the Brownian check's top rung of 32 layers has increments of 8, and
        # the build of k samplers (at one draw) sets its batch of k, as blocks
        # never narrow it; the functional check runs on the rung of 8 layers
        batch_budget(monkeypatch, k, H, 32, 8, 1)
        assert run(brownian) == (-(-7 // k), ref[brownian][1]), k
        batch_budget(monkeypatch, k, H, 8, 8)
        assert run(functional) == (-(-7 // k), ref[functional][1]), k
    # a budget of 13 draws: each environment draws its 40 in blocks
    batch_budget(monkeypatch, 1, H, 32, 8, 13)
    assert transfer.draws_per_block(H, 32, 8, 40) == 13
    assert run(brownian) == (7, ref[brownian][1])


WEIGHT_LAWS = ("constant(-0.5)", "uniform(-1,2)", "normal(0.3,1.5)", "bernoulli_shift(0.3,-inf,0.5)",
               "exponential_shift(2,-1)")


def test_weight_batch_matches_single_draws():
    # the stacked draws are bit-identical to one sample_weights per stream,
    # for every law kind, equal and unequal vertex and edge laws (one
    # Law.sample call per stream or two), -inf weights, one layer (no
    # horizontal edges), one fiber vertex (no fiber edges) and streams out
    # of order, past 2^32 among them
    streams = [9, 0, 2**32 + 5, 3, 4, 2**40 + 7]
    for H, n in itertools.product([HGraph.single(), HGraph.cycle(3), HGraph.complete(4)], (1, 2, 7)):
        g = build_cylinder(n, H)
        for vertex in WEIGHT_LAWS:
            for edge in WEIGHT_LAWS:
                disorder = DisorderSpec(Law.parse(vertex), Law.parse(edge))
                got = _draw_weight_batch(g, _small_cfg(disorder=disorder, seed=12), streams)
                ws = [sample_weights(g, disorder, RngSeed(12, stream=s)) for s in streams]
                for a, name in zip(got, ("nu", "omega_h", "omega_v")):
                    assert np.array_equal(a, np.stack([getattr(w, name) for w in ws])), (n, vertex, edge, name)
    # and refused once for the batch if a law's draws overflow to +inf
    g = build_cylinder(7, HGraph.cycle(3))
    bad = _small_cfg(disorder=DisorderSpec(Law.normal(0.0, 1.0), Law.parse("exponential_shift(1e-308,0)")))
    with pytest.raises(ValueError, match="omega_h contains NaN"):
        _draw_weight_batch(g, bad, streams)


def test_a_campaign_draws_from_one_generator_per_batch(monkeypatch):
    # the batch draw derives its keys itself: no SeedSequence and no
    # rng_generator per stream, and one Philox per batch, re-keyed
    from dimerlab import graphs

    made = []
    monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **k: pytest.fail("built a SeedSequence"))
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(1) or philox(*a, **k))
    calls = count_calls(monkeypatch, graphs, ["rng_generator", "sample_weights"])
    builds = count_calls(monkeypatch, transfer, ["batch_tables"])
    batch_budget(monkeypatch, 3, HGraph.path(2), 16)
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 16), replicas=8, disorder=STD_NORMAL, seed=4)
    table = run_replicas(cfg)
    assert calls == {"rng_generator": 0, "sample_weights": 0}
    assert 0 < len(made) <= builds["batch_tables"] and builds["batch_tables"] >= 4
    monkeypatch.undo()
    for key, column in run_replicas(cfg).columns.items():
        assert np.array_equal(table.columns[key], column, equal_nan=True), key


def _assert_same_table(ref, table) -> None:
    assert ref.columns.keys() == table.columns.keys()
    for key, column in ref.columns.items():
        assert column.dtype == table.columns[key].dtype, key
        assert np.array_equal(column, table.columns[key], equal_nan=True), key
    assert [pickle.dumps(pair) for pair in ref.zeros] == [pickle.dumps(pair) for pair in table.zeros]


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kw, budget", [
    # the campaign's shape at fewer replicas
    (dict(fiber="path(2)", n_ladder=(128, 512), replicas=24, disorder=STD_NORMAL), None),
    # spectra with -inf edges, the functionals check's 8 environments of 12
    # across the parts of one batch
    (dict(fiber="path(2)", n_ladder=(4, 8), replicas=12, with_spectrum=True, disorder=DisorderSpec(
        Law.normal(0, 1), Law.parse("bernoulli_shift(0.3,-inf,0.5)"))), None),
    # the 8 environments across batches of 5, each split
    (dict(fiber="path(3)", n_ladder=(5, 8), replicas=23, with_spectrum=True, disorder=STD_NORMAL), 5),
], ids=["campaign", "spectra-inf-edges", "zeros-across-batches"])
def test_a_split_campaign_gives_the_table_of_one_process(monkeypatch, kw, budget):
    # every part of every batch runs in its own process: the columns, their
    # dtypes and the zeros of the functionals check are those of one
    # process, for 2 and 3 parts, and no process is left
    cfg = _small_cfg(**kw)
    if budget:
        top = max(cfg.n_ladder)
        batch_budget(monkeypatch, budget, cfg.fiber_graph(), top, cfg.degree_layers(top))
    ref = run_replicas(cfg)
    assert ref.workers.processes == 1 and len(ref.zeros) == (8 if cfg.with_spectrum else 0)
    for parts in (2, 3):
        split_parts(monkeypatch, parts)
        table = run_replicas(cfg)
        assert table.workers[:2] == (parts, parts) and table.workers.reason is None
        _assert_same_table(ref, table)
        _no_child_left()


def _empty_streams_cfg(seed: int):
    # every edge -inf: a replica has a finite matching only if no vertex
    # weight is -inf; the streams of such replicas of 12
    disorder = DisorderSpec(Law.parse("bernoulli_shift(0.05,0,-inf)"), Law.constant(float("-inf")))
    cfg = _small_cfg(n_ladder=(8,), replicas=12, disorder=disorder, seed=seed)
    g = build_cylinder(8, HGraph.single())
    return cfg, [s for s in range(12) if np.isneginf(sample_weights(g, disorder, RngSeed(seed, s)).nu).any()]


def test_a_split_campaign_refuses_empty_streams_as_one_process(monkeypatch):
    # the refusal names the first empty stream of the batch and counts the
    # empty ones of all its parts against the whole batch: at seed 8 both
    # in the child's half, at seed 0 in both halves
    for seed, halves in ((8, {1}), (0, {0, 1})):
        cfg, empty = _empty_streams_cfg(seed)
        assert {s // 6 for s in empty} == halves and len(empty) > 1
        message = (f"^stream {empty[0]} at n=8 has no matching of finite weight"
                   rf" \({len(empty)} of the 12 replicas of its batch\): empty Gibbs measure$")
        with pytest.raises(experiments.EmptyStreamError, match=message):
            run_replicas(cfg)
        split_parts(monkeypatch, 2)
        with pytest.raises(experiments.EmptyStreamError, match=message):
            run_replicas(cfg)
        _no_child_left()
        monkeypatch.undo()


def _refuse_streams(monkeypatch, bad) -> None:
    """Make the weight draw of a batch refuse its first stream in ``bad``."""
    draw = experiments._draw_weight_batch

    def refusing(g, cfg, streams):
        if hit := [s for s in streams if s in bad]:
            raise transfer.CapacityError(f"stream {hit[0]} refused")
        return draw(g, cfg, streams)

    monkeypatch.setattr(experiments, "_draw_weight_batch", refusing)


@pytest.mark.parametrize("bad, named", [({19}, 19), ({3, 17}, 3), ({2}, 2)],
                         ids=["child", "both", "parent"])
def test_a_refusal_in_any_part_is_raised_as_one_process_raises_it(monkeypatch, bad, named):
    # a refusal in the child's part comes back with its type and message;
    # with one in each part the parent's, of the earlier streams, is raised,
    # as one process raises it, and no process is left
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 16), replicas=24, disorder=STD_NORMAL)
    _refuse_streams(monkeypatch, bad)
    with pytest.raises(transfer.CapacityError, match=f"^stream {named} refused$"):
        run_replicas(cfg)
    split_parts(monkeypatch, 2)
    with pytest.raises(transfer.CapacityError, match=f"^stream {named} refused$"):
        run_replicas(cfg)
    _no_child_left()


def test_a_refusal_at_an_earlier_rung_wins_over_a_later_one(monkeypatch):
    # the child refuses at the first rung, the parent only at the second:
    # the first rung's refusal is raised, as one process raises it
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 16), replicas=24, disorder=STD_NORMAL)
    draw = experiments._draw_weight_batch

    def refusing(g, cfg, streams):
        if (g.n == 8 and 20 in streams) or (g.n == 16 and 1 in streams):
            raise transfer.CapacityError(f"n={g.n} refused")
        return draw(g, cfg, streams)

    monkeypatch.setattr(experiments, "_draw_weight_batch", refusing)
    split_parts(monkeypatch, 2)
    with pytest.raises(transfer.CapacityError, match="^n=8 refused$"):
        run_replicas(cfg)
    _no_child_left()


def test_a_child_that_dies_or_a_parent_interrupted_leaves_no_process(monkeypatch):
    # a child killed by a signal is an error naming the signal, never a
    # partial table; an interrupt of the parent's own part kills the child
    # (which would otherwise sleep for a minute) before it propagates
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 16), replicas=24, disorder=STD_NORMAL)
    chunk, parent = experiments._replica_chunk, os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk(*args)

    split_parts(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_replica_chunk", dying)
    with pytest.raises(RuntimeError, match=rf"^replica worker \d+ \(part 1 of 2\) died by signal"
                                           rf" {int(signal.SIGKILL)} without a result$"):
        run_replicas(cfg)
    _no_child_left()

    def interrupted(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "_replica_chunk", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_replicas(cfg)
    assert time.monotonic() - start < 30
    _no_child_left()


def test_a_campaign_below_the_split_threshold_never_forks(monkeypatch):
    # on two CPUs the polynomial campaign's shape, 8 * (8 + 48) * 4 = 1,792
    # steps, runs in one process, as does the functionals check's loop (8
    # environments at N = 32, 256 steps), and any map on one CPU, without
    # os.fork or without os.sched_getaffinity; with no threshold, a map
    # whose widest batch has one stream (one Brownian environment) still
    # runs in one; the campaign's shape splits
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = _small_cfg(fiber="path(4)", n_ladder=(8, 48), replicas=8, disorder=STD_NORMAL)
    assert run_replicas(cfg).workers == (1, 2, 1792, "work 1,792 below the split threshold 65,536")
    assert functional_consistency_check(cfg).n == 8
    monkeypatch.setattr(experiments, "SPLIT_WORK", 0)
    assert experiments.campaign_workers(1792, 8) == (2, 2, 1792, None)
    assert experiments.campaign_workers(1792, 1) == (1, 2, 1792, "one stream per batch")
    brownian_fdd_check(replace(cfg, height_envs=1, gibbs_samples=20, t_grid=(0.0, 0.5, 1.0)), 1.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert experiments.campaign_workers(1792, 8) == (1, 1, 1792, "one usable CPU")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert experiments.campaign_workers(1792, 8) == (1, 1, 1792, "no os.sched_getaffinity")
    monkeypatch.delattr(os, "fork")
    assert experiments.campaign_workers(1792, 8).reason == "no os.fork"
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert experiments.campaign_workers(256 * (128 + 512) * 2, 256) == (2, 2, 327_680, None)


def _counted_forks(monkeypatch) -> list:
    """Record each ``os.fork`` of this process; returns the live list."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


@pytest.mark.parametrize("budget", [None, 3], ids=["one-batch", "batches-of-3"])
def test_split_checks_give_the_reports_of_one_process(monkeypatch, budget):
    # the Brownian check at n = 32 and the functionals check at n = 8, with
    # -inf edges, split their 7 environments, in one batch or in batches of
    # 3, 3 and 1, into 2 and 3 parts: one fork per part past the first, the
    # JSON report of one process, and no process left
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8, 32), replicas=2, gibbs_samples=40, height_envs=7,
                     t_grid=tuple(np.linspace(0, 1, 5)),
                     disorder=DisorderSpec(Law.normal(0, 1), Law.parse("bernoulli_shift(0.2,0,-inf)")))
    for check, model in ((lambda: brownian_fdd_check(cfg, 1.0), (32, 8, 1)),
                         (lambda: functional_consistency_check(cfg, environments=7), (8, 8))):
        if budget:
            batch_budget(monkeypatch, budget, cfg.fiber_graph(), *model)
        ref = json.dumps(jsonify(check()), sort_keys=True)
        for parts in (2, 3):
            split_parts(monkeypatch, parts)
            forks = _counted_forks(monkeypatch)
            assert json.dumps(jsonify(check()), sort_keys=True) == ref
            assert len(forks) == parts - 1
            _no_child_left()
        monkeypatch.undo()


def test_a_split_campaign_under_an_interval_timer_gives_the_same_rows(monkeypatch):
    # a SIGALRM handler on an ITIMER_REAL of 1 ms, as the benchmark's host
    # speed probe installs, interrupts the parent's part and its wait for
    # the child (which does not inherit the timer): the rows are the same
    cfg = _small_cfg(fiber="path(2)", n_ladder=(64, 256), replicas=16, disorder=STD_NORMAL)
    ref = run_replicas(cfg)
    split_parts(monkeypatch, 2)
    alarms = []
    old = signal.signal(signal.SIGALRM, lambda signum, frame: alarms.append(np.ones(64).sum()))
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        table = run_replicas(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert alarms and table.workers.processes == 2
    _assert_same_table(ref, table)
    _no_child_left()


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
    distance = lattice_floor(partition_polynomial(g, WeightAssignment.constant(g)).pmf())
    assert distance == pytest.approx(norm.cdf(1.0) - 0.5, abs=1e-12)


def _normality_samples():
    rng = np.random.default_rng(71)
    return {
        "normal-30": rng.normal(size=30),
        "normal-1e4": rng.normal(size=10**4),
        # a lattice law with many ties, whose KS sup sits on a tie
        "tied": rng.poisson(3.0, size=2000).astype(float),
        "cauchy-1e4": rng.standard_cauchy(10**4),
        "student3-1e4": rng.standard_t(3, size=10**4),
    }


@pytest.mark.parametrize("name", list(_normality_samples()))
def test_normality_statistics_match_scipy(name):
    # the clt and brownian statistics against scipy's, on a sample
    # standardized as the checks standardize theirs
    from scipy import stats

    x = _normality_samples()[name]
    z = (x - x.mean()) / x.std(ddof=1)
    skew, kurt = _skew_kurtosis(z)
    assert skew == pytest.approx(stats.skew(z), rel=1e-13, abs=1e-13)
    assert kurt == pytest.approx(stats.kurtosis(z), rel=1e-13, abs=1e-13)
    assert _ks_normal(z) == pytest.approx(stats.kstest(z, "norm").statistic, rel=0.0, abs=1e-13)
    # below the smallest normal float (z < -37.5) no relative accuracy is representable
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(_norm_cdf(z), stats.norm.cdf(z), rtol=1e-13, atol=tiny)
    grid = np.linspace(-40.0, 10.0, 5001)
    np.testing.assert_allclose(_norm_cdf(grid), stats.norm.cdf(grid), rtol=1e-13, atol=tiny)


def test_quenched_ladder_distance_decreases():
    # the exact count law of each prefix cylinder, layers 1..k
    g = build_cylinder(128, HGraph.single())
    w = sample_weights(g, STD_NORMAL, RngSeed(21, 0))
    d = [lattice_floor(partition_polynomial(*restrict(g, w, 1, k)).pmf())
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
    rep = brownian_fdd_check(cfg, est.total_sigma2())
    assert rep.samples == 400
    assert rep.increment_vars.shape == (4,)
    assert np.all(rep.var_ratios > 0)
    assert 0 <= rep.max_abs_corr <= 1


def test_brownian_exact_laws_are_views_of_one_table():
    # one table for every environment, which the default budget holds in
    # one batch: each sampler reads its replica, and the exact law of the
    # pooled increments is the mean of the environments' masked polynomials;
    # the statistics from the check's tallies are those of the draws
    # redrawn here one sampler at a time, with -inf edges too
    minus_inf = DisorderSpec(Law.normal(0.0, 1.0), Law.parse("bernoulli_shift(0.2,0,-inf)"))
    for h, disorder, envs in ((2, STD_NORMAL, 1), (2, STD_NORMAL, 3), (6, minus_inf, 3)):
        cfg = _small_cfg(fiber=f"path({h})", n_ladder=(32,), replicas=2, disorder=disorder,
                         gibbs_samples=200, height_envs=envs)
        reps = []
        assert table_builds(lambda: reps.append(brownian_fdd_check(cfg, 1.0))) == 1
        rep, = reps
        g = build_cylinder(32, HGraph.path(h))
        cuts = np.floor(32 * rep.t_grid).astype(int)
        incs, pmfs = [], []
        for env in range(envs):
            w = sample_weights(g, cfg.disorder, RngSeed(cfg.seed, stream=env))
            sampler = GibbsSampler(instance_tables(g, w))
            theta, _ = heights(sampler.monomer_profiles(sampler.draw_states(
                [rng_generator(RngSeed(cfg.seed, stream=env), DOMAIN_GIBBS)], cfg.gibbs_samples)[0]), rep.t_grid, None)
            incs.append(np.diff(theta, axis=1))
            pmfs.append([partition_polynomial(g, w, CountingMask.layer_range(a + 1, b)).pmf()
                         for a, b in zip(cuts, cuts[1:])])
        inc = np.concatenate(incs)
        assert rep.samples == inc.shape[0] == envs * cfg.gibbs_samples
        assert rep.increment_vars == pytest.approx(np.var(inc, axis=0, ddof=1) / 32, rel=1e-12, abs=0.0)
        corr = np.corrcoef(inc, rowvar=False)
        assert rep.max_abs_corr == pytest.approx(np.abs(corr[~np.eye(len(corr), dtype=bool)]).max(),
                                                 rel=1e-12, abs=0.0)
        for j in range(inc.shape[1]):
            z = (inc[:, j] - inc[:, j].mean()) / inc[:, j].std(ddof=1)
            assert rep.ks_stats[j] == pytest.approx(_ks_normal(z), rel=1e-12, abs=0.0)
            pmf = np.mean([p[j] for p in pmfs], axis=0)
            emp = np.searchsorted(np.sort(inc[:, j]), np.arange(pmf.size), side="right") / inc.shape[0]
            assert rep.lattice_floors[j] == pytest.approx(lattice_floor(pmf), rel=0.0, abs=1e-12)
            assert rep.ks_exact[j] == pytest.approx(np.max(np.abs(emp - np.cumsum(pmf))), rel=0.0, abs=1e-12)


def test_the_brownian_check_holds_no_memory_per_draw(monkeypatch):
    # the check keeps integer tallies of its draws, not the draws: in
    # blocks of 500 fixed by the budget, ten times the draws of two
    # environments leave its traced peak where it was
    H = HGraph.path(2)
    cfg = _small_cfg(fiber="path(2)", n_ladder=(40,), replicas=2, disorder=STD_NORMAL, height_envs=2)
    layers = int(np.diff(np.floor(40 * np.asarray(cfg.t_grid))).max())
    batch_budget(monkeypatch, 2, H, 40, layers, 500)
    brownian_fdd_check(replace(cfg, gibbs_samples=10), 1.0)
    peaks = []
    for draws in (2_000, 20_000):
        assert transfer.draws_per_block(H, 40, layers, draws, 2) == 500
        peaks.append(_traced_peak(lambda: brownian_fdd_check(replace(cfg, gibbs_samples=draws), 1.0)))
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_brownian_normality_of_several_environments_allows_the_lattice_floor():
    # exact Gibbs draws of two environments: the pooled increments are
    # lattice-valued, so their KS distance to normal exceeds the bare
    # sampling envelope, but not the exact pooled law's floor plus it
    cfg = _small_cfg(fiber="path(2)", n_ladder=(32,), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=500, height_envs=2, t_grid=tuple(np.linspace(0, 1, 5)))
    rep = brownian_fdd_check(cfg, 1.0)
    assert not np.all(rep.ks_stats <= rep.ks_envelope)
    assert rep.normality_ok()


@pytest.mark.parametrize("envs", [1, 2])
def test_brownian_refuses_a_grid_finer_than_the_layers(envs):
    # 17 points on 8 layers repeat floor(8 t); so do points outside [0, 1]
    cfg = _small_cfg(fiber="path(2)", n_ladder=(8,), replicas=2, disorder=STD_NORMAL,
                     gibbs_samples=20, height_envs=envs)
    with pytest.raises(ValueError, match=r"strictly increase at n=8; t_grid 0,0\.0625,"):
        brownian_fdd_check(cfg, 1.0)
    for grid in ((0.0, 1.25), (0.5,)):
        cfg.t_grid = grid
        with pytest.raises(ValueError, match="strictly increase at n=8"):
            brownian_fdd_check(cfg, 1.0)
    cfg.t_grid = (0.0, 0.25, 0.5, 1.0)
    assert brownian_fdd_check(cfg, 1.0).increment_vars.shape == (3,)


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


def _csv_writer_bytes(columns: dict, cell) -> bytes:
    """The bytes of ``csv.writer`` fed the header and ``cell(key, value)`` of every entry, row by row."""
    expect = io.StringIO()
    writer = csv.writer(expect)
    writer.writerow(list(columns))
    writer.writerows([cell(k, columns[k][i]) for k in columns] for i in range(len(next(iter(columns.values())))))
    return expect.getvalue().encode()


def test_replica_table_csv_round_trip(tmp_path, monkeypatch):
    # the values come back, and the bytes are those of csv.writer fed n and
    # stream as ints, an empty cell for NaN and repr of every other float;
    # M is NaN without the ground state, and the spectra of the rung past
    # the extraction limit (n = 20, N = 40) are refused; rows go out in
    # blocks of 48 cells (5 rows of 9 columns, 4 of 12)
    monkeypatch.setattr(output, "CSV_BLOCK_CELLS", 48)
    tables = [run_replicas(_small_cfg(disorder=STD_NORMAL, replicas=7)),
              run_replicas(_small_cfg(fiber="path(2)", n_ladder=(4, 20), disorder=STD_NORMAL, replicas=5,
                                      with_ground=False, with_spectrum=True))]
    assert np.isnan(tables[1].columns["M"]).all() and np.isnan(tables[1].at(20, "u_n")).all()
    for i, table in enumerate(tables):
        path = tmp_path / f"t{i}.csv"
        table.to_csv(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            keys = next(reader)
            again = np.array([[float(v) if v else np.nan for v in row] for row in reader])
        assert set(keys) == set(table.columns)
        for j, key in enumerate(keys):
            assert np.array_equal(table.columns[key], again[:, j], equal_nan=True)
        assert path.read_bytes() == _csv_writer_bytes(table.columns, lambda k, v: int(v) if k in ("n", "stream")
                                                      else "" if np.isnan(v) else repr(float(v)))


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path, monkeypatch):
    # ints, both zeros, both infinities, NaN (an empty cell), repeated and
    # extreme floats, over blocks of 9 cells (3 rows) and a table of no rows
    monkeypatch.setattr(output, "CSV_BLOCK_CELLS", 9)
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 0.1, 5e-324, -2.5e17, np.nan])
    k = np.array([3, -1, 0, 3, 10**12, 7, 7, 0, -5, 2])
    for rows in (10, 3, 1, 0):
        columns = {"k": k[:rows], "x": x[:rows], "y": x[::-1][:rows]}
        path = tmp_path / f"{rows}.csv"
        write_csv(str(path), columns)
        expect = _csv_writer_bytes(columns, lambda key, v: int(v) if key == "k"
                                   else "" if np.isnan(v) else repr(float(v)))
        assert path.read_bytes() == expect
        # the first and last columns as Cells, each of its distinct cells
        # (NaN and both zeros among them) from one value, in a new order
        coded = dict(columns)
        for key in ("k", "y"):
            first = {}
            for i, v in enumerate(columns[key].tolist()):
                first.setdefault(repr(v), i)
            cells = list(first)[::-1]
            coded[key] = Cells(columns[key][list(first.values())[::-1]],
                               np.array([cells.index(repr(v)) for v in columns[key].tolist()], dtype=int))
        write_csv(str(path), coded)
        assert path.read_bytes() == expect


@dataclass
class _Record:
    values: np.ndarray
    rows: IntRows
    note: tuple


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                       elements=st.integers(-1, 6) | st.integers(-1, 2**40)))
def test_int_rows_are_written_as_their_lists(tmp_path, rows):
    # list i of IntRows is the non-negative entries of row i, wherever the
    # -1 padding sits, empty lists and no lists included; entries from a
    # short range and from a long one, at three depths and in a dataclass
    lists = [[int(v) for v in row if v >= 0] for row in rows]
    payload = {"draws": IntRows(rows), "nested": [[IntRows(rows)]],
               "record": _Record(np.array([np.nan, 1.5]), IntRows(rows), (np.int64(3), None))}
    plain = {"draws": lists, "nested": [[lists]],
             "record": {"values": [None, 1.5], "rows": lists, "note": [3, None]}}
    assert jsonify(payload) == plain
    path = tmp_path / "rows.json"
    write_json(payload, str(path))
    assert path.read_text() == json.dumps(plain, indent=2, sort_keys=True) + "\n"


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

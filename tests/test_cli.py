from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from dimerlab import cli, experiments, groundstate, transfer
from dimerlab.cli import main
from dimerlab.graphs import HGraph, build_cylinder, load_weights
from dimerlab.sampler import Matching, heights

from helpers import count_calls, layer_counts


def test_exact_prints_log_z_of_path4(capsys, tmp_path):
    out = tmp_path / "run"
    code = main(["exact", "--n", "4", "--h", "1", "--const", "0",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert f"{np.log(5.0):.12f}" in text
    payload = json.loads((out / "exact.json").read_text())
    coeffs = payload["polynomial"]["log_coeffs"]
    assert coeffs[0] == 0.0 and coeffs[1] is None
    assert coeffs[2] == pytest.approx(np.log(3.0))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert "config_sha256" in manifest and "versions" in manifest
    g, w = load_weights(out / "weights.json")
    assert g.n == 4 and g.h == 1
    assert np.all(w.nu == 0.0)


def test_missing_config_is_usage_error(capsys):
    assert main(["experiment", "--config", "definitely-missing.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["exact", "--n", "4", "--h", "1", "--const", "0", "--frob", "1"])
    assert code == 2
    assert "unrecognized" in capsys.readouterr().err


def test_conflicting_fiber_flags_rejected(capsys):
    code = main(["exact", "--n", "4", "--h", "2", "--fiber", "cycle(3)",
                 "--const", "0"])
    assert code == 2


def test_experiment_run_and_rerun_identical(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[graph]\nfiber = single\n"
        "[disorder]\nvertex = normal(0,1)\nedge = normal(0,1)\n"
        "[ladder]\nn = 8, 16\nreplicas = 8\nseed = 5\nmode = scalar\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("replicas.csv", "summary.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]


def test_experiment_failing_check_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    # 40 replicas cannot meet envelopes designed for thousands, so the
    # gated clt check fails deterministically at this seed
    cfg.write_text(
        "[graph]\nfiber = single\n"
        "[disorder]\nvertex = normal(0,1)\nedge = normal(0,1)\n"
        "[ladder]\nn = 12\nreplicas = 40\nseed = 2\nmode = scalar\n"
        "[checks]\nks_const = 0.0001\n"
    )
    assert main(["experiment", "--config", str(cfg), "--checks", "clt"]) == 1


@pytest.mark.parametrize("extra,checks,reason", [
    # no rung with n*h <= 32 for the functional check that spectra run
    ("with_spectrum = true\n", "", "no ladder rung is small enough"),
    # a Brownian check without height environments or Gibbs samples
    ("", "brownian", "height campaign needs height_envs >= 1"),
    # a Brownian check whose t grid repeats a cut floor(n*t) of the top rung,
    # with one environment and with two
    ("height_envs = 1\ngibbs_samples = 10\nt_grid = 0, 0.01, 1\n", "brownian",
     "strictly increase at n=40; t_grid 0,0.01,1 gives 0,0,40"),
    ("height_envs = 2\ngibbs_samples = 10\nt_grid = 0, 0.01, 1\n", "brownian",
     "strictly increase at n=40"),
    # a chunk of no replicas
    ("chunk = 0\n", "", "chunk must be >= 1 replica per batch, got 0"),
    ("chunk = -4\n", "", "chunk must be >= 1 replica per batch, got -4"),
    # a functionals check over an empty tilt grid, which would compare nothing
    ("x_grid =\nwith_spectrum = true\n", "functionals", "empty x_grid"),
    # a check that does not exist, or that would be skipped or fail only after
    # the campaign: functionals without spectra, drift on one rung, clt on 4 replicas
    ("", "clt,foo", "unknown check(s) foo; the checks are clt, drift, brownian, functionals"),
    ("", "functionals", "it needs with_spectrum = true"),
    ("n = 8\n", "drift", "the ladder 8 has one"),
    ("", "clt", "the clt check needs >= 30 replicas, got 4"),
    # a ladder that repeats a length, which the default run's drift report needs twice
    ("n = 8, 8\n", "", "ladder 8,8 repeats a length"),
    # a fiber past the transfer tables' cap, a spectra rung or fiber past the
    # polynomials' caps, and a tilt or height grid that is not finite
    ("fiber = path(13)\n", "", "transfer supports fiber size h <= 12, got h=13"),
    ("n = 20, 2000\nwith_spectrum = true\n", "",
     "polynomials support fiber size h <= 6 and n <= 1024 layers, got h=2, n=2000"),
    ("fiber = path(7)\nn = 4\nwith_spectrum = true\n", "", "h <= 6"),
    ("n = 8\nx_grid = nan\nwith_spectrum = true\n", "functionals",
     "x_grid entries must be finite, got nan"),
    ("t_grid = 0, inf\n", "", "t_grid entries must be finite, got 0.0,inf"),
    # a seed that numpy would refuse only at the first draw
    ("seed = -1\n", "", "seed must be >= 0, got -1"),
], ids=["spectra", "brownian", "brownian-grid-1", "brownian-grid-2", "chunk-0", "chunk-neg",
        "x-grid-empty", "unknown", "functionals-no-spectra", "drift-one-rung", "clt-few-replicas",
        "ladder-repeats", "fiber-past-transfer-cap", "spectra-past-polynomial-cap",
        "spectra-fiber-past-polynomial-cap", "x-grid-nan", "t-grid-inf", "seed-neg"])
def test_experiment_refuses_unrunnable_check_before_campaign(
        monkeypatch, tmp_path, capsys, extra, checks, reason):
    calls = count_calls(monkeypatch, experiments, ["run_replicas"])
    graph, ladder = {"fiber": "path(2)"}, {"n": "20, 40", "replicas": "4", "seed": "1"}
    for k, _, v in (line.partition("=") for line in extra.splitlines()):
        (graph if k.strip() in graph else ladder)[k.strip()] = v.strip()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[graph]\n" + "".join(f"{k} = {v}\n" for k, v in graph.items())
        + "[disorder]\nvertex = normal(0,1)\nedge = normal(0,1)\n"
        "[ladder]\n" + "".join(f"{k} = {v}\n" for k, v in ladder.items())
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--checks", checks]) == 2
    assert reason in capsys.readouterr().err
    assert calls == {"run_replicas": 0}
    assert not out.exists()


@pytest.mark.parametrize("checks,code", [
    ("", 1),
    ("[checks]\nincrement_var_tol = 100\nincrement_corr_tol = 1\nks_const = 100\n", 0),
], ids=["default-tolerances", "loose-tolerances"])
def test_brownian_verdict_in_report_matches_exit_code(tmp_path, capsys, checks, code):
    # 100 pooled draws cannot meet the default tolerances; loose ones pass
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[graph]\nfiber = path(2)\n"
        "[ladder]\nn = 20, 40\nreplicas = 4\nseed = 1\nheight_envs = 2\ngibbs_samples = 50\n"
        "t_grid = 0, 0.5, 1\n" + checks
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--checks", "brownian"]) == code
    assert ("check failed: brownian" in capsys.readouterr().out) == bool(code)
    assert json.loads((out / "report.json").read_text())["brownian"]["ok"] is (code == 0)


def test_experiment_counts_and_prints_refused_spectra(tmp_path, capsys):
    # n = 24 on path(2) puts every polynomial past the N <= 32 that zero
    # extraction resolves; each refused row keeps empty spectral cells
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[graph]\nfiber = path(2)\n"
                   "[ladder]\nn = 8, 24\nreplicas = 6\nseed = 3\nwith_spectrum = true\n")
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "replicas.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    blank = {n: sum(r["n"] == n and r["max_lambda"] == r["u_n"] == r["varQ_n"] == "" for r in rows)
             for n in ("8", "24")}
    assert blank["24"] > 0
    assert json.loads((out / "report.json").read_text())["refused_spectra"] == blank
    assert f"refused spectra: {blank['24']} of 6 at n=24\n" in capsys.readouterr().out


@pytest.mark.parametrize("cmd,flag", [("exact", "--seed"), ("exact", "--stream"),
                                      ("sample", "--stream")])
def test_negative_seed_or_stream_is_refused_before_any_draw(capsys, cmd, flag):
    assert main([cmd, "--n", "4", "--h", "2", "--vertex", "normal(0,1)", flag, "-1"]) == 2
    assert f"{flag[2:]} must be >= 0, got -1" in capsys.readouterr().err


def test_experiment_without_ground_states_reports_the_recorded_metrics(tmp_path, capsys):
    # with_ground = false leaves M all NaN; the default CLT block skips it
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[graph]\nfiber = path(2)\n"
        "[disorder]\nvertex = normal(0,1)\nedge = normal(0,1)\n"
        "[ladder]\nn = 8, 16\nreplicas = 40\nseed = 3\nwith_ground = false\n"
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    clt = json.loads((out / "report.json").read_text())["clt"]
    assert [e["metric"] for e in clt["entries"]] == ["log_z", "mean_U"]


def test_exact_refuses_a_malformed_layer_range(capsys):
    for layers in ("3", "a:4", "2:"):
        assert main(["exact", "--n", "4", "--h", "1", "--const", "0", "--layers", layers]) == 2
        err = capsys.readouterr().err
        assert "--layers takes k:l" in err and repr(layers) in err
    assert main(["exact", "--n", "4", "--h", "1", "--const", "0", "--layers", "2:3"]) == 0


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "s"
    code = main(["spectrum", "--n", "6", "--h", "2", "--vertex",
                 "uniform(-0.5,0)", "--edge", "uniform(0,1.2)", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert len(data["lambdas"]) == 6
    assert data["localization_ok"] is True


def test_sample_command_writes_heights(tmp_path, capsys):
    out = tmp_path / "m"
    code = main(["sample", "--n", "5", "--h", "2", "--vertex", "normal(0,1)",
                 "--edge", "normal(0,1)", "--seed", "9", "--count", "12",
                 "--centering", "0.5", "--out", str(out)])
    assert code == 0
    lines = (out / "heights.csv").read_text().strip().split("\n")
    assert lines[0] == "draw,t,theta,theta_hat"
    matchings = json.loads((out / "matchings.json").read_text())
    assert len(matchings["draws"]) == 12
    # the table equals the heights of each draw's own per-layer counts, digit for digit
    g = build_cylinder(5, HGraph.path(2))
    t = np.linspace(0.0, 1.0, 17)
    expect = []
    for d, draw in enumerate(matchings["draws"]):
        theta, theta_hat = heights(layer_counts(g, Matching(frozenset(draw)))[None], t, 0.5)
        expect += [f"{d},{tk!r},{int(th)},{float(th_hat)!r}"
                   for tk, th, th_hat in zip(t.tolist(), theta[0], theta_hat[0])]
    assert lines[1:] == expect


@pytest.mark.parametrize("cmd,flag,value", [
    ("exact", "--x", "nan"), ("exact", "--x", "inf"), ("exact --scalar", "--x", "-inf"),
    ("sample", "--x", "nan"), ("sample", "--centering", "nan"), ("sample", "--centering", "inf"),
], ids=["exact-nan", "exact-inf", "exact-scalar-neg-inf", "sample-nan", "sample-centering-nan",
        "sample-centering-inf"])
def test_non_finite_tilt_or_centering_is_usage_error(tmp_path, capsys, cmd, flag, value):
    out = tmp_path / "run"
    code = main(cmd.split() + [f"{flag}={value}", "--n", "4", "--h", "2", "--vertex", "normal(0,1)",
                               "--out", str(out)])
    assert code == 2
    assert f"{flag} must be finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exact", "--x", "-1e-3"], ["exact", "--scalar", "--x", "-2.5E+0"], ["exact", "--const", "-1e-1"],
    ["sample", "--count", "2", "--centering", "-1e-2"],
], ids=["x", "x-scalar", "const", "centering"])
def test_negative_numbers_in_exponent_notation_are_values(capsys, argv):
    assert main(argv + ["--n", "4", "--h", "1"]) == 0
    value = float(argv[-1])
    out = capsys.readouterr().out
    if argv[-2] == "--x":
        assert f"log Z({value:g})" in out


def test_negative_tolerance_in_exponent_notation_is_read_and_refused(capsys):
    assert main(["jacobi", "--n", "8", "--h", "1", "--const", "0", "--tol", "-1e-9"]) == 2
    assert "--tol must be >= 0, got -1e-09" in capsys.readouterr().err


def test_ground_refuses_non_finite_betas(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["ground", "--n", "4", "--h", "2", "--vertex", "normal(0,1)", "--betas", "1,nan",
                 "--out", str(out)]) == 2
    assert "beta values must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["exact", "--scalar"], ["ground"]], ids=["exact-scalar", "ground"])
def test_an_empty_gibbs_measure_is_refused_before_any_file(tmp_path, capsys, argv):
    # every weight -inf: no matching has finite weight, so there is no Gibbs
    # measure to give log Z or a maximum of, as exact without --scalar says
    out = tmp_path / "d"
    assert main([*argv, "--n", "3", "--const=-inf", "--out", str(out)]) == 2
    assert "all coefficients vanish; empty Gibbs measure" in capsys.readouterr().err
    assert not out.exists()


def test_plot_of_an_empty_csv_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    svg = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(empty), "--svg", str(svg)]) == 2
    assert f"csv file is empty: {empty}" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("kind", ["series", "hist", "heights"])
def test_plot_of_a_csv_without_rows_is_usage_error(tmp_path, capsys, kind):
    header_only = tmp_path / "heights.csv"
    header_only.write_text("draw,t,theta\n")
    svg = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(header_only), "--svg", str(svg), "--kind", kind,
                 "--x", "t", "--y", "theta"]) == 2
    assert f"csv file has a header and no rows: {header_only}" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("kind", ["series", "hist", "heights"])
def test_plot_of_a_column_without_finite_values_is_usage_error(tmp_path, capsys, kind):
    # theta_hat is blank in a sample run without --centering
    heights = tmp_path / "heights.csv"
    heights.write_text("draw,t,theta,theta_hat\n0,0.0,0,\n0,1.0,2,\n1,0.0,0,\n1,1.0,0,\n")
    svg = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(heights), "--svg", str(svg), "--kind", kind,
                 "--x", "t", "--y", "theta_hat"]) == 2
    assert f"column 'theta_hat' of {heights} has no finite value" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("kind,flag", [("hist", "--bins"), ("heights", "--max-paths")])
def test_plot_refuses_a_chart_of_no_bins_or_paths(tmp_path, capsys, kind, flag):
    heights = tmp_path / "heights.csv"
    heights.write_text("draw,t,theta\n0,0.0,0\n0,1.0,2\n")
    svg = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(heights), "--svg", str(svg), "--kind", kind,
                 "--y", "theta", flag, "0"]) == 2
    assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("t_points", ["1", "0", "-1"])
def test_sample_refuses_a_height_grid_of_fewer_than_two_points(tmp_path, capsys, t_points):
    out = tmp_path / "s"
    assert main(["sample", "--n", "4", "--h", "2", "--const", "0", "--t-points", t_points,
                 "--out", str(out)]) == 2
    assert f"--t-points must be >= 2, got {t_points}: the height grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_refuses_nonpositive_count(capsys, count):
    code = main(["sample", "--n", "4", "--h", "2", "--const", "0", "--count", count])
    assert code == 2
    assert f"--count must be >= 1, got {count}" in capsys.readouterr().err


def test_ground_command(tmp_path, capsys):
    out = tmp_path / "g"
    code = main(["ground", "--n", "6", "--h", "1", "--vertex", "normal(0,1)",
                 "--edge", "normal(0,1)", "--seed", "4", "--betas", "1,4,16",
                 "--out", str(out)])
    assert code == 0
    data = json.loads((out / "ground.json").read_text())
    assert data["monomer_count"] == 6 - 2 * len(data["edges"])
    rows = (out / "remainders.csv").read_text().strip().split("\n")
    assert rows[0] == "k,remainder,bound"
    assert len(rows) == 6  # header + one row per interior cut


def test_ground_bounds_the_infinite_remainders_of_minus_inf_vertices(tmp_path, capsys):
    # every vertex must be covered: sections of odd length have no finite
    # matching, so their cuts have remainder +inf, and the bound is +inf too
    out = tmp_path / "g"
    code = main(["ground", "--n", "4", "--h", "1", "--vertex", "constant(-inf)",
                 "--edge", "constant(0)", "--out", str(out)])
    assert code == 0
    with open(out / "remainders.csv") as fh:
        rows = [(float(r["remainder"]), float(r["bound"])) for r in csv.DictReader(fh)]
    assert [r for r, _ in rows] == [np.inf, 0.0, np.inf]
    assert all(r <= b for r, b in rows)


def test_ground_one_layer_has_no_cuts(tmp_path, capsys):
    out = tmp_path / "g1"
    code = main(["ground", "--n", "1", "--h", "2", "--vertex", "normal(0,1)",
                 "--edge", "normal(0,1)", "--seed", "4", "--out", str(out)])
    assert code == 0
    assert "no cuts" in capsys.readouterr().out
    assert (out / "remainders.csv").read_text().strip() == "k,remainder,bound"
    assert json.loads((out / "ground.json").read_text())["max_remainder"] is None


def test_ground_builds_a_fixed_number_of_tables(monkeypatch, tmp_path, capsys):
    # the cut table comes from one forward and one flipped sweep, so the
    # work per ground run must not grow with the number of cuts
    calls = count_calls(monkeypatch, transfer, ["batch_tables"])
    mw = count_calls(monkeypatch, groundstate, ["max_weight"])
    counts = []
    for n in (16, 64):
        calls["batch_tables"] = mw["max_weight"] = 0
        assert main(["ground", "--n", str(n), "--h", "2", "--vertex", "normal(0,1)",
                     "--edge", "normal(0,1)", "--betas", "1,4", "--out", str(tmp_path / str(n))]) == 0
        counts.append((calls["batch_tables"], mw["max_weight"]))
    assert counts[0] == counts[1]
    assert counts[0][1] <= 2


def test_ground_refuses_fiber_past_transfer_cap(capsys):
    assert main(["ground", "--n", "2", "--h", "13", "--const", "0"]) == 2
    assert "h <= 12" in capsys.readouterr().err


def test_jacobi_command_checks_identities(tmp_path, capsys):
    out = tmp_path / "j"
    code = main(["jacobi", "--n", "48", "--h", "1", "--vertex", "normal(0,1)",
                 "--edge", "normal(0,1)", "--seed", "6", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "jacobi.json").read_text())
    assert data["det_residual"] <= 1e-9
    assert main(["jacobi", "--n", "4", "--h", "2", "--const", "0"]) == 2


def test_jacobi_reports_the_skipped_resolvent_check_as_null(tmp_path, capsys):
    # the resolvent check runs up to n = 64; above, the report and the
    # printout say it was skipped instead of showing a zero residual
    argv = ["jacobi", "--h", "1", "--vertex", "normal(0,1)", "--edge", "normal(0,1)", "--seed", "6"]
    assert main([*argv, "--n", "65", "--out", str(tmp_path / "j65")]) == 0
    assert "resolvent residual    = skipped, n > 64\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "j65" / "jacobi.json").read_text())["resolvent_residual"] is None
    assert main([*argv, "--n", "64", "--out", str(tmp_path / "j64")]) == 0
    data = json.loads((tmp_path / "j64" / "jacobi.json").read_text())
    assert 0.0 <= data["resolvent_residual"] <= 100 * data["tol"]


@pytest.mark.parametrize("tol", ["nan", "-1e-9"])
def test_jacobi_refuses_a_tolerance_no_residual_can_pass(capsys, tol):
    assert main(["jacobi", "--n", "8", "--h", "1", "--const", "0", f"--tol={tol}"]) == 2
    assert f"--tol must be >= 0, got {float(tol)}" in capsys.readouterr().err


def test_plot_commands(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[graph]\nfiber = single\n"
        "[disorder]\nvertex = normal(0,1)\nedge = normal(0,1)\n"
        "[ladder]\nn = 8, 16\nreplicas = 6\nseed = 1\nmode = scalar\n"
    )
    out = tmp_path / "e"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    svg = tmp_path / "x.svg"
    assert main(["plot", "--csv", str(out / "replicas.csv"), "--svg", str(svg),
                 "--kind", "hist", "--y", "log_z"]) == 0
    assert svg.read_text().startswith("<svg")
    assert main(["plot", "--csv", str(out / "replicas.csv"), "--svg", str(svg),
                 "--kind", "series", "--x", "n", "--y", "log_z"]) == 0
    # a blank cell (a refused spectrum) leaves its row out of the series
    # instead of turning every coordinate into nan
    partial = tmp_path / "partial.csv"
    partial.write_text("n,u_n\n8,0.5\n16,\n32,0.25\n")
    assert main(["plot", "--csv", str(partial), "--svg", str(svg), "--x", "n", "--y", "u_n"]) == 0
    assert "nan" not in svg.read_text()


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out
    assert main(["--help"]) == 0
    for cmd in ("exact", "spectrum", "sample", "ground", "jacobi",
                "experiment", "plot"):
        assert main([cmd, "--help"]) == 0
        assert capsys.readouterr().out


@pytest.mark.parametrize("centering", [None, "0.3"])
def test_heights_csv_has_the_bytes_of_a_per_cell_writer(tmp_path, capsys, centering):
    out = tmp_path / "h"
    argv = ["sample", "--n", "6", "--fiber", "path(2)", "--vertex", "normal(0,1)",
            "--edge", "normal(0,1)", "--seed", "5", "--count", "9", "--out", str(out)]
    assert main(argv + ([] if centering is None else ["--centering", centering])) == 0
    g = build_cylinder(6, HGraph.path(2))
    draws = json.loads((out / "matchings.json").read_text())["draws"]
    profiles = np.array([layer_counts(g, Matching(frozenset(d))) for d in draws])
    t_grid = np.linspace(0.0, 1.0, 17)
    theta, theta_hat = heights(profiles, t_grid, None if centering is None else float(centering))
    expect = io.StringIO()
    writer = csv.writer(expect)
    writer.writerow(["draw", "t", "theta", "theta_hat"])
    for d in range(len(draws)):
        for j in range(t_grid.size):
            th = "" if theta_hat is None else repr(float(theta_hat[d, j]))
            writer.writerow([d, repr(float(t_grid[j])), int(theta[d, j]), th])
    assert (out / "heights.csv").read_bytes() == expect.getvalue().encode()


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    cli.build_parser.cache_clear()
    instance = ["--n", "4", "--h", "1", "--const", "0", "--scalar"]
    assert main(["exact", "--x", "0.5", *instance]) == 0
    assert "log Z(0.5) =" in capsys.readouterr().out
    assert main(["exact", *instance, "--out", str(tmp_path / "x0")]) == 0
    assert "log Z(0) =" in capsys.readouterr().out
    assert json.loads((tmp_path / "x0" / "exact.json").read_text())["x"] == 0.0
    assert main(["exact", *instance, "--frob", "1"]) == 2
    assert "unrecognized" in capsys.readouterr().err
    assert main(["exact", *instance]) == 0
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "usage: dimerlab" in capsys.readouterr().out
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_sample_and_exact_files_are_the_bytes_of_json_dumps(tmp_path, monkeypatch):
    written = []

    def recording(obj, path):
        written.append((obj, path))
        experiments.write_json(obj, path)

    monkeypatch.setattr(cli, "write_json", recording)
    common = ["--n", "6", "--fiber", "path(2)", "--vertex", "normal(0,1)", "--edge", "normal(0,1)"]
    assert main(["sample", *common, "--count", "7", "--out", str(tmp_path / "s")]) == 0
    assert main(["exact", *common, "--x", "0.25", "--out", str(tmp_path / "e")]) == 0
    paths = {path for _, path in written}
    assert {str(tmp_path / "s" / "matchings.json"), str(tmp_path / "e" / "exact.json")} <= paths
    for obj, path in written:
        with open(path) as fh:
            assert fh.read() == json.dumps(experiments.jsonify(obj), indent=2, sort_keys=True) + "\n"

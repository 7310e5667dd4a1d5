"""Command-line surface: reproducible runs with manifests.

Every subcommand that writes files puts them under --out together with a
manifest recording the resolved inputs, a config hash, and library
versions; rerunning with the same seed reproduces every output byte for
byte (only the manifest timestamp differs).

Exit codes: 0 success, 1 a requested check failed, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .graphs import (
    DOMAIN_GIBBS,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    dump_weights,
    rng_generator,
    sample_weights,
)
from .experiments import (
    CHECKS,
    ExperimentConfig,
    check_runnable,
    make_fiber,
    parse_config,
    run_checks,
    run_replicas,
    write_config,
)
from .groundstate import (
    ground_zero_temperature_limit,
    gse_remainder,
    gse_remainder_bound,
    max_weight,
)
from .jacobi import JacobiMatrix, det_abs, omega_spectrum, resolvent_U
from .leeyang import EXTRACTION_MAX_N, SpectrumError, check_extractable, localization_check, spectrum
from .output import Cells, IntRows, jsonify, write_csv, write_json
from .sampler import GibbsSampler, heights
from .transfer import (
    CountingMask,
    check_nonempty,
    draws_per_block,
    instance_tables,
    partition_polynomial,
    replicas_per_batch,
    scalar_log_z,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reads a token after a flag as the flag's value only if it
    cannot be an option; a negative number is not one, and this parser
    counts exponent notation (``--x -1e-3``) as a number too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of layers")
    p.add_argument("--fiber", type=str, default=None,
                   help="fiber graph: single, path(k), cycle(k), complete(k)")
    p.add_argument("--h", type=int, default=None,
                   help="shorthand: fiber size (1 = single, k = path(k))")
    p.add_argument("--const", type=float, default=None,
                   help="constant weights: all vertex and edge weights equal this")
    p.add_argument("--vertex", type=str, default=None, help="vertex weight law, e.g. normal(0,1)")
    p.add_argument("--edge", type=str, default=None, help="edge weight law")
    p.add_argument("--seed", type=int, default=0, help="disorder seed")
    p.add_argument("--stream", type=int, default=0, help="disorder replica stream")


def _resolve_fiber(args) -> HGraph:
    if args.fiber is not None and args.h is not None:
        raise UsageError("give either --fiber or --h, not both")
    if args.fiber is not None:
        return make_fiber(args.fiber)
    if args.h is not None:
        if args.h < 1:
            raise UsageError("--h must be >= 1")
        return HGraph.single() if args.h == 1 else HGraph.path(args.h)
    return HGraph.single()


def _resolve_weights(args):
    g = build_cylinder(args.n, _resolve_fiber(args))
    if args.const is not None:
        if args.vertex or args.edge:
            raise UsageError("--const conflicts with --vertex/--edge")
        return g, WeightAssignment.constant(g, args.const, args.const)
    vertex = Law.parse(args.vertex) if args.vertex else Law.constant(0.0)
    edge = Law.parse(args.edge) if args.edge else Law.constant(0.0)
    spec = DisorderSpec(vertex, edge)
    return g, sample_weights(g, spec, RngSeed(args.seed, stream=args.stream))


def _require_finite(args, *names) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and not np.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")


def _resolved_args_dict(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _write_manifest(out_dir: str, args, outputs: list, **extra) -> None:
    arguments = jsonify(_resolved_args_dict(args))
    blob = json.dumps(arguments, sort_keys=True).encode()
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "outputs": sorted(outputs),
        "versions": {
            "dimerlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **extra,
    }
    write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _ensure_out(args) -> str | None:
    if getattr(args, "out", None) is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_exact(args) -> int:
    _require_finite(args, "x")
    g, w = _resolve_weights(args)
    mask = None
    if args.layers is not None:
        try:
            lo, hi = map(int, args.layers.split(":"))
        except ValueError:
            raise UsageError(f"--layers takes k:l, the first and last counted layer"
                             f" (1-based), got {args.layers!r}") from None
        mask = CountingMask.layer_range(lo, hi)
    if args.scalar:
        lz = scalar_log_z(g, w, args.x, mask)
        print(f"log Z({args.x:g}) = {lz:.12f}")
        payload = {"log_z": lz, "x": args.x, "n": g.n, "h": g.h}
    else:
        p = partition_polynomial(g, w, mask)
        lz = float(check_nonempty(np.asarray(p.log_z(args.x))))
        mean, var = p.cumulants(args.x, 2)
        print(f"log Z({args.x:g}) = {lz:.12f}")
        print(f"<U> = {mean:.12f}   Var U = {var:.12f}")
        payload = {
            "log_z": lz,
            "x": args.x,
            "n": g.n,
            "h": g.h,
            "mean_U": mean,
            "var_U": var,
            "polynomial": p.to_payload(),
        }
    out = _ensure_out(args)
    if out:
        write_json(payload, os.path.join(out, "exact.json"))
        dump_weights(os.path.join(out, "weights.json"), g, w)
        _write_manifest(out, args, ["exact.json", "weights.json"])
    return 0


def _cmd_spectrum(args) -> int:
    check_extractable(args.n * _resolve_fiber(args).h)   # before any weight is drawn
    g, w = _resolve_weights(args)
    sp = spectrum(partition_polynomial(g, w).monic())
    bound, ok = localization_check(g, w, sp)
    print(f"N = {sp.N}, zero multiplicity = {sp.zero_mult}, atoms = {len(sp.lambdas)} pairs")
    print(f"max |lambda| = {sp.max_abs():.12f}")
    print(f"localization bound = {bound:.12f} -> {'ok' if ok else 'VIOLATED'}")
    out = _ensure_out(args)
    if out:
        payload = {
            "N": sp.N,
            "zero_mult": sp.zero_mult,
            "lambdas": list(map(float, sp.lambdas)),
            "localization_bound": bound,
            "localization_ok": bool(ok),
        }
        write_json(payload, os.path.join(out, "spectrum.json"))
        _write_manifest(out, args, ["spectrum.json"])
    return 0 if ok else 1


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}: "
                         "the summary and the height table need at least one draw")
    if args.t_points < 2:
        raise UsageError(f"--t-points must be >= 2, got {args.t_points}: "
                         "the height grid runs from t = 0 to t = 1")
    _require_finite(args, "x", "centering")
    g, w = _resolve_weights(args)
    # the draws run in blocks that the batch budget holds; the uniforms are
    # consumed draw-major, so the blocks draw what one block would
    block = draws_per_block(g.H, g.n, 0, args.count)
    sampler = GibbsSampler(instance_tables(g, w), x=args.x)
    gen = rng_generator(RngSeed(args.seed, stream=args.stream), DOMAIN_GIBBS)
    moves = np.concatenate([sampler.draw_states([gen], min(block, args.count - lo))[0]
                            for lo in range(0, args.count, block)])
    t_grid = np.linspace(0.0, 1.0, args.t_points)
    profiles = sampler.monomer_profiles(moves)
    print(f"drew {args.count} matchings from the Gibbs law (x={args.x:g})")
    counts = profiles.sum(axis=1)
    print(f"unpaired count: mean {np.mean(counts):.4f}, min {counts.min()}, max {counts.max()}")
    out = _ensure_out(args)
    if out:
        # each draw's sorted edges from one array, written without a list per draw
        draws = IntRows(sampler.matchings_from_states(moves))
        write_json({"n": g.n, "h": g.h, "x": args.x, "count": args.count, "draws": draws},
                   os.path.join(out, "matchings.json"))
        theta, theta_hat = heights(profiles, t_grid, args.centering)
        write_csv(os.path.join(out, "heights.csv"), {   # draw and t: their distinct cells
            "draw": Cells(np.arange(args.count), np.repeat(np.arange(args.count), t_grid.size)),
            "t": Cells(t_grid, np.tile(np.arange(t_grid.size), args.count)),
            "theta": theta.astype(np.int64).ravel(),
            "theta_hat": np.full(theta.size, np.nan) if theta_hat is None else theta_hat.ravel(),
        })
        _write_manifest(out, args, ["matchings.json", "heights.csv"])
    return 0


def _betas(text: str | None) -> list[float]:
    """The inverse temperatures of ``--betas``, a comma list of finite
    positive numbers; an entry that is not one is refused, by name."""
    betas = []
    for entry in [] if text is None else text.split(","):
        try:
            beta = float(entry)
        except ValueError:
            raise UsageError(f"--betas entries must be numbers, got {entry!r} in {text!r}") from None
        if not math.isfinite(beta):
            raise UsageError(f"--betas: beta values must be finite, got {entry.strip()} in {text!r}")
        if beta <= 0:
            raise UsageError(f"--betas: beta values must be positive, got {entry.strip()} in {text!r}")
        betas.append(beta)
    return betas


def _cmd_ground(args) -> int:
    betas = _betas(args.betas)
    g, w = _resolve_weights(args)
    replicas_per_batch(g.H, g.n, 0, 1)   # the backward step's messages fit the budget
    gs = max_weight(g, w)
    print(f"M = {gs.value:.12f} with {len(gs.matching.edge_indices)} dimers, "
          f"{gs.matching.num_unpaired(g)} monomers")
    remainders = {"k": np.arange(1, g.n), "remainder": gse_remainder(g, w),
                  "bound": gse_remainder_bound(g, w)}
    worst = float(remainders["remainder"].max()) if g.n > 1 else None
    if worst is None:
        print("no cuts: a one-layer cylinder has no remainders")
    else:
        print(f"max remainder over cuts = {worst:.6f}")
    ladder = None
    if betas:
        lad = ground_zero_temperature_limit(g, w, betas, gs.value)
        for b, v, gap in zip(lad.betas, lad.free_energies, lad.gaps):
            print(f"beta={b:g}: free energy {v:.8f} (gap {gap:.2e})")
        ladder = {
            "betas": list(lad.betas),
            "free_energies": list(lad.free_energies),
            "gaps": list(lad.gaps),
        }
    out = _ensure_out(args)
    if out:
        write_json(
            {
                "value": gs.value,
                "edges": sorted(gs.matching.edge_indices),
                "monomer_count": gs.matching.num_unpaired(g),
                "max_remainder": worst,
                "zero_temperature": ladder,
            },
            os.path.join(out, "ground.json"),
        )
        write_csv(os.path.join(out, "remainders.csv"), remainders)
        _write_manifest(out, args, ["ground.json", "remainders.csv"])
    return 0


def _cmd_jacobi(args) -> int:
    if not args.tol >= 0.0:
        raise UsageError(f"--tol must be >= 0, got {args.tol}: no residual can pass it")
    g, w = _resolve_weights(args)
    if g.h != 1:
        raise UsageError("jacobi checks need a single-vertex fiber (--h 1)")
    A = JacobiMatrix.from_weights(g, w)
    log_det = det_abs(A)
    log_z = scalar_log_z(g, w)
    det_residual = abs(log_det - log_z)
    res_residual = None   # null above n = 64, where the check is skipped
    if g.n <= 64:
        p = partition_polynomial(g, w)
        res_residual = max(abs(resolvent_U(A, x) - p.cumulants(x, 1)[0]) for x in (-1.0, 0.0, 1.0))
    gauge_residual = abs(det_abs(A.gauged()) - (log_det - w.nu.sum()))
    report = {
        "n": g.n,
        "log_det": log_det,
        "log_z": log_z,
        "det_residual": det_residual,
        "gauge_residual": gauge_residual,
        "resolvent_residual": res_residual,
        "eigenvalues": list(map(float, omega_spectrum(A))) if g.n <= 64 else None,
        "tol": args.tol,
    }
    ok = (det_residual <= args.tol and gauge_residual <= args.tol
          and (res_residual is None or res_residual <= 100 * args.tol))
    print(f"|log|det A| - log Z| = {det_residual:.2e}")
    print(f"matrix gauge residual = {gauge_residual:.2e}")
    print("resolvent residual    = " + ("skipped, n > 64" if res_residual is None
                                        else f"{res_residual:.2e}"))
    print("ok" if ok else "FAILED")
    out = _ensure_out(args)
    if out:
        write_json(report, os.path.join(out, "jacobi.json"))
        _write_manifest(out, args, ["jacobi.json"])
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg = ExperimentConfig(**{**vars(cfg), "seed": args.seed})
    enabled = [c.strip() for c in args.checks.split(",") if c.strip()] if args.checks else []
    check_runnable(cfg, enabled)
    table = run_replicas(cfg)
    report, failed = run_checks(cfg, table, enabled)
    est = report["estimates"]
    print(f"{len(table)} replica rows over ladder {cfg.n_ladder}")
    print(f"f_hat = {est.f_hat:.6f}, u_hat = {est.u_hat:.6f}, m_hat = {est.m_hat:.6f}")
    print(f"sigma2: F={est.sigma2_F:.4g} Q={est.sigma2_Q:.4g} A={est.sigma2_A:.4g} M={est.sigma2_M:.4g}")
    h = cfg.fiber_graph().h
    refused = [f"{c} of {cfg.replicas} at n={n}"
               + (f" (N={n * h} > extraction limit {EXTRACTION_MAX_N})"
                  if n * h > EXTRACTION_MAX_N else "")
               for n, c in report.get("refused_spectra", {}).items() if c]
    if refused:
        print("refused spectra: " + ", ".join(refused))
    for name in failed:
        print(f"check failed: {name}")
    out_dir = cfg.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        table.to_csv(os.path.join(out_dir, "replicas.csv"))
        write_json(est, os.path.join(out_dir, "summary.json"))
        write_json(report, os.path.join(out_dir, "report.json"))
        with open(os.path.join(out_dir, "resolved.cfg"), "w") as fh:
            fh.write(write_config(cfg))
        # the processes of the campaign, and why it ran in one: not an output
        workers = {k: v for k, v in table.workers._asdict().items() if v is not None}
        _write_manifest(out_dir, args, ["replicas.csv", "summary.json", "report.json", "resolved.cfg"],
                        workers=workers)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# plotting (plain SVG, no dependencies)
# ---------------------------------------------------------------------------

def _svg_polyline(points, color, width=1.5):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'


def _svg_chart(series, title, width=640, height=400):
    """series: list of (label, xs, ys). Returns an SVG document string."""
    pad = 50
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+20}" font-size="11">{x0:.4g}</text>',
        f'<text x="{width-pad}" y="{height-pad+20}" text-anchor="end" font-size="11">{x1:.4g}</text>',
        f'<text x="{pad-5}" y="{height-pad}" text-anchor="end" font-size="11">{y0:.4g}</text>',
        f'<text x="{pad-5}" y="{pad+4}" text-anchor="end" font-size="11">{y1:.4g}</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = colors[i % len(colors)]
        pts = [(sx(float(x)), sy(float(y))) for x, y in zip(xs, ys)]
        parts.append(_svg_polyline(pts, color))
        if label:
            parts.append(
                f'<text x="{width-pad-5}" y="{pad+14*(i+1)}" text-anchor="end" '
                f'font-size="11" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def _read_csv_columns(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise UsageError(f"csv file is empty: {path}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise UsageError(f"{path} line {reader.line_num} has {len(row)} cells,"
                                 f" its header {len(header)}")
            rows.append(row)
    if not rows:
        raise UsageError(f"csv file has a header and no rows: {path}")
    cols = {}
    for j, name in enumerate(header):
        vals = []
        for row in rows:
            try:
                vals.append(float(row[j]) if row[j] != "" else np.nan)
            except ValueError:
                vals.append(np.nan)
        cols[name] = np.array(vals)
    return cols


def _finite(cols, name, path) -> np.ndarray:
    """Which rows of column ``name`` are finite; a column of none draws nothing."""
    keep = np.isfinite(cols[name])
    if not keep.any():
        raise UsageError(f"column {name!r} of {path} has no finite value")
    return keep


def _cmd_plot(args) -> int:
    if not os.path.exists(args.csv):
        raise UsageError(f"csv file not found: {args.csv}")
    for flag, value in (("--bins", args.bins), ("--max-paths", args.max_paths)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    cols = _read_csv_columns(args.csv)
    if args.kind == "series":
        if args.x not in cols or args.y not in cols:
            raise UsageError(f"columns {args.x!r}/{args.y!r} not in {list(cols)}")
        keep = _finite(cols, args.x, args.csv) & _finite(cols, args.y, args.csv)
        xs, ys = cols[args.x][keep], cols[args.y][keep]
        order = np.argsort(xs)
        svg = _svg_chart([(args.y, xs[order], ys[order])], f"{args.y} vs {args.x}")
    elif args.kind == "hist":
        if args.y not in cols:
            raise UsageError(f"column {args.y!r} not in {list(cols)}")
        vals = cols[args.y][_finite(cols, args.y, args.csv)]
        freq, edges = np.histogram(vals, bins=args.bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        svg = _svg_chart([(f"{args.y} histogram", centers, freq)], f"{args.y} histogram")
    else:  # heights
        need = {"draw", "t", "theta"}
        if not need.issubset(cols):
            raise UsageError(f"heights plot needs columns {sorted(need)}")
        series = []
        key = "theta_hat" if (args.y == "theta_hat" and "theta_hat" in cols) else "theta"
        _finite(cols, key, args.csv)
        for d in np.unique(cols["draw"])[: args.max_paths]:
            sel = cols["draw"] == d
            series.append(("", cols["t"][sel], cols[key][sel]))
        svg = _svg_chart(series, f"height paths ({key})")
    with open(args.svg, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dimerlab`` parser, built once per process: it takes no input,
    and ``parse_args`` keeps no state on it between calls."""
    parser = _Parser(
        prog="dimerlab",
        description="Monomer-dimer systems on cylinder graphs: exact partition "
                    "polynomials, Lee-Yang spectra, perfect sampling, ground "
                    "states, and disorder-replica experiments.",
    )
    parser.add_argument("--version", action="version", version=f"dimerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="partition polynomial / log Z of one instance")
    _add_instance_flags(p)
    p.add_argument("--x", type=float, default=0.0, help="monomer tilt")
    p.add_argument("--layers", type=str, default=None, help="count only layers k:l")
    p.add_argument("--scalar", action="store_true", help="skip coefficients, tilt only")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("spectrum", help="Lee-Yang spectrum of one instance")
    _add_instance_flags(p)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sample", help="draw exact Gibbs samples")
    _add_instance_flags(p)
    p.add_argument("--count", type=int, default=100, help="number of draws")
    p.add_argument("--x", type=float, default=0.0, help="monomer tilt")
    p.add_argument("--t-points", type=int, default=17, help="height grid resolution")
    p.add_argument("--centering", type=float, default=None,
                   help="monomer density for centered heights")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("ground", help="maximum-weight matching and remainders")
    _add_instance_flags(p)
    p.add_argument("--betas", type=str, default=None,
                   help="comma list of inverse temperatures for the cooling table")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("jacobi", help="tridiagonal identities for h=1")
    _add_instance_flags(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("experiment", help="replica campaign from a config file")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="override output directory")
    p.add_argument("--seed", type=int, default=None, help="override campaign seed")
    p.add_argument("--checks", type=str, default=None,
                   help=f"comma list of checks that gate the exit code ({', '.join(CHECKS)})")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("plot", help="simple SVG charts from campaign CSVs")
    p.add_argument("--csv", type=str, required=True)
    p.add_argument("--svg", type=str, required=True)
    p.add_argument("--kind", choices=("series", "hist", "heights"), default="series")
    p.add_argument("--x", type=str, default="n")
    p.add_argument("--y", type=str, default="log_z")
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--max-paths", type=int, default=20)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, SpectrumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

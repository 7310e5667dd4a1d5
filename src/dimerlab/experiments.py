"""Disorder-replica campaigns and statistical checks of the limit laws.

A campaign sweeps a ladder of cylinder lengths, draws many independent
weight environments per length, and records per-replica observables
(log-partition value, Gibbs mean/variance of the unpaired count, section
statistics, ground-state value).  Downstream checks turn the tables into
law-of-large-numbers, CLT, and Brownian-increment diagnostics.  Their
normality statistics (biased skewness, Fisher excess kurtosis, the
two-sided Kolmogorov-Smirnov distance to N(0, 1) and Phi itself) come from
their definitions, in numpy and ``math.erfc``.

Replica streams are domain-separated Philox generators, so every table and
report is reproducible bit-for-bit from (seed, stream), whatever its
batches and processes.  Every disorder loop (the campaign, the functionals
and the Brownian check) runs under one map, ``_map_batches``, which splits
its batches across processes by one rule (``campaign_workers``).

The front end is two tables: ``CONFIG_KEYS`` (every config key, the
attribute it sets, how it is parsed and written), which ``parse_config``
and ``write_config`` loop over, and ``CHECKS`` (every check, its
precondition, whether it runs unnamed, how it runs and decides), which
``check_runnable`` reads before the campaign and ``run_checks`` after it.
"""
from __future__ import annotations

import configparser
import io
import math
import os
import pickle
import re
import signal
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .graphs import (
    DOMAIN_GIBBS,
    DOMAIN_WEIGHTS,
    CylinderGraph,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    _check_weight_array,
    build_cylinder,
    rng_generator,
    stream_keys,
)
from .groundstate import max_values
from .leeyang import EXTRACTION_MAX_N, SpectrumError, density_functionals, spectrum
from .output import write_csv
from .sampler import GibbsSampler
from .transfer import (
    NEG_INF,
    EmptyMeasureError,
    MonomerPolynomial,
    batch_tables,
    check_polynomial_caps,
    check_transfer_cap,
    cut_moments,
    draws_per_block,
    increment_laws,
    replicas_per_batch,
)


def make_fiber(text: str) -> HGraph:
    """Parse a fiber description: single, path(k), cycle(k), or complete(k)."""
    text = text.strip().lower()
    if text in ("single", "point", "path(1)"):
        return HGraph.single()
    m = re.fullmatch(r"(path|cycle|complete)\((\d+)\)", text)
    if m is None:
        raise ValueError(f"cannot parse fiber spec {text!r}")
    make = {"path": HGraph.path, "cycle": HGraph.cycle, "complete": HGraph.complete}[m.group(1)]
    return make(int(m.group(2)))


@dataclass
class Thresholds:
    skew_tol: float = 0.15
    kurt_tol: float = 0.3
    ks_const: float = 1.565          # 4-sigma envelope constant, scaled by 1/sqrt(m)
    drift_tol: float = 0.01          # relative drift of mean/n between top two n
    increment_var_tol: float = 0.15
    increment_corr_tol: float = 0.10


@dataclass
class ExperimentConfig:
    fiber: str = "path(2)"
    n_ladder: tuple = (64, 128, 256, 512)
    replicas: int = 1000
    disorder: DisorderSpec = field(
        default_factory=lambda: DisorderSpec(Law.normal(0, 1), Law.normal(0, 1))
    )
    seed: int = 0
    x_grid: tuple = (0.0,)
    t_grid: tuple = tuple(i / 16 for i in range(17))
    cut_fraction: float = 0.5
    with_ground: bool = True
    with_spectrum: bool = False
    gibbs_samples: int = 0           # per environment, for height campaigns
    height_envs: int = 0
    out_dir: str | None = None
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.n_ladder:
            raise ValueError("empty n ladder")
        if any(n < 2 for n in self.n_ladder):
            raise ValueError("ladder lengths must be >= 2")
        if len(set(self.n_ladder)) < len(self.n_ladder):
            raise ValueError(f"ladder {','.join(map(str, self.n_ladder))} repeats a length")
        if not 0 < self.cut_fraction < 1:
            raise ValueError("cut_fraction must be in (0, 1)")
        if not self.x_grid:
            raise ValueError("empty x_grid: the functionals check compares the zeros"
                             " with the exact cumulants at each tilt in it")
        for key in ("x_grid", "t_grid"):
            grid = getattr(self, key)
            if not all(map(math.isfinite, grid)):
                raise ValueError(f"{key} entries must be finite, got {','.join(map(str, grid))}")
        # capacity refusals follow from the config alone, so none waits for a draw
        H = make_fiber(self.fiber)
        check_transfer_cap(H.h)
        for n in self.n_ladder:   # the rungs that build polynomials, the functional check's among them
            if self.degree_layers(n):
                check_polynomial_caps(n, H.h)
        top = max(self.n_ladder)
        replicas_per_batch(H, top, self.degree_layers(top))

    def fiber_graph(self) -> HGraph:
        return make_fiber(self.fiber)

    def degree_layers(self, n: int) -> int:
        """The layers of the degree recursion of rung n: all n with spectra
        up to the ``_zero_extraction_rung``, whose zeros are extracted; else none."""
        return n if self.with_spectrum and n <= (_zero_extraction_rung(self) or 0) else 0


class ConfigKey(NamedTuple):
    attr: str | None        # ExperimentConfig attribute, "part.field" inside a part; None: retired
    parse: Callable         # text -> value; raises a ValueError saying what the text must be
    fmt: Callable | None = None   # value -> text, for write_config


def _cast(kind: str, read: Callable, ok: Callable = lambda value: True) -> Callable:
    def parse(text: str):
        try:
            value = read(text)
            if ok(value):
                return value
        except (ValueError, KeyError):
            pass
        raise ValueError(f"must be {kind}, got {text!r}")
    return parse


def _law(text: str) -> Law:
    try:
        return Law.parse(text)
    except ValueError as exc:
        raise ValueError(f"must be a weight law: {exc}") from None


def _retired_mode(text: str) -> None:
    if text not in ("scalar", "polynomial"):
        raise ValueError(f"must be scalar or polynomial, got unknown mode {text!r}")


def _retired_chunk(text: str) -> None:
    if (value := _INT(text)) < 1:
        raise ValueError(f"must be >= 1 replica per batch, got {value}")


_INT = _cast("an integer", int)
_BOOL = _cast("a boolean", lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()])
_INTS = _cast("a comma list of integers", lambda t: tuple(int(v) for v in t.split(",") if v.strip()))
_GRID = _cast("a comma list of numbers", lambda t: tuple(float(v) for v in t.split(",") if v.strip()))
_THRESHOLD = _cast("a finite number", float, math.isfinite)

# Every key of the config file, in the order write_config writes them.
# Retired keys (the campaign mode, the section switch, the batch size and
# [checks] thresholds that no check reads) are still read and checked, so
# that configs and resolved.cfg files written before their removal re-run.
CONFIG_KEYS = {
    ("graph", "fiber"): ConfigKey("fiber", str, str),
    ("disorder", "vertex"): ConfigKey("disorder.vertex_law", _law, str),
    ("disorder", "edge"): ConfigKey("disorder.edge_law", _law, str),
    ("ladder", "n"): ConfigKey("n_ladder", _INTS, lambda ns: ",".join(map(str, ns))),
    ("ladder", "replicas"): ConfigKey("replicas", _INT, str),
    ("ladder", "seed"): ConfigKey("seed", _INT, str),
    ("ladder", "cut_fraction"): ConfigKey("cut_fraction", _cast("a number", float), repr),
    ("ladder", "with_ground"): ConfigKey("with_ground", _BOOL, lambda v: str(v).lower()),
    ("ladder", "with_spectrum"): ConfigKey("with_spectrum", _BOOL, lambda v: str(v).lower()),
    ("ladder", "gibbs_samples"): ConfigKey("gibbs_samples", _INT, str),
    ("ladder", "height_envs"): ConfigKey("height_envs", _INT, str),
    ("ladder", "x_grid"): ConfigKey("x_grid", _GRID, lambda xs: ",".join(map(repr, xs))),
    ("ladder", "t_grid"): ConfigKey("t_grid", _GRID, lambda ts: ",".join(map(repr, ts))),
    ("ladder", "out_dir"): ConfigKey("out_dir", str, str),
    ("ladder", "mode"): ConfigKey(None, _retired_mode),
    ("ladder", "with_sections"): ConfigKey(None, _BOOL),
    ("ladder", "chunk"): ConfigKey(None, _retired_chunk),
    **{("checks", f.name): ConfigKey(f"thresholds.{f.name}", _THRESHOLD, repr)
       for f in fields(Thresholds)},
    **{("checks", key): ConfigKey(None, _THRESHOLD) for key in (
        "var_drift_tol", "se_mult", "quenched_dist", "quenched_frac",
        "section_cov_tol", "section_var_tol")},
}


def parse_config(path_or_text: str, is_text: bool = False) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    if is_text:
        cp.read_string(path_or_text)
    else:
        with open(path_or_text) as fh:
            cp.read_file(fh)
    sections = {section for section, _ in CONFIG_KEYS}
    parts = {f.name: f.default_factory for f in fields(ExperimentConfig)}
    kw = {}
    for section in cp.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in cp[section].items():
            if (section, key) not in CONFIG_KEYS:
                noun = "checks option" if section == "checks" else "option"
                raise ValueError(f"unknown {noun} {key!r} in [{section}]")
            attr, parse, _ = CONFIG_KEYS[section, key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} {exc}") from None
            if attr is not None:
                part, _, name = attr.partition(".")
                if name:   # a field of a part: of the part read so far, or of its default
                    value = replace(kw.get(part) or parts[part](), **{name: value})
                kw[part] = value
    return ExperimentConfig(**kw)


def write_config(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    for (section, key), (attr, _, fmt) in CONFIG_KEYS.items():
        value = reduce(getattr, attr.split("."), cfg) if attr else None
        if value is not None:
            cp.read_dict({section: {key: fmt(value)}})
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# replica tables
# ---------------------------------------------------------------------------

# the environments of the functionals check: streams 0..E-1 at its rung
FUNCTIONAL_ENVIRONMENTS = 8


@dataclass
class ReplicaTable:
    columns: dict    # name -> one entry per row, in the order of the CSV columns
    # with spectra, the (monic polynomial, spectrum) pairs of streams
    # 0..FUNCTIONAL_ENVIRONMENTS-1 at the zero-extraction rung, which the
    # functionals check reads; not written to the CSV
    zeros: list = field(default_factory=list)
    workers: Workers | None = None   # the processes of the campaign, for the manifest

    def __len__(self):
        return self.columns["n"].size

    def ns(self) -> np.ndarray:
        return np.unique(self.columns["n"])

    def at(self, n: int, key: str) -> np.ndarray:
        sel = self.columns["n"] == n
        return self.columns[key][sel]

    def top_n(self) -> int:
        return int(self.ns().max())

    def has(self, key: str) -> bool:
        return key in self.columns and not np.isnan(self.columns[key]).all()

    def to_csv(self, path: str) -> None:
        write_csv(path, self.columns)


def _draw_weight_batch(g: CylinderGraph, cfg: ExperimentConfig, streams) -> tuple:
    """(nu, omega_h, omega_v) of the streams, ``[R, ...]``, bit for bit as
    ``sample_weights`` draws them, from one Philox re-keyed per stream to
    its ``stream_keys`` key.  Consecutive draws of one generator are one
    draw of their summed size, so a stream takes one ``Law.sample`` call
    per law, one in all if the vertex and edge laws are equal; NaN and +inf
    are refused once per batch."""
    shapes = ((g.n, g.h), (max(g.n - 1, 0), g.h), (g.n, len(g.H.edges)))
    rows = [np.empty((len(streams), math.prod(shape))) for shape in shapes]
    vertex, edge = cfg.disorder.vertex_law, cfg.disorder.edge_law
    laws = [(vertex, rows)] if vertex == edge else [(vertex, rows[:1]), (edge, rows[1:])]
    bits = np.random.Philox(0)
    gen, state = np.random.Generator(bits), bits.state   # a fresh state: counter 0, empty buffer
    for r, key in enumerate(stream_keys(cfg.seed, streams, DOMAIN_WEIGHTS)):
        state["state"]["key"] = key
        bits.state = state
        for law, parts in laws:
            draw, lo = law.sample(gen, sum(a.shape[1] for a in parts)), 0
            for a in parts:
                a[r], lo = draw[lo:lo + a.shape[1]], lo + a.shape[1]
    return tuple(_check_weight_array(name, a).reshape(len(streams), *shape)
                 for name, a, shape in zip(("nu", "omega_h", "omega_v"), rows, shapes))


# The least work, in replica-vertex steps (replicas * n * h summed over the
# batches), that a map splits across processes.  A bare fork, pipe,
# pickle and wait cost about 2 ms on a 2-CPU host, but the child's first
# writes copy the pages it shares, so there a split path(2) campaign of
# 49,152 steps ran at 0.42x the speed of one process and one of 81,920
# steps at 1.05x (medians of 15).
SPLIT_WORK = 1 << 16


class Workers(NamedTuple):
    """The processes a map runs in, of the usable CPUs, for its work in
    replica-vertex steps; ``reason`` says why it runs in one."""

    processes: int
    cpus: int
    work: int
    reason: str | None = None


def campaign_workers(work: int, widest: int) -> Workers:
    """One process per usable CPU (``os.sched_getaffinity``), at most one
    per stream of the widest batch, for ``work`` of at least ``SPLIT_WORK``
    steps where ``os.fork`` exists; else one process, and the reason."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork"):
        reason = "no os.fork"
    elif not hasattr(os, "sched_getaffinity"):
        reason = "no os.sched_getaffinity"
    elif cpus < 2:
        reason = "one usable CPU"
    elif work < SPLIT_WORK:
        reason = f"work {work:,} below the split threshold {SPLIT_WORK:,}"
    elif widest < 2:
        reason = "one stream per batch"
    else:
        return Workers(min(cpus, widest), cpus, work)
    return Workers(1, cpus, work, reason)


def _in_processes(run: Callable, parts: int) -> list:
    """``[run(0), ..., run(parts - 1)]``: run(0) in this process and every
    other part in a forked child, which pickles its result back through a
    pipe and leaves by ``os._exit``.  A child that ends without a result is
    an error naming its status; if this process's part or the join raises,
    every child left is killed.  Every child is reaped on every path."""
    children = {}   # pid -> the read end of its pipe, None once closed
    try:
        for p in range(1, parts):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:   # the child: never returns into the caller
                code = 1
                try:
                    os.close(r)
                    for fd in children.values():
                        os.close(fd)
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(run(p), fh, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = r
        results = [run(0)]
        for pid in list(children):
            with os.fdopen(children[pid], "rb") as fh:
                children[pid] = None   # the file closes it
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status or not data:
                end = (f"died by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                       else f"exited with status {os.waitstatus_to_exitcode(status)}")
                raise RuntimeError(f"replica worker {pid} (part {len(results)} of {parts}) {end}"
                                   " without a result")
            results.append(pickle.loads(data))
        return results
    finally:
        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            if r is not None:
                os.close(r)
            os.waitpid(pid, 0)


class EmptyStreamError(ValueError):
    """The refusal of the empty replicas of a batch of ``size`` at n, by
    their ``streams``, naming the first one's stream."""

    def __init__(self, streams: np.ndarray, n: int, size: int):
        super().__init__(f"stream {streams[0]} at n={n} has no matching of finite weight"
                         f" ({streams.size} of the {size} replicas of its batch): empty Gibbs measure")
        self.streams, self.n, self.size = streams, n, size


def _map_batches(cfg: ExperimentConfig, units, consume: Callable) -> tuple[list, Workers]:
    """``consume(g, streams, tables)`` of every batch, in stream order, and
    the processes that ran them.  A unit (g, streams, *model) runs its range
    of streams in batches of ``replicas_per_batch(g.H, g.n, *model)``, each
    drawn and built once.  Every batch splits into contiguous parts of its
    streams, one per process of ``campaign_workers`` for the work of all
    batches; as no result depends on its batch, none depends on the
    processes.  A process stops at its first refusal, and the map raises
    that of the first batch refused, as one process would: an empty Gibbs
    measure as the ``EmptyStreamError`` of the empty streams of all its
    parts, counted against the whole batch."""
    batches = [(g, streams[lo:lo + size]) for g, streams, *model in units
               for size in [replicas_per_batch(g.H, g.n, *model)] for lo in range(0, len(streams), size)]
    workers = campaign_workers(sum(len(streams) * g.n * g.h for g, streams in batches),
                               max((len(streams) for _, streams in batches), default=0))
    P = workers.processes

    def part(p: int) -> tuple:
        """The results of part p of every batch (None without a stream) up
        to the first refusal, and it: of an empty measure, its streams."""
        done = []
        for g, streams in batches:
            streams = streams[len(streams) * p // P: len(streams) * (p + 1) // P]
            if not streams:
                done.append(None)
                continue
            try:
                done.append(consume(g, streams, batch_tables(g, *_draw_weight_batch(g, cfg, streams))))
            except EmptyMeasureError as err:
                return done, np.asarray(streams)[err.replicas]
            except Exception as exc:
                return done, exc
        return done, None

    parts = _in_processes(part, P)
    refused = [(len(done), exc) for done, exc in parts if exc is not None]
    if refused:
        k = min(k for k, _ in refused)
        first = [exc for at, exc in refused if at == k]
        if all(isinstance(exc, np.ndarray) for exc in first):
            raise EmptyStreamError(np.concatenate(first), batches[k][0].n, len(batches[k][1]))
        raise next(exc for exc in first if isinstance(exc, Exception))
    return [done[k] for k in range(len(batches)) for done, _ in parts if done[k] is not None], workers


def run_replicas(cfg: ExperimentConfig) -> ReplicaTable:
    """Sweep the ladder under ``_map_batches``, recording one row per
    (length, replica stream) by ``_replica_chunk``; with spectra, keep the
    zeros of the functionals check's environments (``ReplicaTable.zeros``)
    from the rows of its rung, the ``_zero_extraction_rung``."""
    H, rung = cfg.fiber_graph(), _zero_extraction_rung(cfg)

    def chunk(g: CylinderGraph, streams: range, tables: dict) -> tuple:
        rows, pairs = _replica_chunk(g, cfg, streams, tables, max(1, min(g.n - 1, int(g.n * cfg.cut_fraction))))
        return rows, pairs[: max(0, FUNCTIONAL_ENVIRONMENTS - streams.start)] if g.n == rung else []

    done, workers = _map_batches(cfg, [(build_cylinder(n, H), range(cfg.replicas), cfg.degree_layers(n))
                                       for n in cfg.n_ladder], chunk)
    return ReplicaTable({key: np.concatenate([rows[key] for rows, _ in done]) for key in done[0][0]},
                        [pair for _, pairs in done for pair in pairs], workers)


def _spectra(g: CylinderGraph, tables: dict):
    """Each replica's monic polynomial and its Lee-Yang spectrum, or None
    where extraction is refused (ill-conditioned coefficients), from one
    vertex recursion over the weights of ``tables``.  A replica with a -inf
    vertex weight has no all-monomer coefficient, so no monic form: its
    extraction is refused, (None, None)."""
    coeffs, = increment_laws(tables, [0, g.n])
    for lc in coeffs.T:
        if lc[-1] == NEG_INF:
            yield None, None
            continue
        p = MonomerPolynomial(lc, g.num_vertices).monic()
        try:
            yield p, spectrum(p)
        except SpectrumError:
            yield p, None


def _replica_chunk(g: CylinderGraph, cfg: ExperimentConfig, streams, tables: dict, k_cut: int) -> tuple:
    """Rows of one batch from its table, and the (polynomial, spectrum)
    pair of each replica whose zeros were extracted (``_spectra``): log Z,
    the cumulants and the sections from the two sweeps of ``cut_moments``
    that meet at the cut; M from the (max, +) sweep over the same table;
    with spectra the zeros of every replica's polynomial from one vertex
    recursion over its weights.  A rung past the extraction limit runs
    neither the recursion nor a root finder: its rows keep NaN spectra,
    refused, and it gives no pairs.  ``cut_moments`` refuses an empty
    Gibbs measure (log Z = -inf)."""
    streams = np.array(streams, dtype=np.int64)
    R = streams.size
    lz, mean, var, var_l, var_r, cov = cut_moments(tables, k_cut)
    rows = {
        "n": np.full(R, g.n, dtype=np.int64),
        "stream": streams,
        "log_z": lz,
        "mean_U": mean,
        "var_U": var,
        "M": max_values(tables) if cfg.with_ground else np.full(R, np.nan),
        "cov_cut": cov,
        "var_left": var_l,
        "var_right": var_r,
    }
    pairs = list(_spectra(g, tables)) if cfg.degree_layers(g.n) else []
    if cfg.with_spectrum:   # a refused extraction keeps its row, with NaN spectra
        spec = np.full((R, 3), np.nan)
        for r, (_, sp) in enumerate(pairs):
            if sp is not None:
                spec[r] = (sp.max_abs(), *density_functionals(sp, 0.0, g.n))
        rows.update(zip(("max_lambda", "u_n", "varQ_n"), spec.T))
    return rows, pairs


# ---------------------------------------------------------------------------
# estimates and CLT checks
# ---------------------------------------------------------------------------

@dataclass
class LimitEstimates:
    n_top: int
    replicas: int
    f_hat: float
    sigma2_F: float
    u_hat: float
    sigma2_Q: float
    sigma2_A: float
    m_hat: float
    sigma2_M: float
    per_n: dict            # n -> {"f": mean log_z / n, "u": ..., "m": ...}
    drift: dict            # metric -> |relative change| between top two n
    se: dict               # standard errors for the variance estimates

    def total_sigma2(self) -> float:
        """Variance rate of U under both layers of randomness."""
        return self.sigma2_Q + self.sigma2_A


def _sample_var(a: np.ndarray) -> float:
    """Unbiased sample variance, taken of the samples shifted by the first
    one: exactly 0 when all samples are equal."""
    return float(np.var(a - a[0], ddof=1))


def estimate_limits(table: ReplicaTable) -> LimitEstimates:
    ns = sorted(int(v) for v in table.ns())
    if len(ns) < 1:
        raise ValueError("empty table")
    per_n = {}
    for n in ns:
        lz = table.at(n, "log_z")
        mu = table.at(n, "mean_U")
        mm = table.at(n, "M")
        per_n[n] = {
            "f": float(np.mean(lz)) / n,
            "u": float(np.mean(mu)) / n,
            "m": float(np.mean(mm)) / n if not np.isnan(mm).all() else float("nan"),
            "var_f": _sample_var(lz) / n,
            "var_m": _sample_var(mm) / n if not np.isnan(mm).all() else float("nan"),
            "replicas": int(lz.size),
        }
    top = ns[-1]
    lz, mu = table.at(top, "log_z"), table.at(top, "mean_U")
    at_top, m = per_n[top], lz.size
    if m < 2:
        raise ValueError("need at least 2 replicas at the top length")
    est = LimitEstimates(
        n_top=top, replicas=m, f_hat=at_top["f"], sigma2_F=at_top["var_f"], u_hat=at_top["u"],
        sigma2_Q=float(np.mean(table.at(top, "var_U"))) / top, sigma2_A=_sample_var(mu) / top,
        m_hat=at_top["m"], sigma2_M=at_top["var_m"], per_n=per_n, drift={}, se={},
    )
    # variance-of-variance standard errors under an approximate Gaussian null
    factor = math.sqrt(2.0 / (m - 1))
    est.se = {
        "sigma2_F": est.sigma2_F * factor,
        "sigma2_A": est.sigma2_A * factor,
        "sigma2_M": est.sigma2_M * factor,
        "u_hat": math.sqrt(_sample_var(mu)) / math.sqrt(m) / top,
        "f_hat": math.sqrt(_sample_var(lz)) / math.sqrt(m) / top,
    }
    if len(ns) >= 2:
        a, b = ns[-2], ns[-1]
        for key in ("f", "u", "m", "var_f", "var_m"):
            x, y = per_n[a][key], per_n[b][key]
            est.drift[key] = abs(y - x) / max(abs(y), 1e-30)
    return est


@dataclass
class MetricStats:
    metric: str
    n: int
    count: int
    mean: float
    var: float
    skew: float
    ex_kurtosis: float
    ks: float
    verdict: str            # pass | fail | zero-variance


@dataclass
class StatsSummary:
    entries: list
    ok: bool


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2, of a 1-d
    array, by ``math.erfc``: erfc keeps its relative accuracy in the lower
    tail, where 1 + erf(x / sqrt 2) would cancel."""
    return 0.5 * np.fromiter(map(math.erfc, (x * -math.sqrt(0.5)).tolist()), float, x.size)


def _ks_normal(z: np.ndarray) -> float:
    """The two-sided Kolmogorov-Smirnov distance sup |F_z - Phi| between the
    empirical CDF of the sample z and N(0, 1): on sorted z, the largest of
    i/m - Phi(z_i) and Phi(z_i) - (i - 1)/m.  Tied values need no care, as
    the first and last of a tie carry both bounds of its jump."""
    z = np.sort(z)
    cdf, m = _norm_cdf(z), z.size
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(), (cdf - np.arange(0.0, m) / m).max()))


def _skew_kurtosis(z: np.ndarray) -> tuple[float, float]:
    """The biased sample skewness m3 / m2^1.5 and the Fisher excess
    kurtosis m4 / m2^2 - 3 of z, from its central moments m_k (means of
    the k-th powers of the deviations from the sample mean)."""
    d = z - z.mean()
    d2 = d**2
    m2 = float(np.mean(d2))
    return float(np.mean(d2 * d)) / m2**1.5, float(np.mean(d2**2)) / m2**2.0 - 3.0


def _normality_stats(sample: np.ndarray):
    mean = float(np.mean(sample))
    var = float(np.var(sample, ddof=1))
    z = (sample - mean) / math.sqrt(var)
    return (mean, var, *_skew_kurtosis(z), _ks_normal(z))


def clt_checks(table: ReplicaTable, metrics=("log_z", "mean_U", "M"),
               thresholds: Thresholds | None = None) -> StatsSummary:
    """Normality diagnostics of the replica samples at the top length (the
    skewness, excess kurtosis and KS distance of ``_normality_stats``); a
    metric the campaign did not record (an all-NaN column) is skipped."""
    th = thresholds or Thresholds()
    top = table.top_n()
    entries = []
    ok = True
    for metric in metrics:
        if not table.has(metric):
            continue
        sample = table.at(top, metric)
        sample = sample[~np.isnan(sample)]
        count = sample.size
        if count < 30:
            raise ValueError(f"need >= 30 replicas for {metric}, got {count}")
        if np.var(sample, ddof=1) < 1e-24:
            entries.append(MetricStats(metric, top, count, float(np.mean(sample)),
                                       0.0, 0.0, 0.0, 0.0, "zero-variance"))
            continue
        mean, var, skw, kurt, ks = _normality_stats(sample)
        envelope = th.ks_const / math.sqrt(count)
        passed = abs(skw) <= th.skew_tol and abs(kurt) <= th.kurt_tol and ks <= envelope
        entries.append(MetricStats(metric, top, count, mean, var, skw, kurt, ks,
                                   "pass" if passed else "fail"))
        ok = ok and passed
    return StatsSummary(entries, ok)


# ---------------------------------------------------------------------------
# functional / Brownian / linear-growth diagnostics
# ---------------------------------------------------------------------------

def _lattice_normal_distance(cdf: np.ndarray, mean: float, sd: float) -> float:
    """sup_x |F(x) - Phi((x - mean) / sd)| for a CDF F that steps only at the
    integers 0..cdf.size-1 (``cdf[v] = F(v)``, 1 at the last): the largest
    of |F(v) - Phi| and |F(v-) - Phi| there, as Phi is monotone between."""
    phi = _norm_cdf((np.arange(cdf.size) - mean) / sd)
    left = np.concatenate([[0.0], cdf[:-1]])
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


@dataclass
class FunctionalReport:
    """Spectral-route vs coefficient-route cumulant densities on a tilt grid."""

    n: int
    environments: int
    x_grid: np.ndarray
    max_u_gap: float
    max_varq_gap: float
    failures: int          # environments whose zero extraction was refused
    ok: bool


def _zero_extraction_rung(cfg: ExperimentConfig, refuse: bool = False) -> int | None:
    """The largest ladder length whose zeros double precision resolves
    (n*h <= ``EXTRACTION_MAX_N``): the functionals check's rung, and with
    spectra the top rung of the degree recursion.  None if no rung is, or
    with ``refuse`` the ValueError that says so."""
    h = cfg.fiber_graph().h
    rung = max((n for n in cfg.n_ladder if n * h <= EXTRACTION_MAX_N), default=None)
    if rung is None and refuse:
        raise ValueError("no ladder rung is small enough for zero extraction"
                         f" (need n*h <= extraction limit {EXTRACTION_MAX_N})")
    return rung


def _check_height_campaign(cfg: ExperimentConfig) -> None:
    if cfg.height_envs < 1 or cfg.gibbs_samples < 1 or cfg.height_envs * cfg.gibbs_samples < 2:
        raise ValueError("height campaign needs height_envs >= 1 and gibbs_samples >= 1, and 2 draws in all"
                         f" for a variance; got {cfg.height_envs} x {cfg.gibbs_samples}")
    n, t = max(cfg.n_ladder), np.asarray(cfg.t_grid, dtype=float)
    check_polynomial_caps(n, cfg.fiber_graph().h)   # the exact increment laws
    cuts = np.floor(n * t).astype(int)
    if t.size < 2 or (t < 0).any() or (t > 1).any() or (np.diff(cuts) <= 0).any():
        raise ValueError(f"height increments need a t grid in [0, 1] whose cuts floor(n*t)"
                         f" strictly increase at n={n}; t_grid {','.join(f'{v:g}' for v in t)}"
                         f" gives {','.join(map(str, cuts))}")
    draws_per_block(cfg.fiber_graph(), n, int(np.diff(cuts).max()), cfg.gibbs_samples, cfg.height_envs)


def functional_consistency_check(
    cfg: ExperimentConfig, environments: int = FUNCTIONAL_ENVIRONMENTS, tol: float = 1e-9,
    table: ReplicaTable | None = None,
) -> FunctionalReport:
    """Check u_n / varQ_n from the zero multiset against exact cumulants.

    Runs on the largest ladder rung whose polynomial degree still permits
    trustworthy root extraction (N <= ``EXTRACTION_MAX_N``); larger rungs
    are skipped because double-precision coefficients cannot resolve their
    small zeros.  The environments are streams 0..environments-1 at that
    rung.  The first ones come from ``table.zeros``, the zeros that the
    campaign of ``cfg`` (``run_replicas``) extracted from the same weights;
    only the rest are drawn and extracted here, under ``_map_batches``.  A
    refused extraction fails the check, read or extracted alike.
    """
    g = build_cylinder(_zero_extraction_rung(cfg, refuse=True), cfg.fiber_graph())
    xs = np.asarray(cfg.x_grid, dtype=float)
    pairs = table.zeros[:environments] if table is not None else []   # a copy
    done, _ = _map_batches(cfg, [(g, range(len(pairs), environments), g.n)],
                           lambda g, envs, tables: list(_spectra(g, tables)))
    pairs += [pair for batch in done for pair in batch]
    gaps = []
    failures = 0
    for p, sp in pairs:
        if sp is None:
            failures += 1
            continue
        for x in xs:
            u, vq = density_functionals(sp, float(x), g.n)
            mean, var = p.cumulants(float(x), 2)
            gaps.append((abs(u - mean / g.n), abs(vq - var / g.n)))
    # np.max keeps a NaN gap, which then fails ok; max(0.0, nan) would drop it
    max_u, max_vq = (float(v) for v in np.max(np.reshape(gaps, (-1, 2)), axis=0, initial=0.0))
    ok = failures == 0 and max_u <= tol and max_vq <= tol
    return FunctionalReport(
        n=g.n,
        environments=environments,
        x_grid=xs,
        max_u_gap=max_u,
        max_varq_gap=max_vq,
        failures=failures,
        ok=ok,
    )


@dataclass
class BrownianReport:
    n: int
    samples: int
    t_grid: np.ndarray
    increment_vars: np.ndarray
    expected_vars: np.ndarray       # sigma^2 * dt
    var_ratios: np.ndarray
    max_abs_corr: float
    ks_stats: np.ndarray
    ks_envelope: float
    # from the exact law of each pooled increment: the lattice floor of its
    # distance to normal, and the empirical-vs-exact CDF distance (which
    # the sampling envelope bounds)
    lattice_floors: np.ndarray
    ks_exact: np.ndarray
    # variance ratios, correlations and normality within the [checks] tolerances
    ok: bool = False

    def normality_ok(self) -> bool:
        """Per-increment KS within envelope.

        Section counts are integers, so their laws sit a fixed lattice
        distance from normal no matter how many samples are drawn: the
        envelope for the raw KS statistic is that floor plus the sampling
        term, and the empirical CDF must match the exact law within the
        sampling term alone.
        """
        return bool(
            np.all(self.ks_exact <= self.ks_envelope)
            and np.all(self.ks_stats <= self.lattice_floors + self.ks_envelope)
        )


def brownian_fdd_check(cfg: ExperimentConfig, sigma2: float) -> BrownianReport:
    """Finite-dimensional Brownian diagnostics of the height increments.

    Reports, for the height increments on the t-grid of Gibbs draws in
    independent environments at the top ladder length, scaled by 1/sqrt(n),
    variance ratios against sigma^2 * dt, pairwise correlations and
    normality (``_lattice_normal_distance`` of the sampled and exact laws),
    all from int64 tallies of the raw increments that no order of the draws
    changes: per increment the draws at each value, and the Gram matrix of
    [1, increments], which join by addition.  Under ``_map_batches`` each
    batch has one table and one sampler, which draws every environment from
    its own stream in blocks of ``transfer.draws_per_block``;
    ``increment_laws`` gives the exact laws, whose mean over the
    environments is the law of the pooled draws.  An increment with one
    value in every draw has no statistic, and is refused.
    """
    _check_height_campaign(cfg)
    n = max(cfg.n_ladder)
    g = build_cylinder(n, cfg.fiber_graph())
    t = np.asarray(cfg.t_grid, dtype=float)
    cuts = np.floor(n * t).astype(int)
    D, T = cfg.gibbs_samples, t.size
    degree_layers = int(np.diff(cuts).max())
    block = draws_per_block(g.H, n, degree_layers, D, cfg.height_envs)

    def tally(g: CylinderGraph, envs: range, tables: dict) -> tuple:
        """The int64 tallies of the draws of a batch, and its exact laws."""
        # 0..h degree_layers <= n h <= 6144 monomers (check_polynomial_caps): int64 holds 2e11 draws
        counts, gram = np.zeros((T - 1, g.h * degree_layers + 1), np.int64), np.zeros((T, T), np.int64)
        sampler = GibbsSampler(tables)
        gens = [rng_generator(RngSeed(cfg.seed, stream=env), DOMAIN_GIBBS) for env in envs]
        for lo in range(0, D, block):   # a block of draws at a time, rows [1, increments]
            profiles = sampler.monomer_profiles(sampler.draw_states(gens, min(block, D - lo))).reshape(-1, n)
            x = np.ones((len(profiles), T), np.int64)
            np.add.reduceat(profiles[:, :cuts[-1]], cuts[:-1], axis=1, out=x[:, 1:])
            gram += x.T @ x
            np.add.at(counts, (np.arange(T - 1), x[:, 1:]), 1)
        del sampler, profiles, x   # before the laws, as the batch model counts
        return counts, gram, increment_laws(tables, cuts)

    done, _ = _map_batches(cfg, [(g, range(cfg.height_envs), degree_layers, block)], tally)
    *tallies, laws = zip(*done)
    counts, gram = map(sum, tallies)
    N, sums, prods = int(gram[0, 0]), gram[0, 1:].tolist(), gram[1:, 1:].tolist()
    # N (N - 1) times the covariances of the raw increments, in Python ints
    cov = [[N * p - a * b for p, b in zip(row, sums)] for row, a in zip(prods, sums)]
    if flat := [j for j in range(T - 1) if not cov[j][j]]:
        raise ValueError(f"height increment {flat[0] + 1} (t {t[flat[0]]:g} to {t[flat[0] + 1]:g}) takes"
                         f" one value in all {N} draws: no variance, so no Brownian statistic")
    inc_var = np.array([cov[j][j] / (N * (N - 1) * n) for j in range(T - 1)])
    expected = sigma2 * np.diff(t)
    corr = [math.sqrt(cov[j][k] ** 2 / (cov[j][j] * cov[k][k])) for j in range(T - 1) for k in range(j)]
    ks, floors, exact = np.empty((3, T - 1))
    for j, lc in enumerate(np.concatenate(batch, axis=-1) for batch in zip(*laws)):
        p = np.exp(lc - lc.max(axis=0))
        pmf = (p / p.sum(axis=0)).mean(axis=1)
        law, cdf = np.cumsum(pmf), np.cumsum(counts[j, :pmf.size]) / N
        v = np.arange(pmf.size)
        mean = float(v @ pmf)
        floors[j] = _lattice_normal_distance(law, mean, math.sqrt(float((v - mean) ** 2 @ pmf)))
        ks[j] = _lattice_normal_distance(cdf, sums[j] / N, math.sqrt(cov[j][j] / (N * (N - 1))))
        exact[j] = float(np.max(np.abs(cdf - law)))
    th = cfg.thresholds
    rep = BrownianReport(
        n=n,
        samples=N,
        t_grid=t,
        increment_vars=inc_var,
        expected_vars=expected,
        var_ratios=inc_var / expected,
        max_abs_corr=float(np.max(corr, initial=0.0)),
        ks_stats=ks,
        ks_envelope=th.ks_const / math.sqrt(N),
        lattice_floors=floors,
        ks_exact=exact,
    )
    rep.ok = bool(np.all(np.abs(rep.var_ratios - 1.0) <= th.increment_var_tol)
                  and rep.max_abs_corr <= th.increment_corr_tol and rep.normality_ok())
    return rep


@dataclass
class LinearGrowthReport:
    ns: np.ndarray
    deviations: np.ndarray      # |mean <U>_n - n * u_hat|
    max_deviation: float
    slope: float                # regression of deviation against n
    u_consistency: float        # |u_hat(top) - u_hat(second)|


def linear_growth_check(table: ReplicaTable) -> LinearGrowthReport:
    """Boundedness of |E<U>_n - n u| along the ladder."""
    ns = np.array(sorted(int(v) for v in table.ns()))
    if ns.size < 2:
        raise ValueError("need at least two ladder lengths")
    means = np.array([float(np.mean(table.at(n, "mean_U"))) for n in ns])
    dev = np.abs(means - ns * (means[-1] / ns[-1]))
    slope = float(np.polyfit(ns, dev, 1)[0])
    return LinearGrowthReport(
        ns=ns,
        deviations=dev,
        max_deviation=float(dev.max()),
        slope=slope,
        u_consistency=abs(means[-1] / ns[-1] - means[-2] / ns[-2]),
    )


# ---------------------------------------------------------------------------
# the campaign's checks
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    require: Callable   # cfg -> None, or the ValueError that refuses the check before the campaign
    unnamed: Callable   # cfg -> whether the check runs when --checks does not name it
    run: Callable       # (cfg, table, estimates) -> (report entries, verdict)


def _require_clt(cfg: ExperimentConfig) -> None:
    if cfg.replicas < 30:
        raise ValueError(f"the clt check needs >= 30 replicas, got {cfg.replicas}")


def _require_drift(cfg: ExperimentConfig) -> None:
    if len(cfg.n_ladder) < 2:
        raise ValueError("the drift check compares the top two ladder lengths;"
                         f" the ladder {','.join(map(str, cfg.n_ladder))} has one")


def _require_functionals(cfg: ExperimentConfig) -> None:
    if not cfg.with_spectrum:
        raise ValueError("the functionals check compares zeros with cumulants:"
                         " it needs with_spectrum = true")
    _zero_extraction_rung(cfg, refuse=True)


def _run_drift(cfg, table, est):
    ok = est.drift["f"] <= cfg.thresholds.drift_tol
    return {"linear_growth": linear_growth_check(table), "drift_ok": ok}, ok


def _block(name: str, report) -> tuple:
    """The entries and verdict of a check whose report is one block with an ``ok``."""
    return {name: report}, report.ok


CHECKS = {
    "clt": Check(_require_clt, lambda cfg: cfg.replicas >= 30, lambda cfg, table, est:
                 _block("clt", clt_checks(table, thresholds=cfg.thresholds))),
    "drift": Check(_require_drift, lambda cfg: len(cfg.n_ladder) >= 2, _run_drift),
    "brownian": Check(_check_height_campaign, lambda cfg: False, lambda cfg, table, est:
                      _block("brownian", brownian_fdd_check(cfg, est.total_sigma2()))),
    "functionals": Check(_require_functionals, lambda cfg: cfg.with_spectrum, lambda cfg, table, est:
                         _block("functionals", functional_consistency_check(cfg, table=table))),
}


def check_runnable(cfg: ExperimentConfig, checks) -> None:
    """Before any campaign work, refuse an unknown check name and every check
    that would run on ``cfg`` but cannot."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check(s) {', '.join(unknown)}; the checks are {', '.join(CHECKS)}")
    for name, check in CHECKS.items():
        if name in checks or check.unnamed(cfg):
            check.require(cfg)


def run_checks(cfg: ExperimentConfig, table: ReplicaTable, checks) -> tuple[dict, list]:
    """The report of a campaign (the estimates, with spectra the refused
    extractions per rung, and the entries of every check that runs) and the
    named checks that failed."""
    est = estimate_limits(table)
    report, failed = {"estimates": est}, []
    if cfg.with_spectrum:   # a refused extraction leaves its row with NaN spectra
        report["refused_spectra"] = {int(n): int(np.isnan(table.at(n, "max_lambda")).sum())
                                     for n in table.ns()}
    for name, check in CHECKS.items():
        if name in checks or check.unnamed(cfg):
            entries, ok = check.run(cfg, table, est)
            report.update(entries)
            if name in checks and not ok:
                failed.append(name)
    return report, failed

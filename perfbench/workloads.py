"""The dimerlab workloads: inputs made from a seed, one timed pass, and the gate.

Each workload drives ``dimerlab.cli.main`` in-process with generated argv
(and, for campaigns, a generated config file), exactly as a user would run
the ``dimerlab`` command.  ``tiny=True`` builds the same workload at toy
sizes; it is the first-call warm-up that ``setup_s`` includes.

The gate runs after the timed passes.  It counts operations (one per
replica row, one per CLI command) and the ones that failed: a nonzero
exit, a rung listed in the campaign's errors, a NaN or empty cell in a
requested column, or a mismatch against an independent route.  A
mismatch or a pass whose outputs differ from the first pass also makes
the run incorrect; a refusal only counts as failed.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from spans import Tracer

DISORDER = ("normal(0,1)", "normal(0,1)")


@dataclass
class PassResult:
    wall: float              # seconds at nominal host speed (hostspeed.py)
    rate: float              # operations per second, see README.md
    cmd: dict                # command -> seconds at nominal host speed
    rcs: list                # exit code per command, in order
    digest: str              # hash of every output file but the manifests
    raw_wall: float = 0.0    # seconds on the clock, probe time included
    probe_s: float = 0.0     # seconds the probe took inside the pass


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    cumulant_err: float = 0.0
    notes: list = field(default_factory=list)

    def mismatch(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)


def call(cli, argv: list, probed: bool) -> tuple:
    """Run one ``dimerlab`` command in-process.

    Returns (exit code, seconds, seconds at nominal host speed, seconds
    the probe took).  Unless ``probed``, no probe interrupts the command
    and the second and third are equal.
    """
    buf = io.StringIO()
    probe = hostspeed.Probe() if probed else contextlib.nullcontext()
    with probe:
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = -1
    dt = time.perf_counter() - t
    if not probed:
        return rc, dt, dt, 0.0
    return rc, dt, probe.scaled(dt), probe.spent


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def bytes_written(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _rel(a: float, b: float, scale: float) -> float:
    return abs(a - b) / max(abs(scale), 1e-300)


def _blank(cell: str) -> bool:
    return cell in ("", "nan") or math.isnan(float(cell))


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# campaigns: `dimerlab experiment`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSpec:
    fiber: str
    ns: tuple
    replicas: int
    mode: str
    with_ground: bool
    with_spectrum: bool
    chunk: int = 256


ORACLE_STREAMS = 2                   # streams per rung checked by the gate
SPECTRAL_COLUMNS = ("max_lambda", "u_n", "varQ_n")


# Replica counts are half of the first design (512 and 16), which keeps a
# pass near 3 s; the chunk stays at 256 so the batched R=256 path and the
# per-chunk call counts are unchanged.
CAMPAIGN = CampaignSpec("path(2)", (128, 512), 256, "scalar", True, False)
POLYNOMIAL = CampaignSpec("path(4)", (8, 48), 8, "polynomial", False, True)
TINY = {"scalar": ((4, 8), 4, 2), "polynomial": ((4, 6), 2, 2)}


class Campaign:
    def __init__(self, spec: CampaignSpec, seed: int, workdir: Path, tiny: bool = False):
        if tiny:
            ns, replicas, chunk = TINY[spec.mode]
            spec = dataclasses.replace(spec, ns=ns, replicas=replicas, chunk=chunk)
        self.spec = spec
        self.seed = seed
        self.out = workdir / "out"
        self.config = workdir / "campaign.cfg"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            "[graph]\n"
            f"fiber = {spec.fiber}\n"
            "[disorder]\n"
            f"vertex = {DISORDER[0]}\n"
            f"edge = {DISORDER[1]}\n"
            "[ladder]\n"
            f"n = {','.join(map(str, spec.ns))}\n"
            f"replicas = {spec.replicas}\n"
            f"seed = {seed}\n"
            f"mode = {spec.mode}\n"
            f"chunk = {spec.chunk}\n"
            "with_sections = true\n"
            f"with_ground = {str(spec.with_ground).lower()}\n"
            f"with_spectrum = {str(spec.with_spectrum).lower()}\n"
        )

    @property
    def rows(self) -> int:
        return self.spec.replicas * len(self.spec.ns)

    @property
    def chunks(self) -> int:
        return len(self.spec.ns) * -(-self.spec.replicas // self.spec.chunk)

    def run_pass(self, cli, probed: bool = True) -> PassResult:
        # one span around run_replicas gives the replica engine's own time
        stage = Tracer()
        stage.install("dimerlab", {"experiments:run_replicas": None})
        try:
            rc, raw, wall, spent = call(cli, ["experiment", "--config", str(self.config),
                                              "--out", str(self.out)], probed)
        finally:
            stage.uninstall()
        # the probe samples evenly in time, so the engine's share scales alike
        engine = (sum(sp.duration for sp in stage.spans) or raw) * wall / raw
        return PassResult(wall, self.rows / engine, {"experiment": wall}, [rc],
                          digest(self.out), raw, spent)

    def oracle_streams(self, n: int) -> list:
        """The streams of rung n that the gate checks against oracles."""
        return random.Random(self.seed * 7919 + n).sample(range(self.spec.replicas),
                                                          ORACLE_STREAMS)

    def columns(self) -> list:
        cols = ["log_z", "mean_U", "var_U", "cov_cut", "var_left", "var_right"]
        if self.spec.with_ground:
            cols.append("M")
        if self.spec.with_spectrum:
            cols += SPECTRAL_COLUMNS
        return cols

    def gate(self, passes: list) -> GateResult:
        res = GateResult(attempted=self.rows * len(passes))
        bad_passes = sum(1 for p in passes if p.rcs != [0])
        if bad_passes:
            res.mismatch(f"{bad_passes} pass(es) exited nonzero")
        if any(p.digest != passes[0].digest for p in passes):
            res.mismatch("campaign outputs differ between passes")
        failed_rows = self._failed_rows(res)
        res.failed = len(failed_rows) * (len(passes) - bad_passes) + self.rows * bad_passes
        return res

    def _failed_rows(self, res: GateResult) -> set:
        """Keys (n, stream) of the failed rows of one pass."""
        from dimerlab.experiments import make_fiber
        from dimerlab.graphs import DisorderSpec, Law, build_cylinder

        spec = self.spec
        expected = {(n, s) for n in spec.ns for s in range(spec.replicas)}
        try:
            with open(self.out / "replicas.csv", newline="") as fh:
                table = {(int(r["n"]), int(r["stream"])): r for r in csv.DictReader(fh)}
            report = json.loads((self.out / "report.json").read_text())
        except (OSError, ValueError, KeyError) as exc:
            res.mismatch(f"unreadable campaign output: {exc}")
            return expected
        failed = expected - set(table)
        for n, msg in report.get("errors", []):
            res.notes.append(f"rung n={n} refused: {msg}")
            failed |= {(n, s) for s in range(spec.replicas)}
        # a refused spectrum fails its row, but the row's other cells are
        # still checked against the oracles below
        unusable = set(failed)
        for key, row in table.items():
            blank = {c for c in self.columns() if _blank(row.get(c, ""))}
            if blank:
                failed.add(key)
            if blank - set(SPECTRAL_COLUMNS):
                unusable.add(key)

        disagree = set()
        H = make_fiber(spec.fiber)
        disorder = DisorderSpec(Law.parse(DISORDER[0]), Law.parse(DISORDER[1]))
        for n in spec.ns:
            g = build_cylinder(n, H)
            for s in self.oracle_streams(n):
                if (n, s) in unusable:
                    continue
                if not self._oracle_row(g, disorder, s, table[(n, s)], res):
                    disagree.add((n, s))
        if spec.with_spectrum:
            disagree |= self._spectral_rows(table, failed, res)
            self._functionals(report, res)
        if disagree:
            res.mismatch(f"{len(disagree)} row(s) disagree with an independent route")
        return failed | disagree

    def _oracle_row(self, g, disorder, stream: int, row: dict, res: GateResult) -> bool:
        """Check one replica row against single-instance routes."""
        from dimerlab.graphs import RngSeed, sample_weights
        from dimerlab.groundstate import max_weight
        from dimerlab.transfer import (CountingMask, partition_polynomial, scalar_log_z,
                                       section_covariance)

        w = sample_weights(g, disorder, RngSeed(self.seed, stream=stream))
        got = {c: float(row[c]) for c in self.columns() if c not in SPECTRAL_COLUMNS}
        ok = True
        if self.spec.mode == "scalar":
            # the campaign used the batched scalar sweep; the oracle is the
            # exact polynomial, the argmax engine and section_covariance
            p = partition_polynomial(g, w)
            mean, var = p.cumulants(0.0, 2)
            ok &= _close(got["log_z"], p.log_z(), 1e-9)
            if self.spec.with_ground:
                ok &= _close(got["M"], max_weight(g, w).value, 1e-9)
            k = max(1, min(g.n - 1, int(g.n * 0.5)))
            var_l = partition_polynomial(g, w, CountingMask.layer_range(1, k)).cumulants()[1]
            var_r = partition_polynomial(g, w, CountingMask.layer_range(k + 1, g.n)).cumulants()[1]
            cov = section_covariance(g, w, k)
            errs = [_rel(got["mean_U"], mean, mean), _rel(got["var_U"], var, var),
                    _rel(got["var_left"], var_l, var_l), _rel(got["var_right"], var_r, var_r),
                    _rel(got["cov_cut"], cov, var)]
            res.cumulant_err = max(res.cumulant_err, *errs)
            ok &= max(errs) <= 1e-6
        else:
            # the campaign used polynomial mode; the oracle is the scalar sweep
            ok &= _close(got["log_z"], scalar_log_z(g, w), 1e-9)
        return bool(ok)

    def _spectral_rows(self, table: dict, failed: set, res: GateResult) -> set:
        """Rows whose zero-multiset densities differ from the exact cumulants / n."""
        disagree = set()
        for key, row in table.items():
            if key in failed:
                continue
            n = key[0]
            mean, var = float(row["mean_U"]), float(row["var_U"])
            u, vq = float(row["u_n"]), float(row["varQ_n"])
            res.cumulant_err = max(res.cumulant_err, _rel(u * n, mean, mean),
                                   _rel(vq * n, var, var))
            if abs(u - mean / n) > 1e-9 or abs(vq - var / n) > 1e-9:
                disagree.add(key)
        return disagree

    def _functionals(self, report: dict, res: GateResult) -> None:
        fr = report.get("functionals")
        if fr is None:
            res.mismatch("report.json has no functional consistency block")
            return
        if fr["failures"]:
            res.notes.append(f"functional check: {fr['failures']} spectra refused")
        if max(fr["max_u_gap"], fr["max_varq_gap"]) > 1e-9:
            res.mismatch(f"functional check gaps {fr['max_u_gap']}, {fr['max_varq_gap']}")


# ---------------------------------------------------------------------------
# single-instance commands
# ---------------------------------------------------------------------------

SPECTRUM_STREAMS = 50
INSTANCE = {
    "sample": ["--n", "512", "--fiber", "path(2)", "--count", "250", "--centering", "0.3"],
    "ground": ["--n", "128", "--h", "2", "--betas", "1,4,16"],
    "exact": ["--n", "128", "--fiber", "path(4)"],
    "spectrum": ["--n", "16", "--fiber", "path(2)"],
    "jacobi": ["--n", "65536", "--h", "1"],
}
INSTANCE_TINY = {
    "sample": ["--n", "8", "--fiber", "path(2)", "--count", "5", "--centering", "0.3"],
    "ground": ["--n", "6", "--h", "2", "--betas", "1"],
    "exact": ["--n", "6", "--fiber", "path(4)"],
    "spectrum": ["--n", "4", "--fiber", "path(2)"],
    "jacobi": ["--n", "16", "--h", "1"],
}


class Instance:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.out = workdir / "out"
        self.args = INSTANCE_TINY if tiny else INSTANCE
        self.streams = 1 if tiny else SPECTRUM_STREAMS
        common = ["--vertex", DISORDER[0], "--edge", DISORDER[1], "--seed", str(seed)]
        self.commands = []           # (command, out dir, argv)
        for cmd, extra in self.args.items():
            streams = range(self.streams) if cmd == "spectrum" else [None]
            for s in streams:
                out = self.out / cmd if s is None else self.out / cmd / str(s)
                argv = [cmd, *extra, *common, "--out", str(out)]
                if s is not None:
                    argv += ["--stream", str(s)]
                self.commands.append((cmd, out, argv))

    chunks = 0

    @property
    def rows(self) -> int:
        return len(self.commands)

    def run_pass(self, cli, probed: bool = True) -> PassResult:
        times: dict = {}
        rcs = []
        spent = 0.0
        t0 = time.perf_counter()
        for cmd, _, argv in self.commands:
            rc, _, dt, probe_s = call(cli, argv, probed)
            times[cmd] = times.get(cmd, 0.0) + dt
            rcs.append(rc)
            spent += probe_s
        raw = time.perf_counter() - t0
        return PassResult(sum(times.values()), 1.0 / _geomean(times.values()), times, rcs,
                          digest(self.out), raw, spent)

    def gate(self, passes: list) -> GateResult:
        res = GateResult(attempted=self.rows * len(passes))
        if any(p.digest != passes[0].digest for p in passes):
            res.mismatch("command outputs differ between passes")
        checks = {"sample": self._check_sample, "ground": self._check_ground,
                  "exact": self._check_exact, "spectrum": self._check_spectrum,
                  "jacobi": self._check_jacobi}
        wrong = set()
        for i, (cmd, out, _) in enumerate(self.commands):
            if passes[-1].rcs[i] != 0:
                continue
            try:
                note = checks[cmd](out)
            except (OSError, ValueError, KeyError) as exc:
                note = f"unreadable output: {exc}"
            if note:
                res.mismatch(f"{cmd} {out.name}: {note}")
                wrong.add(i)
        for p in passes:
            for i, rc in enumerate(p.rcs):
                if rc != 0 or i in wrong:
                    res.failed += 1
                    if rc != 0:
                        res.notes.append(f"{self.commands[i][0]} exited {rc}")
        return res

    def _instance(self, cmd: str, stream: int = 0):
        from dimerlab.experiments import make_fiber
        from dimerlab.graphs import (DisorderSpec, HGraph, Law, RngSeed, build_cylinder,
                                     sample_weights)

        a = self.args[cmd]
        n = int(a[a.index("--n") + 1])
        H = (make_fiber(a[a.index("--fiber") + 1]) if "--fiber" in a
             else HGraph.path(int(a[a.index("--h") + 1])))
        g = build_cylinder(n, H)
        spec = DisorderSpec(Law.parse(DISORDER[0]), Law.parse(DISORDER[1]))
        return g, sample_weights(g, spec, RngSeed(self.seed, stream=stream))

    def _check_sample(self, out: Path):
        """Sampled mean monomer count within 4 sigma of the exact mean."""
        from dimerlab.transfer import partition_polynomial

        g, w = self._instance("sample")
        draws = json.loads((out / "matchings.json").read_text())["draws"]
        counts = [g.num_vertices - 2 * len(d) for d in draws]
        mean, var = partition_polynomial(g, w).cumulants(0.0, 2)
        emp = sum(counts) / len(counts)
        if abs(emp - mean) > 4.0 * math.sqrt(var / len(counts)):
            return f"sampled mean {emp} outside 4 sigma of exact {mean}"
        with open(out / "heights.csv", newline="") as fh:
            last = {int(r["draw"]): float(r["theta"]) for r in csv.DictReader(fh)
                    if float(r["t"]) == 1.0}
        if [last.get(d) for d in range(len(counts))] != [float(c) for c in counts]:
            return "height at t=1 differs from the draw's monomer count"
        return None

    def _check_ground(self, out: Path):
        from dimerlab.groundstate import batch_max_values, max_weight

        g, w = self._instance("ground")
        value = json.loads((out / "ground.json").read_text())["value"]
        batch = float(batch_max_values(g, w.nu[None], w.omega_h[None], w.omega_v[None])[0])
        if not (_close(value, max_weight(g, w).value, 1e-9) and _close(value, batch, 1e-9)):
            return f"ground value {value} differs from max_weight / batch_max_values"
        return None

    def _check_exact(self, out: Path):
        from dimerlab.graphs import load_weights
        from dimerlab.transfer import scalar_log_z

        g, w = load_weights(out / "weights.json")
        log_z = json.loads((out / "exact.json").read_text())["log_z"]
        if not _close(log_z, scalar_log_z(g, w), 1e-9):
            return f"log_z {log_z} differs from the scalar sweep"
        return None

    def _check_spectrum(self, out: Path):
        """N zeros, and the mean count from the zeros equals the exact mean."""
        from dimerlab.transfer import partition_polynomial

        sp = json.loads((out / "spectrum.json").read_text())
        if 2 * len(sp["lambdas"]) + sp["zero_mult"] != sp["N"]:
            return "zero count does not match the degree"
        g, w = self._instance("spectrum", int(out.name))
        mean = partition_polynomial(g, w).cumulants(0.0, 1)[0]
        from_zeros = sp["zero_mult"] + sum(2.0 / (1.0 + lam * lam) for lam in sp["lambdas"])
        if abs(from_zeros - mean) > 1e-9 * g.n:
            return f"mean from zeros {from_zeros} differs from exact {mean}"
        return None

    def _check_jacobi(self, out: Path):
        """log|det A| must equal log Z from the scalar sweep on the seed's weights."""
        from dimerlab.transfer import scalar_log_z

        log_det = json.loads((out / "jacobi.json").read_text())["log_det"]
        log_z = scalar_log_z(*self._instance("jacobi"))
        if not _close(log_det, log_z, 1e-9):
            return f"log|det A| {log_det} differs from the scalar sweep's log Z {log_z}"
        return None


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    if name == "campaign":
        return Campaign(CAMPAIGN, seed, workdir, tiny)
    if name == "polynomial":
        return Campaign(POLYNOMIAL, seed, workdir, tiny)
    if name == "instance":
        return Instance(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaign", "polynomial", "instance")

#!/usr/bin/env python3
"""dimerlab benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dimerlab is imported from ``src/``.  The
run measures set-up (import plus first-call warm-up) in fresh interpreters,
repeats untraced passes of the workload for about ``--seconds``, then gates
the outputs against independent routes.  Times are scaled to a nominal
host speed by hostspeed.py.  ``--trace 1`` adds one traced pass
and reports the per-layer metrics instead of the end-to-end ones.  The last
line of standard output is the result as JSON; the lines before it carry
the environment and every metric by name with its unit.  Spans of a traced
pass are written to ``.perfbench/``.  See README.md for the metrics.
"""
import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanSummary, Tracer, self_times  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="nonnegative input seed")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="DIR", type=Path, default=None,
                   help="internal: time import plus warm-up here, writing under DIR")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_cli():
    from dimerlab import cli

    return cli


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Seconds to import dimerlab and run the workload once at toy sizes,
    at nominal host speed (measured right after, see hostspeed.py)."""
    t0 = time.perf_counter()
    cli = import_cli()
    wl = workloads.make(name, seed, workdir, tiny=True)
    wl.run_pass(cli, probed=False)
    return (time.perf_counter() - t0) / hostspeed.slowdown()


def setup_seconds(args, workdir: Path, repeats: int) -> list:
    """Set-up time of ``repeats`` fresh interpreters."""
    out = []
    for i in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", str(workdir / f"probe{i}"),
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(wl, cli, seconds: float) -> list:
    """Untraced passes until the next one would overrun ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(cli))
        typical = median(p.raw_wall for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + typical > seconds:
            return passes


def environment() -> dict:
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not a stable API
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def traced_pass(wl, cli):
    tracer = Tracer()
    tracer.install("dimerlab", layers.TARGETS)
    try:
        result = wl.run_pass(cli, probed=False)
    finally:
        tracer.uninstall()
    return tracer, result


def run(args) -> int:
    workdir = STATE / f"work-{os.getpid()}"
    try:
        # this interpreter has not imported dimerlab yet: its set-up is one sample
        setups = [probe_setup(args.workload, args.seed, workdir / "warm")]
        setups += setup_seconds(args, workdir, SETUP_REPEATS - 1)
        cli = import_cli()
        wl = workloads.make(args.workload, args.seed, workdir / "run")
        passes = measure(wl, cli, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate = wl.gate(passes)
        walls = [p.wall for p in passes]
        cmd = {k: median(p.cmd[k] for p in passes) for k in passes[0].cmd}
        e2e = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "ops_per_s": median(p.rate for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        report = {
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "pass_walls_s": walls, "pass_clock_s": [p.raw_wall for p in passes],
            "pass_probe_s": [p.probe_s for p in passes], "setup_samples_s": setups,
            **e2e, "failed_frac": gate.failed / gate.attempted,
            **{f"cmd.{k}_s": v for k, v in cmd.items()},
            "gate_notes": gate.notes,
        }
        if isinstance(wl, workloads.Campaign):
            report["replicas_per_s"] = e2e["ops_per_s"]
        units = END_TO_END
        metrics = e2e
        env = environment()
        print(json.dumps({"environment": env}))
        if args.trace:
            tracer, traced = traced_pass(wl, cli)
            summary = SpanSummary.of(tracer.spans)
            ctx = {"chunks": wl.chunks, "rows": wl.rows, "cmd": cmd,
                   "bytes_written": workloads.bytes_written(wl.out),
                   "cumulant_err": gate.cumulant_err, "absent": tracer.absent,
                   "overhead": traced.raw_wall - median(p.raw_wall - p.probe_s
                                                         for p in passes)}
            metrics = layers.per_layer_metrics(tracer.spans, summary,
                                               self_times(tracer.spans), ctx)
            units = layers.PER_LAYER
            report["absent_names"] = tracer.absent
            STATE.mkdir(exist_ok=True)
            dump = STATE / f"trace-{args.workload}-seed{args.seed}.json"
            dump.write_text(json.dumps({
                "environment": env, "report": report, "metrics": metrics,
                "spans": [vars(sp) for sp in tracer.spans]}))
        print(json.dumps({"report": report}))
        for name, value in metrics.items():
            print(f"# {name} = {value} {units[name]}")
        print(json.dumps({
            "correct": gate.correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dimerlab" / "__init__.py").is_file():
        print(f"error: dimerlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(probe_setup(args.workload, args.seed, args.probe_setup))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

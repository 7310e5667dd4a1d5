"""Traced layer boundaries of dimerlab and the per-layer metrics made from them.

``TARGETS`` names the public functions at each module's boundary (plus the
sampler's and ground engine's entry points).  Size extractors attach the
replica count R, layer count n and fiber size h to the transfer spans, so
costs can be given per replica x layer x transition pair (3^h pairs) and
fitted against n.  ``PER_LAYER`` lists every metric with its unit; a
metric whose layer a workload never calls reads 0.
"""
from __future__ import annotations

import math


def _graph_attrs(g, *args, **kwargs):
    return {"R": 1, "n": g.n, "h": g.h}


def _batch_attrs(g, nu_b, *args, **kwargs):
    return {"R": len(nu_b), "n": g.n, "h": g.h}


def _tables_attrs(tables, *args, **kwargs):
    R, _, n, _ = tables["B"].shape
    return {"R": R, "n": n, "h": tables["h"]}


TARGETS = {
    "graphs:sample_weights": None,
    "graphs:build_cylinder": None,
    "transfer:batch_tables": _batch_attrs,
    "transfer:batch_scalar_log_z": _tables_attrs,
    "transfer:partition_polynomial": _graph_attrs,
    "transfer:scalar_log_z": _graph_attrs,
    "transfer:section_covariance": None,
    "groundstate:max_weight": None,
    "groundstate:batch_max_values": None,
    "groundstate:gse_remainder": None,
    "groundstate:ground_zero_temperature_limit": None,
    "sampler:GibbsSampler.__init__": None,
    "sampler:GibbsSampler.draw_states": None,
    "sampler:GibbsSampler.matchings_from_states": None,
    "sampler:observables": None,
    "leeyang:spectrum": None,
    "leeyang:density_functionals": None,
    "leeyang:localization_check": None,
    "jacobi:det_abs": None,
    "jacobi:omega_spectrum": None,
    "jacobi:resolvent_U": None,
    "experiments:run_replicas": None,
    "experiments:estimate_limits": None,
    "experiments:clt_checks": None,
    "experiments:linear_growth_check": None,
    "experiments:functional_consistency_check": None,
    "cli:main": None,
}

S, COUNT = "s", "count"
PER_LAYER = {
    "transfer.batch_scalar_log_z_s": S,
    "transfer.batch_scalar_log_z_calls": COUNT,
    "transfer.sweeps_per_chunk": "1/chunk",
    "transfer.batch_tables_s": S,
    "transfer.batch_tables_calls": COUNT,
    "transfer.tables_per_chunk": "1/chunk",
    "transfer.partition_polynomial_self_s": S,
    "transfer.partition_polynomial_calls": COUNT,
    "transfer.polynomials_per_replica": "1/replica",
    "transfer.scalar_log_z_s": S,
    "transfer.sweep_us_per_replica_layer": "us",
    "transfer.sweep_ns_per_replica_layer_pair_3": "ns",
    "transfer.sweep_ns_per_replica_layer_pair_9": "ns",
    "transfer.polynomial_ns_per_layer_pair_81": "ns",
    "transfer.sweep_n_exponent": "1",
    "transfer.polynomial_n_exponent": "1",
    "groundstate.max_weight_self_s": S,
    "groundstate.max_weight_calls": COUNT,
    "groundstate.gse_remainder_s": S,
    "groundstate.batch_max_values_self_s": S,
    "sampler.build_s": S,
    "sampler.draw_states_s": S,
    "sampler.decode_s": S,
    "sampler.observables_s": S,
    "sampler.observables_calls": COUNT,
    "leeyang.spectrum_s": S,
    "leeyang.spectrum_calls": COUNT,
    "leeyang.spectrum_refused": COUNT,
    "leeyang.density_functionals_s": S,
    "jacobi.det_abs_s": S,
    "jacobi.omega_spectrum_s": S,
    "jacobi.resolvent_U_s": S,
    "graphs.sample_weights_s": S,
    "graphs.sample_weights_calls": COUNT,
    "experiments.run_replicas_self_s": S,
    "experiments.estimate_limits_s": S,
    "experiments.clt_checks_s": S,
    "experiments.cumulant_max_rel_err": "1",
    "cli.self_s": S,
    "cli.bytes_written": "B",
    "cmd.sample_s": S,
    "cmd.ground_s": S,
    "cmd.exact_s": S,
    "cmd.spectrum_s": S,
    "cmd.jacobi_s": S,
    "trace.overhead_s": S,
    "trace.absent_names": COUNT,
}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cost(spans: list, name: str, weight, durations=None) -> float:
    """Seconds of ``name`` spans per unit of ``weight(attrs)`` summed over them."""
    time = work = 0.0
    for i, sp in enumerate(spans):
        if sp.name == name and sp.attrs:
            w = weight(sp.attrs)
            if w:
                time += durations[i] if durations else sp.duration
                work += w
    return _per(time, work)


def _n_exponent(spans: list, name: str, durations=None) -> float:
    """Least-squares slope of log(seconds per replica) against log n.

    Fitted within the fiber size that has the most distinct n; 0 when no
    fiber size has two.
    """
    groups: dict = {}
    for i, sp in enumerate(spans):
        if sp.name == name and sp.attrs:
            a = sp.attrs
            d = durations[i] if durations else sp.duration
            groups.setdefault(a["h"], {}).setdefault(a["n"], []).append(d / a["R"])
    best = max(groups.values(), key=len, default={})
    if len(best) < 2:
        return 0.0
    xs = [math.log(n) for n in best]
    ys = [math.log(sum(v) / len(v)) for v in best.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer_metrics(spans: list, summary, selfs: list, ctx: dict) -> dict:
    """Every metric of ``PER_LAYER`` from one traced pass.

    ``ctx`` carries what the spans do not: chunks and rows of the pass,
    the untraced command medians, bytes written, the gate's cumulant
    error, the trace overhead and the absent names.
    """
    calls = lambda k: summary.calls.get(k, 0)  # noqa: E731
    total = lambda k: summary.total.get(k, 0.0)  # noqa: E731
    own = lambda k: summary.self_total.get(k, 0.0)  # noqa: E731
    chunks, rows = ctx["chunks"], ctx["rows"]
    sweep, poly = "transfer.batch_scalar_log_z", "transfer.partition_polynomial"
    m = {
        "transfer.batch_scalar_log_z_s": total(sweep),
        "transfer.batch_scalar_log_z_calls": calls(sweep),
        "transfer.sweeps_per_chunk": _per(calls(sweep), chunks),
        "transfer.batch_tables_s": total("transfer.batch_tables"),
        "transfer.batch_tables_calls": calls("transfer.batch_tables"),
        "transfer.tables_per_chunk": _per(calls("transfer.batch_tables"), chunks),
        "transfer.partition_polynomial_self_s": own(poly),
        "transfer.partition_polynomial_calls": calls(poly),
        "transfer.polynomials_per_replica": _per(calls(poly), rows) if chunks else 0.0,
        "transfer.scalar_log_z_s": total("transfer.scalar_log_z"),
        "transfer.sweep_us_per_replica_layer":
            1e6 * _cost(spans, sweep, lambda a: a["R"] * a["n"]),
        "transfer.sweep_ns_per_replica_layer_pair_3":
            1e9 * _cost(spans, sweep, lambda a: a["R"] * a["n"] * 3 * (a["h"] == 1)),
        "transfer.sweep_ns_per_replica_layer_pair_9":
            1e9 * _cost(spans, sweep, lambda a: a["R"] * a["n"] * 9 * (a["h"] == 2)),
        "transfer.polynomial_ns_per_layer_pair_81":
            1e9 * _cost(spans, poly, lambda a: a["n"] * 81 * (a["h"] == 4), selfs),
        "transfer.sweep_n_exponent": _n_exponent(spans, sweep),
        "transfer.polynomial_n_exponent": _n_exponent(spans, poly, selfs),
        "groundstate.max_weight_self_s": own("groundstate.max_weight"),
        "groundstate.max_weight_calls": calls("groundstate.max_weight"),
        "groundstate.gse_remainder_s": total("groundstate.gse_remainder"),
        "groundstate.batch_max_values_self_s": own("groundstate.batch_max_values"),
        "sampler.build_s": total("sampler.GibbsSampler.__init__"),
        "sampler.draw_states_s": total("sampler.GibbsSampler.draw_states"),
        "sampler.decode_s": total("sampler.GibbsSampler.matchings_from_states"),
        "sampler.observables_s": total("sampler.observables"),
        "sampler.observables_calls": calls("sampler.observables"),
        "leeyang.spectrum_s": total("leeyang.spectrum"),
        "leeyang.spectrum_calls": calls("leeyang.spectrum"),
        "leeyang.spectrum_refused":
            sum(1 for sp in spans if sp.name == "leeyang.spectrum" and sp.error),
        "leeyang.density_functionals_s": total("leeyang.density_functionals"),
        "jacobi.det_abs_s": total("jacobi.det_abs"),
        "jacobi.omega_spectrum_s": total("jacobi.omega_spectrum"),
        "jacobi.resolvent_U_s": total("jacobi.resolvent_U"),
        "graphs.sample_weights_s": total("graphs.sample_weights"),
        "graphs.sample_weights_calls": calls("graphs.sample_weights"),
        "experiments.run_replicas_self_s": own("experiments.run_replicas"),
        "experiments.estimate_limits_s": total("experiments.estimate_limits"),
        "experiments.clt_checks_s": total("experiments.clt_checks"),
        "experiments.cumulant_max_rel_err": ctx["cumulant_err"],
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": ctx["bytes_written"],
        "trace.overhead_s": ctx["overhead"],
        "trace.absent_names": len(ctx["absent"]),
    }
    for cmd in ("sample", "ground", "exact", "spectrum", "jacobi"):
        m[f"cmd.{cmd}_s"] = ctx["cmd"].get(cmd, 0.0)
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(PER_LAYER))}")
    return m

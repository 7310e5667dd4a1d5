"""Zero-temperature engine: maximal Hamiltonian over matchings.

The transfer module's layer sweep turns into a ground-state solver in the
(max, +) semiring, with each layer weighted by its best fiber matching per
forbidden set.  The optimal matching is then read off backward by the two
stages of ``transfer.backward_terms``: from the empty reserved set after
the last layer, each layer takes the first argmax over the previous set S',
then over the fiber rows of F = S | S'.  Rounding is monotone, so a +
max_row s = max_row (a + s), and ties go to the first candidate in the
canonical order (S' ascending, row ascending), as one joint argmax would.

The (max, +) message at the empty reserved set after layer k is the
maximum over the sub-cylinder of layers 1..k; with one sweep over the
table and one over its layer flip, ``gse_remainder`` gives the
ground-state remainder of every cut from one table, without re-solving
any restriction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment
from .sampler import Matching, decode_paths, matching_weight
from .transfer import (
    MAX, NEG_INF, _last, backward_terms, backward_weights, batch_tables, check_cut, cut_remainders,
    instance_tables, messages, scalar_log_z, sweep,
)


@dataclass(frozen=True)
class GroundState:
    value: float
    matching: Matching


def _max_W(tables: dict) -> np.ndarray:
    """Layer weights of the (max, +) sweep, ``W[i, F, r]``: the best fiber
    matching of each block."""
    s, start = tables["scores"], tables["ht"].fiber_start
    return np.stack([s[a:b].max(axis=0) for a, b in zip(start[:-1], start[1:])], axis=1)


def max_values(tables: dict) -> np.ndarray:
    """Max Hamiltonian per replica of ``tables``."""
    return _last(sweep(_max_W(tables), tables["hsum"], tables["ht"], MAX))[0]


def batch_max_values(g: CylinderGraph, nu_b, oh_b, ov_b) -> np.ndarray:
    """Max Hamiltonian per replica, vectorized; no argmax reconstruction."""
    return max_values(batch_tables(g, nu_b, oh_b, ov_b))


def max_weight(g: CylinderGraph, w: WeightAssignment) -> GroundState:
    """Maximize H over matchings: a (max, +) sweep, then a backward argmax."""
    tables = instance_tables(g, w)
    ht, scores = tables["ht"], tables["scores"][..., 0]
    W = _max_W(tables)
    msgs = messages(W, tables, MAX)[..., 0]
    value = float(msgs[-1, 0])
    if value == NEG_INF:   # no matching of finite weight: nothing to maximize over
        raise ValueError("all coefficients vanish; empty Gibbs measure")
    a, W = backward_weights(msgs, tables["hsum"][..., 0]), W[..., 0]
    S_path, rows = np.zeros((2, g.n), dtype=np.int64)
    S = 0
    for i in range(g.n - 1, -1, -1):
        p = ht.pair_start[S] + backward_terms(a, W, ht, S, i).argmax()
        lo, hi = ht.fiber_start[ht.pair_f[p]], ht.fiber_start[ht.pair_f[p] + 1]   # the rows of F = S | S'
        S_path[i], rows[i], S = S, lo + scores[lo:hi, i].argmax(), ht.pair_s[p]
    gs = GroundState(value=value, matching=decode_paths(ht, S_path[None], rows[None])[0])
    achieved = matching_weight(g, w, gs.matching)
    if not np.isclose(achieved, value, rtol=0.0, atol=1e-9):
        raise AssertionError(f"argmax reconstruction mismatch: {achieved} vs {value}")
    return gs


def gse_remainder(g: CylinderGraph, w: WeightAssignment) -> np.ndarray:
    """Superadditivity gaps M_n - M_[1:k] - M_[k+1:n] of the ground state,
    for every cut k = 1..n-1 (entry k-1)."""
    tables = instance_tables(g, w)
    return cut_remainders(_max_W(tables), tables, MAX)[:, 0]


def gse_remainder_bound(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Sum of positive parts of the gauge weights across the cut.

    Dropping the cut dimers of a global optimum and leaving their endpoints
    unpaired costs exactly the gauge weight of each dropped dimer, so the
    gap never exceeds the positive part summed over the cut.  A disabled
    (-inf) edge adds nothing; an edge between two -inf vertices has gauge
    weight +inf, and so has the bound.
    """
    check_cut(k, g.n)
    z = w.gauge_h[k - 1]
    return float(np.sum(np.clip(z[z > NEG_INF], 0.0, None)))


@dataclass
class ZeroTemperatureLadder:
    betas: np.ndarray
    free_energies: np.ndarray   # beta^{-1} log Z_beta
    gaps: np.ndarray            # free energy minus ground-state value
    ground_value: float


def ground_zero_temperature_limit(
    g: CylinderGraph, w: WeightAssignment, betas
) -> ZeroTemperatureLadder:
    """Track beta^{-1} log Z at inverse temperature beta down to the maximum.

    Scaling every weight by beta and reheating by beta^{-1} interpolates
    between free energy (beta=1) and the ground-state value (beta=inf);
    the gap column is always nonnegative and shrinks like beta^{-1}.
    """
    betas = np.asarray(betas, dtype=float)
    bad = betas[~np.isfinite(betas)]
    if bad.size:
        raise ValueError(f"beta values must be finite, got {', '.join(map(str, bad))}")
    if (betas <= 0).any():
        raise ValueError("beta values must be positive")
    M = max_weight(g, w).value
    vals = []
    for b in betas:
        scaled = WeightAssignment(g, b * w.nu, b * w.omega_h, b * w.omega_v)
        vals.append(scalar_log_z(g, scaled) / b)
    vals = np.array(vals)
    return ZeroTemperatureLadder(betas, vals, vals - M, ground_value=M)

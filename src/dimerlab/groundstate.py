"""Zero-temperature engine: maximal Hamiltonian over matchings.

The transfer module's vertex recursion turns into a ground-state solver in
the (max, +) arithmetic ``MAX``.  The optimal matching is then read off
backward one vertex at a time, from the stored message after every vertex
(``transfer.move_terms``): from the empty set after the last layer, each
vertex takes the first largest of the moves into the state after it, in
the fixed order monomer (or the forced opening), the close of the
horizontal dimer reserved at the cut before, then the fiber dimers to the
earlier vertices by H-edge.  The monomer comes first, so all-zero weights
give the empty matching.  The backward terms are the very sums the forward
maximum took, so the first largest is a move of an optimal configuration.

The (max, +) message at the empty reserved set after layer k is the
maximum over the sub-cylinder of layers 1..k; with one sweep forward and
one over the flipped layers, ``gse_remainder`` gives the ground-state
remainder of every cut, without re-solving any restriction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment, gauge
from .sampler import Matching, decode_moves, matching_weight
from .transfer import (
    MAX, _empty, _vertex_sweep, batch_tables, check_nonempty, cut_remainders,
    instance_tables, move_terms, scalar_log_z,
)


@dataclass(frozen=True)
class GroundState:
    value: float
    matching: Matching


def max_values(tables: dict) -> np.ndarray:
    """Max Hamiltonian per replica of ``tables``; a replica with no matching
    of finite weight, nothing to maximize over, is refused."""
    nu, oh, ov = (tables[key] for key in ("nu", "oh", "ov"))
    empty = _empty(1 << tables["h"], nu.shape[0])
    return check_nonempty(_vertex_sweep(empty, nu, oh, ov, tables["plan"], MAX)[0])


def batch_max_values(g: CylinderGraph, nu_b, oh_b, ov_b) -> np.ndarray:
    """Max Hamiltonian per replica, vectorized; no argmax reconstruction."""
    return max_values(batch_tables(g, nu_b, oh_b, ov_b))


def max_weight(g: CylinderGraph, w: WeightAssignment) -> GroundState:
    """Maximize H over matchings: a (max, +) sweep, then a backward argmax.
    The matching's weight, summed over the flat weights at ``edge_ends``,
    must give the value: every ground state checks the edge numbering of
    ``decode_moves`` against ``edge_ends``."""
    (value,), (terms,), code, prev = move_terms(instance_tables(g, w), MAX)
    best = terms.argmax(axis=-1)
    moves, s = np.empty((1, g.n, g.h), dtype=np.intp), 0
    for i in range(g.n - 1, -1, -1):
        for b in range(g.h - 1, -1, -1):
            j = best[i, b, s]
            moves[0, i, b], s = code[b, s, j], prev[b, s, j]
    gs = GroundState(value=float(value), matching=decode_moves(g.n, g.H, moves)[0])
    achieved = matching_weight(g, w, gs.matching)
    if not np.isclose(achieved, value, rtol=0.0, atol=1e-9):
        raise AssertionError(f"argmax reconstruction mismatch: {achieved} vs {value}")
    return gs


def gse_remainder(g: CylinderGraph, w: WeightAssignment) -> np.ndarray:
    """Superadditivity gaps M_n - M_[1:k] - M_[k+1:n] of the ground state,
    for every cut k = 1..n-1 (entry k-1)."""
    return cut_remainders(instance_tables(g, w), MAX)[:, 0]


def gse_remainder_bound(g: CylinderGraph, w: WeightAssignment) -> np.ndarray:
    """Sum of positive parts of the gauge weights across each cut k = 1..n-1
    (entry k-1), the bound of every ``gse_remainder``.

    Dropping the cut dimers of a global optimum and leaving their endpoints
    unpaired costs exactly the gauge weight of each dropped dimer, so the
    gap never exceeds the positive part summed over the cut.  A disabled
    (-inf) edge adds nothing; an edge between two -inf vertices has gauge
    weight +inf, and so has the bound.
    """
    z = gauge(g, w)[: g.num_horizontal].reshape(g.n - 1, g.h)
    return np.clip(z, 0.0, None).sum(axis=1)


@dataclass
class ZeroTemperatureLadder:
    betas: np.ndarray
    free_energies: np.ndarray   # beta^{-1} log Z_beta
    gaps: np.ndarray            # free energy minus ground-state value
    ground_value: float


def ground_zero_temperature_limit(
    g: CylinderGraph, w: WeightAssignment, betas, ground_value: float
) -> ZeroTemperatureLadder:
    """Track beta^{-1} log Z at inverse temperature beta down to the maximum
    ``ground_value`` of H over matchings (``max_weight(g, w).value``).

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
    vals = []
    for b in betas:
        scaled = WeightAssignment(g, b * w.nu, b * w.omega_h, b * w.omega_v)
        vals.append(scalar_log_z(g, scaled) / b)
    vals = np.array(vals)
    return ZeroTemperatureLadder(betas, vals, vals - ground_value, ground_value=ground_value)

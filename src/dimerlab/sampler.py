"""Exact Gibbs sampling of matchings by the backward step of the transfer recursion.

The transfer module builds the cylinder one vertex at a time.  Given the
state after vertex (i, b), the move into it is either the unique OPEN move
(b is open), or one of: a monomer, the close of the horizontal dimer
reserved at cut i-1, or a fiber dimer to an open earlier vertex of the
layer.  Under the forward messages of the (logaddexp, +) sweep, the weights
of these moves, each the message before the vertex at the state it leaves
times the move's weight, are the exact conditional law of the move given
the state after it, so drawing the moves backward from the empty set after
the last vertex draws from the Gibbs measure itself - no Markov chain, no
mixing time.  A ``GibbsSampler`` keeps the cumulative law of the moves into
every state after every vertex of every replica of its batch.  Draw d of
replica r inverts each vertex's law at one uniform, row d of
``gens[r].random((count, n * h))``: consumed draw-major, so draws taken in
blocks, or alone, are the draws taken at once.

One decoder, ``decode_edges``, turns the moves of every draw into its
matching by one fancy index and one sort: row d of a ``[count, n * h]`` int
array holds the canonical edge indices of draw d in ascending order, after
-1 padding for the vertices that close no dimer.  ``sample`` writes its
draws from that array, and ``decode_moves`` builds ``Matching`` objects from
it for the ground state and the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment, edge_ends
from .transfer import FIBER, HORIZONTAL, LOG, MONOMER, NEG_INF, move_terms


@dataclass(frozen=True)
class Matching:
    """A matching as a frozenset of canonical edge indices."""

    edge_indices: frozenset

    def num_unpaired(self, g: CylinderGraph) -> int:
        return g.num_vertices - 2 * len(self.edge_indices)


def matching_weight(g: CylinderGraph, w: WeightAssignment, m: Matching) -> float:
    """Hamiltonian H(m): monomer weights of unpaired vertices + dimer weights.
    Edges that share a vertex are refused: ``m`` is not a matching."""
    idx = np.array(sorted(m.edge_indices), dtype=np.intp)
    covered = np.bincount(edge_ends(g)[:, idx].reshape(-1), minlength=g.num_vertices)
    if (covered > 1).any():
        raise ValueError("edges share a vertex; not a matching")
    return float(w.omega_flat()[idx].sum() + w.nu_flat()[covered == 0].sum())


def heights(profiles: np.ndarray, t, centering: float | None = None):
    """Heights theta(t) = U_[1:floor(nt)] of each draw from its unpaired
    count per layer (``profiles``, ``[..., n]``), and with a centering u
    the scaled height (theta(t) - n t u) / sqrt(n), else None."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any() or (t > 1).any():
        raise ValueError("t grid must lie in [0, 1]")
    n = profiles.shape[-1]
    # the count before each layer, at most n h: in int32, as profiles are small ints
    prefix = np.zeros((*profiles.shape[:-1], n + 1), dtype=np.int32)
    np.cumsum(profiles, axis=-1, dtype=np.int32, out=prefix[..., 1:])
    theta = prefix[..., np.floor(n * t).astype(int)].astype(float)
    if centering is None:
        return theta, None
    scaled = theta - n * t * centering
    scaled /= np.sqrt(n)
    return theta, scaled


# the move drawn from a state of zero mass, which no consistent law reaches
ZERO_MASS = -2


def _cumulative_law(t: np.ndarray) -> np.ndarray:
    """The cumulative law of the moves of log weights ``t[..., j]``, moves
    first, ``[j, ...]``: normalised by its own last entry so that it ends at
    exactly 1.0, and a row of -inf weights (zero mass) all zeros."""
    top = t.max(axis=-1)
    top[top == NEG_INF] = 0.0
    law = np.subtract(np.moveaxis(t, -1, 0), top, out=np.empty((t.shape[-1], *top.shape)))
    np.cumsum(np.exp(law, out=law), axis=0, out=law)
    law /= np.where(law[-1] > 0.0, law[-1], 1.0)
    return law


class GibbsSampler:
    """Backward exact sampler of every replica of ``tables`` at tilt x: the
    cumulative law ``law[j, r, i, b, s]`` of the moves into each state s after
    every vertex (i, b) (``transfer.move_terms``), from one sweep over the batch."""

    def __init__(self, tables: dict, x: float = 0.0):
        self.n, self.H = tables["n"], tables["H"]
        self.log_z, terms, code, prev = move_terms(tables, LOG, x)
        self.law = _cumulative_law(terms)
        # one column past the moves, which only a law of zero mass (all 0) reaches
        self.code, self.prev = (np.pad(a, ((0, 0), (0, 0), (0, 1)), constant_values=v)
                                for a, v in ((code, ZERO_MASS), (prev, 0)))

    def draw_states(self, gens, count: int) -> np.ndarray:
        """The moves ``[r, d, i, b]`` of ``count`` draws of every replica (the
        codes of ``transfer.MONOMER`` and the others), drawn backward from the
        empty set after the last layer: draw d of replica r inverts the law of
        vertex (i, b) at ``gens[r].random((count, n * h))[d, i * h + b]``."""
        J, R, n, h, S = self.law.shape
        if len(gens) != R:
            raise ValueError(f"need one generator per replica, {R}, got {len(gens)}")
        u = np.stack([gen.random((count, n * h)).T for gen in gens], axis=1)
        moves, cur = np.empty((n * h, R, count), dtype=np.intp), np.zeros((R, count), dtype=np.intp)
        # one flat take per vertex: column (r n h + k) S + s of law is the law at [r, k, s]
        law, code, prev = self.law.reshape(J, -1), self.code.reshape(h, -1), self.prev.reshape(h, -1)
        first = S * (np.arange(R)[:, None] * (n * h) + np.arange(n * h)[:, None, None])
        for k in range(n * h - 1, -1, -1):
            j = (law.take(first[k] + cur, axis=1) <= u[k]).sum(axis=0) + cur * (J + 1)
            moves[k], cur = code[k % h].take(j), prev[k % h].take(j)
        if (moves == ZERO_MASS).any():
            raise ValueError("sampling reached a state of zero mass")
        return moves.transpose(1, 2, 0).reshape(R, count, n, h)

    def matchings_from_states(self, moves: np.ndarray) -> np.ndarray:
        """The matchings of the draws, row d the sorted edge indices of draw
        d after -1 padding (``decode_edges``)."""
        return decode_edges(self.n, self.H, moves)

    def monomer_profiles(self, moves: np.ndarray) -> np.ndarray:
        """Unpaired-vertex count per layer of each draw, ``[..., n]``, as int8
        (at most h <= ``SCALAR_MAX_H``)."""
        return (moves == MONOMER).sum(axis=-1, dtype=np.int8)


def decode_edges(n: int, H, moves: np.ndarray) -> np.ndarray:
    """The canonical edge indices of the matching of each draw of moves
    ``[d, i, b]``, ``[count, n * h]``: row d sorted, the vertices that close
    no dimer giving the -1 padding at its front.  The horizontal dimer that
    vertex (i, b) closes is edge (i - 1) h + b, and the fiber dimer of H-edge
    e at layer i is edge (n - 1) h + i mH + e; a fiber whose vertex order is
    not its edge order, as complete(4), comes out sorted all the same."""
    h, mH = H.h, len(H.edges)
    i = np.arange(n)[:, None, None]
    edge = np.full((n, h, FIBER + mH), -1)
    edge[1:, :, HORIZONTAL] = (i[:-1, 0] * h + np.arange(h))
    edge[..., FIBER:] = (n - 1) * h + i * mH + np.arange(mH)
    # move m of vertex (i, b) is entry m of the table's row (i, b), read flat
    rows = (FIBER + mH) * np.arange(n * h).reshape(n, h)
    e = np.take(edge, moves + rows).reshape(len(moves), -1)
    e.sort(axis=1)
    return e


def decode_moves(n: int, H, moves: np.ndarray) -> list[Matching]:
    """The ``Matching`` of each draw of moves ``[d, i, b]``, from ``decode_edges``."""
    e = decode_edges(n, H, moves)
    live = e >= 0
    ends = np.cumsum(live.sum(axis=1)).tolist()
    flat = e[live].tolist()
    return [Matching(frozenset(flat[a:b])) for a, b in zip([0, *ends], ends)]

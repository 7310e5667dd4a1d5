"""Exact Gibbs sampling of matchings by the backward step of the transfer DP.

A matching of the cylinder decomposes layer by layer into the set S_i of
vertices matched forward by horizontal dimers and a fiber matching m_i
avoiding S_{i-1} and S_i.  Under the forward messages of the transfer
module's (logaddexp, +) sweep, the two stages of its backward step are the
exact laws of S_{i-1} given S_i and of m_i given F = S_{i-1} | S_i, so
sampling them backward from the last layer draws from the Gibbs measure
itself - no Markov chain, no mixing time.  A ``GibbsSampler`` keeps the
cumulative law of every segment of both stages at every layer.  Each draw
takes one uniform u per layer: stage 1 inverts its law C at u and picks k,
stage 2 inverts its law at the residual (u - C[k-1]) / (C[k] - C[k-1]), in
all the inverse of the joint law ordered by S_{i-1}, then by fiber row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment
from .transfer import NEG_INF, _moment_W, backward_terms, backward_weights, messages


@dataclass(frozen=True)
class Matching:
    """A matching as a frozenset of canonical edge indices."""

    edge_indices: frozenset

    def covered_flat(self, g: CylinderGraph) -> set[int]:
        edges = g.edge_list()
        out = set()
        for idx in self.edge_indices:
            u, v = edges[idx]
            fu, fv = g.flat_index(u), g.flat_index(v)
            if fu in out or fv in out:
                raise ValueError("edges share a vertex; not a matching")
            out.update((fu, fv))
        return out

    def unpaired(self, g: CylinderGraph) -> list[tuple[int, int]]:
        covered = self.covered_flat(g)
        return [v for v in g.vertices() if g.flat_index(v) not in covered]

    def num_unpaired(self, g: CylinderGraph) -> int:
        return g.num_vertices - 2 * len(self.edge_indices)


def matching_weight(g: CylinderGraph, w: WeightAssignment, m: Matching) -> float:
    """Hamiltonian H(m): monomer weights of unpaired vertices + dimer weights."""
    edges = g.edge_list()
    total = sum(w.omega_of(*edges[idx]) for idx in m.edge_indices)
    for v in m.unpaired(g):
        total += w.nu[v[0] - 1, v[1] - 1]
    return float(total)


def heights(profiles: np.ndarray, t, centering: float | None = None):
    """Heights theta(t) = U_[1:floor(nt)] of each draw from its unpaired
    count per layer (``profiles``, shape (draws, n)), and with a centering u
    the scaled height (theta(t) - n t u) / sqrt(n), else None."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any() or (t > 1).any():
        raise ValueError("t grid must lie in [0, 1]")
    n = profiles.shape[1]
    prefix = np.cumsum(np.pad(profiles, ((0, 0), (1, 0))), axis=1)
    theta = prefix[:, np.floor(n * t).astype(int)].astype(float)
    if centering is None:
        return theta, None
    return theta, (theta - n * t * centering) / np.sqrt(n)


def _cumulative_law(t: np.ndarray) -> np.ndarray:
    """The cumulative law of each row of log weights ``t``, in place,
    normalised by its own last entry so that it ends at exactly 1.0; a row
    of -inf weights (zero mass) becomes zeros."""
    top = t.max(axis=1, keepdims=True)
    top[top == NEG_INF] = 0.0
    np.exp(t - top, out=t)
    np.cumsum(t, axis=1, out=t)
    total = t[:, -1:]
    t /= np.where(total > 0.0, total, 1.0)
    return t


def _pick(cum: np.ndarray, seg: np.ndarray, starts: np.ndarray, j: np.ndarray, u: np.ndarray):
    """Per draw, the entry p of segment ``j`` of the laws ``cum`` (segment ids
    ``seg``, bounds ``starts``) holding u < 1, by one search over segment +
    1j cumulative, which numpy orders lexicographically.  Laws end at exactly
    1.0, so only a zero-mass segment sends p past its end: that is refused."""
    p = np.searchsorted(seg + 1j * cum, j + 1j * u, side="right")
    if (p >= starts[j + 1]).any():
        raise ValueError("sampling reached a state of zero mass")
    return p


class GibbsSampler:
    """Backward exact sampler of replica r of built tables at tilt x: the
    cumulative laws ``prev_law[i, p]`` of stage 1 and ``row_law[i, row]`` of
    stage 2 of the backward step at every layer i, from one forward sweep."""

    def __init__(self, tables: dict, r: int = 0, x: float = 0.0):
        self.n, self.h, self.x = tables["n"], tables["h"], x
        ht = self.ht = tables["ht"]
        # replica r as a contiguous batch of one, so every number below is
        # the one that the replica's own instance_tables give
        one = {**tables, **{k: tables[k][..., [r]] for k in ("B", "hsum", "scores")}}
        W = _moment_W(one, x)[:, 0]
        msgs = messages(W, one)[..., 0]
        self.log_z = float(msgs[-1, 0])
        if self.log_z == NEG_INF:
            raise ValueError("partition function vanishes; nothing to sample")
        a, W = backward_weights(msgs, one["hsum"][..., 0]), W[..., 0]
        self.prev_law = np.empty((self.n, ht.pair_s.size))
        self.row_law = one["scores"][..., 0].T + x * ht.fiber_mono
        for S in range(ht.states):
            self.prev_law[:, ht.pair_start[S] : ht.pair_start[S + 1]] = _cumulative_law(
                backward_terms(a, W, ht, S))
            _cumulative_law(self.row_law[:, ht.fiber_start[S] : ht.fiber_start[S + 1]])

    def draw_states(self, gen: np.random.Generator, count: int):
        """Sample (S_path, m_path) for ``count`` draws, vectorized per layer.

        Returns integer arrays of shape (count, n): the reserved set after
        each layer (always 0 at the last) and the fiber row of each layer,
        which indexes ``ht.fiber_edges`` and ``ht.fiber_mono``.
        """
        n, ht = self.n, self.ht
        S_path, m_path = np.zeros((2, count, n), dtype=np.int64)
        cur = np.zeros(count, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            u, cum = gen.random(count), self.prev_law[i]
            p = _pick(cum, ht.pair_next, ht.pair_start, cur, u)
            lower = np.where(p > ht.pair_start[cur], cum[p - 1], 0.0)
            u = np.minimum((u - lower) / (cum[p] - lower), np.nextafter(1.0, 0.0))   # the residual
            m_path[:, i] = _pick(self.row_law[i], ht.row_f, ht.fiber_start, ht.pair_f[p], u)
            S_path[:, i] = cur
            cur = ht.pair_s[p]
        return S_path, m_path

    def matchings_from_states(self, S_path: np.ndarray, m_path: np.ndarray) -> list[Matching]:
        return decode_paths(self.ht, S_path, m_path)

    def monomer_profiles(self, S_path: np.ndarray, m_path: np.ndarray) -> np.ndarray:
        """Unpaired-vertex count per layer for each draw, shape (count, n)."""
        return self.ht.fiber_mono[m_path]


def decode_paths(ht, S_path: np.ndarray, m_path: np.ndarray) -> list[Matching]:
    """Decode layer paths, shape (count, n), by array lookups: the H-edges
    of each layer's fiber row and the fiber vertices of each reserved set,
    offset to the canonical edge indices of their layer."""
    n, h = S_path.shape[1], ht.h
    row_edges = np.full((len(ht.fiber_edges), max(map(len, ht.fiber_edges))), -1)
    for r, es in enumerate(ht.fiber_edges):
        row_edges[r, : len(es)] = es
    layer = np.arange(n)[:, None]
    vertical = (n - 1) * h + layer * ht.mH
    horizontal = layer * h + np.arange(h)
    reserved = ht.sbits > 0
    out = []
    for S, rows in zip(S_path, m_path):
        e = row_edges[rows]
        idxs = (e + vertical)[e >= 0].tolist() + horizontal[reserved[S]].tolist()
        out.append(Matching(frozenset(idxs)))
    return out

"""Exact Gibbs sampling of matchings by backward resolution of the transfer DP.

A matching of the cylinder decomposes layer by layer into the set S_i of
vertices matched forward by horizontal dimers and a fiber matching m_i
avoiding S_{i-1} and S_i.  The forward messages of the transfer module's
(logaddexp, +) sweep give the exact marginal weight of every partial
configuration, so the shared backward resolution (``transfer.resolve``)
turns them into the exact conditional law of (S_{i-1}, m_i) given S_i.
Sampling those pairs backward from the last layer produces draws from the
Gibbs measure itself - no Markov chain, no mixing-time question.
A ``GibbsSampler`` builds no table: it reads and sweeps one replica of a
built one (one instance: ``instance_tables``).
``matchings_from_states`` decodes the drawn paths by array lookups;
``path_matching`` decodes one path, the ground-state argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DOMAIN_GIBBS, CylinderGraph, RngSeed, WeightAssignment, rng_generator
from .transfer import NEG_INF, _tilted_W, instance_tables, messages, resolve


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


@dataclass
class HeightSeries:
    """Cumulative unpaired counts theta(t) = U_[1:floor(nt)] on a t-grid."""

    t: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray | None = None


@dataclass
class ObservableSet:
    U: int
    prefix: np.ndarray          # prefix[k] = unpaired count in layers 1..k
    height: HeightSeries


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


def observables(
    g: CylinderGraph,
    m: Matching,
    t_grid=None,
    centering: float | None = None,
) -> ObservableSet:
    """Monomer count, per-prefix counts, and the (optionally centered) height.

    With a centering constant u the scaled height (theta(t) - n t u) / sqrt(n)
    is attached; without it only the raw series is produced.
    """
    covered = m.covered_flat(g)
    per_layer = np.zeros(g.n, dtype=np.int64)
    for i in range(1, g.n + 1):
        per_layer[i - 1] = sum(
            1 for j in range(1, g.h + 1) if g.flat_index((i, j)) not in covered
        )
    prefix = np.concatenate([[0], np.cumsum(per_layer)])
    t = np.linspace(0.0, 1.0, 9) if t_grid is None else np.asarray(t_grid, dtype=float)
    theta, theta_hat = heights(per_layer[None], t, centering)
    return ObservableSet(
        U=int(prefix[-1]), prefix=prefix,
        height=HeightSeries(t, theta[0], None if theta_hat is None else theta_hat[0]),
    )


def path_matching(g: CylinderGraph, ht, S_path, rows) -> Matching:
    """The matching of one layer path: the reserved set after each layer
    (horizontal dimers into the next layer) and the fiber row of each layer."""
    idxs = [g.vertical_index(i + 1, e) for i, r in enumerate(rows) for e in ht.fiber_edges[r]]
    idxs += [g.horizontal_index(i + 1, j + 1)
             for i, S in enumerate(S_path) for j in range(g.h) if S >> j & 1]
    return Matching(frozenset(idxs))


class GibbsSampler:
    """Backward exact sampler of replica r of built tables at tilt x, with
    precomputed per-layer conditionals.

    Building it costs one forward sweep of replica r and one backward
    resolution per (layer, reserved set); afterwards each draw is a cheap
    categorical walk, so large draw counts are vectorized across draws layer
    by layer.
    """

    def __init__(self, tables: dict, r: int = 0, x: float = 0.0):
        self.n, self.h, self.ht, self.x = tables["n"], tables["h"], tables["ht"], x
        # replica r as a contiguous batch of one, so every number below is
        # the one that the replica's own instance_tables give
        one = {**tables, **{k: tables[k][..., [r]] for k in ("B", "hsum", "scores")}}
        msgs = messages(_tilted_W(one, x), one)[..., 0]
        self.log_z = float(msgs[-1, 0])
        if self.log_z == NEG_INF:
            raise ValueError("partition function vanishes; nothing to sample")
        hsum = one["hsum"][..., 0]
        scores = one["scores"][..., 0] + x * self.ht.fiber_mono[:, None]

        # for layer i and current reserved set S: the cumulative categorical
        # over the backward candidates, with their previous sets and fiber rows
        self._tables = [[None] * self.ht.states for _ in range(self.n)]
        for i in range(self.n):
            for S in range(self.ht.states if i < self.n - 1 else 1):
                logits, prev, rows = resolve(msgs, hsum, scores, self.ht, i, S)
                top = logits.max()
                if top == NEG_INF:
                    continue
                p = np.exp(logits - top)
                self._tables[i][S] = (np.cumsum(p) / p.sum(), prev, rows)

    def draw_states(self, gen: np.random.Generator, count: int):
        """Sample (S_path, m_path) for ``count`` draws, vectorized per layer.

        Returns integer arrays of shape (count, n): the reserved set after
        each layer (always 0 at the last) and the fiber row of each layer,
        which indexes ``ht.fiber_edges`` and ``ht.fiber_mono``.
        """
        n = self.n
        S_path = np.zeros((count, n), dtype=np.int64)
        m_path = np.zeros((count, n), dtype=np.int64)
        cur = np.zeros(count, dtype=np.int64)
        for i in range(n - 1, -1, -1):
            u = gen.random(count)
            nxt = np.zeros(count, dtype=np.int64)
            for S in np.unique(cur):
                sel = np.flatnonzero(cur == S)
                if self._tables[i][S] is None:
                    raise ValueError("reached a zero-weight state during sampling")
                cum, prev, rows = self._tables[i][S]
                picks = np.minimum(np.searchsorted(cum, u[sel], side="right"), len(cum) - 1)
                nxt[sel] = prev[picks]
                m_path[sel, i] = rows[picks]
            S_path[:, i] = cur
            cur = nxt
        return S_path, m_path

    def matchings_from_states(self, S_path: np.ndarray, m_path: np.ndarray) -> list[Matching]:
        """Decode draws by array lookups: the H-edges of each layer's fiber
        row and the fiber vertices of each reserved set, offset to the
        canonical edge indices of their layer (as ``path_matching`` does)."""
        n, h, ht = self.n, self.h, self.ht
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

    def monomer_profiles(self, S_path: np.ndarray, m_path: np.ndarray) -> np.ndarray:
        """Unpaired-vertex count per layer for each draw, shape (count, n)."""
        return self.ht.fiber_mono[m_path]

    def draw_matchings(self, gen: np.random.Generator, count: int) -> list[Matching]:
        return self.matchings_from_states(*self.draw_states(gen, count))


def exact_sample(
    g: CylinderGraph, w: WeightAssignment, seed: RngSeed, count: int
) -> list[Matching]:
    """Draw ``count`` independent matchings from the Gibbs measure."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    sampler = GibbsSampler(instance_tables(g, w))
    gen = rng_generator(seed, DOMAIN_GIBBS)
    return sampler.draw_matchings(gen, count)

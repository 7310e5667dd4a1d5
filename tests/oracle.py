"""Reference routes that the tests compare the package against.

Brute-force enumeration shares nothing with the transfer recursion; the
other references are kept deliberately simple (vertex removal by disabled
edges, the layer sweep over fiber-row tables that the package's vertex
recursion replaced, in LOG, MAX, the moment semiring and the degree
semiring, remainders at one tilt, the cylinder as (i, j) tuples with its
gauge weights, weighted degrees and cut bounds one at a time, edge indices
by formula) so that a fast route of the package has something independent
to agree with.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

import numpy as np

from dimerlab.graphs import CylinderGraph, WeightAssignment
from dimerlab.transfer import (
    NEG_INF, CapacityError, MonomerPolynomial, _logsumexp, _resolve_mask, check_cut,
    cut_remainders, instance_tables, partition_polynomial,
)

BRUTE_MAX_N = 22


# ---------------------------------------------------------------------------
# brute-force oracle (independent of the transfer sweep)
# ---------------------------------------------------------------------------

def enumerate_matchings(g: CylinderGraph, w: WeightAssignment, leaf, mask=None) -> None:
    """Call ``leaf(count, weight)`` once per matching of the cylinder.

    ``count`` is the number of counted monomers and ``weight`` is H(m).
    Kept deliberately simple and apart from the sweep, as the reference for
    tests: vertices are processed in canonical order and each one either
    stays a monomer or pairs with a free neighbor, which visits every
    matching exactly once.
    """
    if g.num_vertices > BRUTE_MAX_N:
        raise CapacityError(
            f"brute force supports at most {BRUTE_MAX_N} vertices, got {g.num_vertices}"
        )
    mask_flat = np.repeat(_resolve_mask(mask, g.n), g.h)   # per vertex, layer-major
    total = g.num_vertices
    nu_flat = w.nu_flat()
    adj: list[list[tuple[int, float]]] = [[] for _ in range(total)]
    for (u, v) in edges(g):
        fu, fv = flat_index(g, u), flat_index(g, v)
        wt = edge_weight(w, u, v)
        adj[fu].append((fv, wt))
        adj[fv].append((fu, wt))

    def rec(start: int, used: int, count: int, weight: float):
        v = start
        while v < total and used >> v & 1:
            v += 1
        if v == total:
            leaf(count, weight)
            return
        bit = 1 << v
        rec(v + 1, used | bit, count + int(mask_flat[v]), weight + nu_flat[v])
        for u, wt in adj[v]:
            if not used >> u & 1:
                rec(v + 1, used | bit | 1 << u, count, weight + wt)

    rec(0, 0, 0, 0.0)


def brute_force_polynomial(g: CylinderGraph, w: WeightAssignment, mask=None) -> MonomerPolynomial:
    """Monomer polynomial by enumerating every matching; the test oracle."""
    M = g.h * int(_resolve_mask(mask, g.n).sum())
    best = np.full(M + 1, NEG_INF)   # running max exponent per coefficient
    sums = np.zeros(M + 1)           # sum of exp(H - best) per coefficient

    def leaf(count: int, weight: float):
        if weight == NEG_INF:  # disabled edge or vertex; contributes nothing
            return
        b = best[count]
        if weight > b:
            sums[count] = sums[count] * np.exp(b - weight) + 1.0 if b > NEG_INF else 1.0
            best[count] = weight
        else:
            sums[count] += np.exp(weight - b)

    enumerate_matchings(g, w, leaf, mask)
    with np.errstate(divide="ignore"):
        log_coeffs = best + np.log(sums, where=sums > 0, out=np.full(M + 1, NEG_INF))
    return MonomerPolynomial(log_coeffs, N=g.num_vertices, mask_size=M)


def brute_force_max(g: CylinderGraph, w: WeightAssignment) -> float:
    """Enumeration reference for the maximum, small instances only."""
    best = NEG_INF

    def leaf(count: int, weight: float):
        nonlocal best
        best = max(best, weight)

    enumerate_matchings(g, w, leaf)
    return float(best)


# ---------------------------------------------------------------------------
# vertex removal
# ---------------------------------------------------------------------------

def kill_vertex_edges(w: WeightAssignment, vertices) -> WeightAssignment:
    """Disable every edge incident to the given vertices (-inf sentinels).

    The killed vertices are then forced monomers, so dividing out their
    monomer weight realizes vertex removal without rebuilding the graph.
    """
    g = w.g
    oh = np.array(w.omega_h, copy=True)
    ov = np.array(w.omega_v, copy=True)
    for v in vertices:
        i, j = v
        flat_index(g, v)
        if i > 1:
            oh[i - 2, j - 1] = NEG_INF
        if i < g.n:
            oh[i - 1, j - 1] = NEG_INF
        for e, (a, b) in enumerate(g.H.edges):
            if j in (a, b):
                ov[i - 1, e] = NEG_INF
    return WeightAssignment(g, w.nu, oh, ov)


def vertex_removed_polynomial(g: CylinderGraph, w: WeightAssignment, v: tuple[int, int]) -> MonomerPolynomial:
    """Monomer polynomial of the graph with one vertex deleted.

    Computed on the full graph with the incident edges disabled, which
    forces v to stay a monomer in every configuration; stripping its
    monomer factor and coefficient shift yields the polynomial of the
    deleted-vertex graph.
    """
    i, j = v
    killed = partition_polynomial(g, kill_vertex_edges(w, [v]))
    return MonomerPolynomial(killed.log_coeffs[1:] - w.nu[i - 1, j - 1], N=g.num_vertices - 1)


# ---------------------------------------------------------------------------
# the layer sweep (shares no code with the vertex recursion)
# ---------------------------------------------------------------------------

class LayerPlan:
    """The layer recursion's combinatorics of one fiber H, by enumeration.

    The state after layer i is the set S of layer-i vertices reserved for a
    horizontal dimer into layer i+1.  A transition into the next layer sums
    over the new reserved set S' disjoint from S and over the fiber
    matchings (rows) avoiding F = S | S'; leftover vertices are monomers.
    The rows of F are ``fiber_start[F]:fiber_start[F + 1]``, and the pairs
    of each new set S' are ``pair_start[S']:pair_start[S' + 1]``, their
    previous sets ``pair_s`` ascending."""

    def __init__(self, H):
        h, S = H.h, 1 << H.h
        self.h, self.states, self.mH = h, S, len(H.edges)
        sets = np.arange(S)
        self.sbits = (sets[:, None] >> np.arange(h) & 1).astype(float)
        rows, starts = [], [0]
        for F in range(S):
            def rec(e, used, chosen):
                if e == len(H.edges):
                    rows.append((chosen, used))
                    return
                rec(e + 1, used, chosen)
                a, b = H.edges[e]
                pair = 1 << (a - 1) | 1 << (b - 1)
                if not used & pair:
                    rec(e + 1, used | pair, chosen + (e,))

            rec(0, F, ())
            starts.append(len(rows))
        self.fiber_edges = [chosen for chosen, _ in rows]
        self.fiber_start = np.array(starts)
        self.row_edges = np.zeros((len(rows), self.mH))
        for r, chosen in enumerate(self.fiber_edges):
            self.row_edges[r, list(chosen)] = 1.0
        self.row_mono = self.sbits[[(S - 1) & ~used for _, used in rows]]
        self.fiber_mono = self.row_mono.sum(axis=1).astype(np.int64)
        self.pair_next, self.pair_s = np.nonzero((sets[:, None] & sets) == 0)
        self.pair_f = self.pair_s | self.pair_next
        self.pair_start = np.searchsorted(self.pair_next, np.arange(S + 1))


def _indicator_sum(sel, arr):
    """sum_j sel[m, j] arr[r, i, j], laid out [m, i, r]; a -inf weight makes
    every sum it enters -inf."""
    cols = arr.transpose(2, 1, 0)
    out = np.zeros((len(sel),) + cols.shape[1:])
    for j, col in enumerate(cols):
        out[sel[:, j] > 0] += col
    return out


def layer_tables(tables: dict) -> dict:
    """The layer tables of the weights of ``tables``: per fiber row, layer
    and replica the row's vertical dimers plus its monomers,
    ``scores[row, i, r]``; their log-sum-exp over the rows of forbidden set
    F that leave d monomers, ``B[d, i, F, r]``; and the horizontal weight of
    reserved set S at cut k, ``hsum[k, S, r]``."""
    lp = LayerPlan(tables["H"])
    nu, oh, ov = tables["nu"], tables["oh"], tables["ov"]
    R, n, h = nu.shape
    scores = _indicator_sum(lp.row_edges, ov) + _indicator_sum(lp.row_mono, nu)
    B = np.full((h + 1, n, lp.states, R), NEG_INF)
    for F in range(lp.states):
        rows = np.arange(lp.fiber_start[F], lp.fiber_start[F + 1])
        for d in np.unique(lp.fiber_mono[rows]):
            B[d, :, F] = _logsumexp(scores[rows[lp.fiber_mono[rows] == d]].copy(), axis=0)
    hsum = _indicator_sum(lp.sbits, oh).swapaxes(0, 1)
    return {"B": B, "hsum": hsum, "scores": scores, "lp": lp, "n": n, "h": h}


def _join(v, cut, w):
    return v + cut + w


class Semiring(NamedTuple):
    """Arithmetic of a layer sweep: ``plus(t, lp)`` sums the terms ``t[...,
    p, :]`` of each new reserved set over the pairs p of ``lp``, and
    ``times(v, cut, w)`` joins a previous message with the cut's
    horizontal weight and the layer weight."""

    plus: Callable
    times: Callable = _join


def _reducing(ufunc):
    return lambda t, lp: ufunc.reduceat(t, lp.pair_start[:-1], axis=-2)


LOG = Semiring(_reducing(np.logaddexp))
MAX = Semiring(_reducing(np.maximum))


def _moment_times(v, cut, w):
    t = v + w
    t[0] += cut
    return t


def _moment_plus(t, lp):
    """(log Z, mean, variance) on the leading axis, merged over each set's
    pairs with the softmax weights of their log channel."""
    add = _reducing(np.add)
    top = _reducing(np.maximum)(t[0], lp)
    top[top == NEG_INF] = 0.0
    e = np.exp(t[0] - top[..., lp.pair_next, :])
    total, mean = add(e, lp), add(e * t[1], lp)
    out = np.empty((3,) + top.shape)
    with np.errstate(divide="ignore"):
        out[0] = np.log(total) + top
    total[total == 0.0] = 1.0
    out[1] = mean / total
    dev = t[1] - out[1][..., lp.pair_next, :]
    out[2] = add(e * (t[2] + dev * dev), lp) / total
    return out


MOMENT = Semiring(_moment_plus, _moment_times)


def sweep(W, hsum, lp, semiring=LOG):
    """Yield the forward message ``[..., S, r]`` after each layer of ``W[i][...,
    F, r]``; layer 0 of ``W``, a sequence, may be an earlier message to
    continue."""
    v = W[0]
    yield v
    for i in range(1, len(W)):
        s, f = lp.pair_s, lp.pair_f
        v = semiring.plus(semiring.times(v[..., s, :], hsum[i - 1][s], W[i][..., f, :]), lp)
        yield v


def _last(messages):
    return deque(messages, maxlen=1)[0]


def moment_W(lt: dict, x: float, mask=None) -> np.ndarray:
    """Layer weights at tilt x of the layers that ``mask`` counts,
    ``W[i, c, F, r]``: the log-sum-exp over d of B[d] + x d (channel 0) and
    the mean and variance of d under the law proportional to its exp."""
    B = lt["B"]
    nd, n, S, R = B.shape
    tilt = x * np.arange(nd)[:, None, None, None]
    if mask is not None:
        tilt = tilt * _resolve_mask(mask, n)[:, None, None]
    e = B + tilt
    top = e.max(axis=0)
    top[top == NEG_INF] = 0.0
    e = np.exp(e - top)
    total = e.sum(axis=0)
    out = np.empty((n, 3, S, R))
    with np.errstate(divide="ignore"):
        out[:, 0] = top + np.log(total)
    total[total == 0.0] = 1.0
    d = np.arange(nd)[:, None, None, None]
    out[:, 1] = (d * e).sum(axis=0) / total
    out[:, 2] = ((d - out[:, 1]) ** 2 * e).sum(axis=0) / total
    return out


def max_W(lt: dict) -> np.ndarray:
    """Layer weights of the (max, +) sweep, ``W[i, F, r]``: the best fiber row of each block."""
    s, start = lt["scores"], lt["lp"].fiber_start
    return np.stack([s[a:b].max(axis=0) for a, b in zip(start[:-1], start[1:])], axis=1)


def messages(W, lt, semiring=LOG, flipped=False):
    """The messages after every layer, stacked ``[i, ..., S, r]``; with
    ``flipped``, of the sweep over the layers read from the last."""
    hsum = lt["hsum"]
    if flipped:
        W, hsum = W[::-1], hsum[::-1]
    return np.stack(list(sweep(W, hsum, lt["lp"], semiring)))


def layer_cut_moments(tables: dict, k: int, x: float = 0.0):
    """``cut_moments`` from two moment sweeps over the layer tables, forward
    over layers 1..k and over the flipped layers n..k+1, mixed over the
    reserved set of cut k."""
    lt = layer_tables(tables)
    check_cut(k, lt["n"])
    W, hsum, lp = moment_W(lt, x), lt["hsum"], lt["lp"]
    fw = _last(sweep(W[:k], hsum, lp, MOMENT))
    bw = _last(sweep(W[k:][::-1], hsum[k:][::-1], lp, MOMENT))
    logp = fw[0] + hsum[k - 1] + bw[0]
    top = logp.max(axis=0)
    pi = np.exp(logp - top)
    total = pi.sum(axis=0)
    pi /= total
    mean_l, mean_r = (pi * fw[1]).sum(axis=0), (pi * bw[1]).sum(axis=0)
    d_l, d_r = fw[1] - mean_l, bw[1] - mean_r
    var_l, var_r = (pi * (fw[2] + d_l * d_l)).sum(axis=0), (pi * (bw[2] + d_r * d_r)).sum(axis=0)
    cov = (pi * d_l * d_r).sum(axis=0)
    return np.log(total) + top, mean_l + mean_r, var_l + var_r + 2.0 * cov, var_l, var_r, cov


def layer_max_values(tables: dict) -> np.ndarray:
    """The maximum per replica from the (max, +) layer sweep."""
    lt = layer_tables(tables)
    return _last(sweep(max_W(lt), lt["hsum"], lt["lp"], MAX))[0]


def layer_cut_remainders(tables: dict, name: str = "log", x: float = 0.0) -> np.ndarray:
    """``cut_remainders`` from a forward and a flipped layer sweep in LOG at
    tilt x, or in MAX (``name`` "max")."""
    lt = layer_tables(tables)
    semiring = MAX if name == "max" else LOG
    W = max_W(lt) if name == "max" else moment_W(lt, x)[:, 0]
    pre, suf = (messages(W, lt, semiring, flipped)[:, 0] for flipped in (False, True))
    return pre[-1] - pre[:-1] - suf[-2::-1]


def batch_scalar_log_z(tables: dict, x: float = 0.0, mask=None) -> np.ndarray:
    """log Z per replica at tilt x of the monomers that ``mask`` counts, from
    one sequential LOG layer sweep."""
    lt = layer_tables(tables)
    return _last(sweep(moment_W(lt, x, mask)[:, 0], lt["hsum"], lt["lp"]))[0]


# ---------------------------------------------------------------------------
# the layer degree sweep
# ---------------------------------------------------------------------------

def degree_semiring(M: int) -> Semiring:
    """(logaddexp, truncated log-convolution) over the counted monomer count.

    Messages and layer weights carry log coefficients over degrees on their
    leading axis; ``times`` convolves the two and keeps the degrees 0..M
    that a coefficient vector can reach.  A layer weight that vanishes at
    degree d for every replica skips that pair.
    """

    def times(v, cut, w):
        v = v + cut
        D, nd = v.shape[0], w.shape[0]
        out = np.full((min(D + nd - 1, M + 1),) + v.shape[1:], NEG_INF)
        for d in range(nd):
            k = min(D, out.shape[0] - d)
            live = np.flatnonzero((w[d] > NEG_INF).any(axis=-1))
            out[d : d + k, live] = np.logaddexp(out[d : d + k, live], v[:k, live] + w[d, live])
        return out

    return Semiring(LOG.plus, times)


def prefix_laws(tables: dict):
    """Yield the log coefficients ``[j, r]`` of the count on layers 1..k,
    k = 1..n, from the layer degree sweep: its message after layer k at
    the empty reserved set."""
    lt = layer_tables(tables)
    for v in sweep(lt["B"].swapaxes(0, 1), lt["hsum"], lt["lp"], degree_semiring(lt["h"] * lt["n"])):
        yield v[:, 0]


def layer_increment_laws(tables: dict, cuts) -> list:
    """``increment_laws`` from layer tables: per increment a+1..b, a sweep
    of ``degree_semiring`` over the layers B[d, i, F] of the increment,
    seeded by the forward LOG message at a > 0 and closed against the
    flipped one at b < n; the reference for the vertex recursion."""
    lt = layer_tables(tables)
    n, h, lp, hsum = lt["n"], lt["h"], lt["lp"], lt["hsum"]
    B = lt["B"].swapaxes(0, 1)   # B[i, d, F, r]
    W = moment_W(lt, 0.0)[:, 0]
    fw, bw = (messages(W, lt, LOG, flipped) for flipped in (False, True))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        layers, cut_h = (B[:b], hsum) if a == 0 else ([fw[a - 1][None], *B[a:b]], hsum[a - 1 :])
        v = _last(sweep(layers, cut_h, lp, degree_semiring(h * (b - a))))
        out.append(v[:, 0] if b == n else
                   _logsumexp(np.moveaxis(v + hsum[b - 1] + bw[n - b - 1], 1, -1).copy()))
    return out


# ---------------------------------------------------------------------------
# remainders
# ---------------------------------------------------------------------------

def remainder_R(g: CylinderGraph, w: WeightAssignment, x: float = 0.0) -> np.ndarray:
    """Superadditivity gaps log Z - log Z_[1:k] - log Z_[k+1:n] at tilt x,
    for every cut k = 1..n-1 (entry k-1)."""
    return cut_remainders(instance_tables(g, w), x=x)[:, 0]


def remainder_upper_bound(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Sum of 1 + |gauge weight| over the edges of cut k (disabled edges add
    0; an edge between -inf vertices, of gauge weight +inf, adds +inf)."""
    z = cut_gauge_weights(w, k)
    return float(np.sum(1.0 + np.abs(z[z > NEG_INF])))


def ground_remainder_bound(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Sum of the positive parts of the gauge weights of the edges of cut k,
    the bound of the ground-state remainder, one cut at a time."""
    z = cut_gauge_weights(w, k)
    return float(np.sum(np.clip(z[z > NEG_INF], 0.0, None)))


# ---------------------------------------------------------------------------
# the cylinder as tuples: vertices (i, j), edges, neighbours and gauge weights
# ---------------------------------------------------------------------------

def vertices(g: CylinderGraph) -> list:
    """Every vertex (i, j), layer-major: in flat-index order."""
    return [(i, j) for i in range(1, g.n + 1) for j in range(1, g.h + 1)]


def flat_index(g: CylinderGraph, v) -> int:
    i, j = v
    if not (1 <= i <= g.n and 1 <= j <= g.h):
        raise ValueError(f"vertex {v} outside {g.n}x{g.h} cylinder")
    return (i - 1) * g.h + (j - 1)


def edges(g: CylinderGraph) -> list:
    """Every edge (u, v) in canonical order: the horizontal block by (cut,
    fiber), then the vertical block by (layer, H-edge)."""
    return ([((k, j), (k + 1, j)) for k in range(1, g.n) for j in range(1, g.h + 1)]
            + [((i, a), (i, b)) for i in range(1, g.n + 1) for a, b in g.H.edges])


def neighbors(g: CylinderGraph, v) -> list:
    """The neighbours of v: the layers before and after, then the fiber
    neighbours in ascending order, which is the order of their H-edges."""
    i, j = v
    flat_index(g, v)
    out = [(i + d, j) for d in (-1, 1) if 1 <= i + d <= g.n]
    return out + sorted((i, b if a == j else a) for a, b in g.H.edges if j in (a, b))


def edge_weight(w: WeightAssignment, u, v) -> float:
    """The weight of the edge u-v (raises if u-v is not an edge)."""
    (i, j), (ii, jj) = sorted((u, v))
    if j == jj and ii == i + 1:
        return w.omega_h[i - 1, j - 1]
    if i == ii and (min(j, jj), max(j, jj)) in w.g.H.edges:
        return w.omega_v[i - 1, w.g.H.edges.index((min(j, jj), max(j, jj)))]
    raise ValueError(f"{u}-{v} is not an edge of the cylinder")


def gauge_weight(w: WeightAssignment, u, v) -> float:
    """omega - nu_u - nu_v of the edge u-v: a horizontal edge subtracts the
    endpoint weights one at a time, a vertical edge their sum; a disabled
    (-inf) edge stays -inf."""
    omega = edge_weight(w, u, v)
    if omega == NEG_INF:
        return omega
    nu_u, nu_v = (w.nu[i - 1, j - 1] for i, j in sorted((u, v)))
    return omega - nu_u - nu_v if u[0] != v[0] else omega - (nu_u + nu_v)


def cut_gauge_weights(w: WeightAssignment, k: int) -> np.ndarray:
    """The gauge weights of the horizontal edges of cut k, by fiber."""
    check_cut(k, w.g.n)
    return np.array([gauge_weight(w, (k, j), (k + 1, j)) for j in range(1, w.g.h + 1)])


def weighted_degree(w: WeightAssignment, v) -> float:
    """Sum of exp(gauge weight) over the edges at v, in neighbour order."""
    total = 0.0
    for u in neighbors(w.g, v):
        total += float(np.exp(gauge_weight(w, u, v)))
    return total


def localization_reference(w: WeightAssignment) -> float:
    """The largest weighted degree, vertex by vertex."""
    return max(weighted_degree(w, v) for v in vertices(w.g))


def unpaired(g: CylinderGraph, m) -> list:
    """The vertices that no edge of the matching of edge indices ``m`` covers."""
    all_edges = edges(g)
    covered = {x for e in m for x in all_edges[int(e)]}
    return [v for v in vertices(g) if v not in covered]


# ---------------------------------------------------------------------------
# canonical edge indices
# ---------------------------------------------------------------------------

def horizontal_index(g: CylinderGraph, k: int, j: int) -> int:
    """Canonical index of the edge (k, j)-(k+1, j)."""
    if not (1 <= k < g.n and 1 <= j <= g.h):
        raise ValueError(f"no horizontal edge at cut {k}, fiber {j}")
    return (k - 1) * g.h + (j - 1)


def vertical_index(g: CylinderGraph, i: int, h_edge: int) -> int:
    """Canonical index of the i-th copy of H edge number ``h_edge``."""
    m = len(g.H.edges)
    if not (1 <= i <= g.n and 0 <= h_edge < m):
        raise ValueError(f"no vertical edge at layer {i}, H-edge {h_edge}")
    return g.num_horizontal + (i - 1) * m + h_edge

"""Reference routes that the tests compare the package against.

Brute-force enumeration shares nothing with the transfer sweep; the other
references are kept deliberately simple (vertex removal by disabled edges,
the sequential LOG sweep, the layer degree sweep, remainders at one tilt,
edge indices by formula) so that a fast route of the package has something
independent to agree with.
"""
from __future__ import annotations

import numpy as np

from dimerlab.graphs import CylinderGraph, WeightAssignment
from dimerlab.transfer import (
    LOG, NEG_INF, CapacityError, MonomerPolynomial, Semiring, _last, _logsumexp, _moment_W,
    _resolve_mask, check_cut, cut_remainders, instance_tables, messages, partition_polynomial,
    sweep,
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
    for (u, v) in g.edge_list():
        fu, fv = g.flat_index(u), g.flat_index(v)
        wt = w.omega_of(u, v)
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
        g.flat_index(v)
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
# the tilt collapses over every monomer count d
# ---------------------------------------------------------------------------

def full_moment_W(tables: dict, x: float, mask=None) -> np.ndarray:
    """``_moment_W`` from the law of d over every count of every set, each d
    summed elementwise in order: the reference for its direct columns."""
    B = tables["B"]
    nd, n, S, R = B.shape
    tilt = x * np.arange(nd)[:, None, None, None]
    if mask is not None:
        tilt = tilt * _resolve_mask(mask, n)[:, None, None]
    e = B + tilt
    top = e.max(axis=0)
    top[top == NEG_INF] = 0.0
    e = np.exp(e - top)
    total = sum(e[1:], e[0])
    out = np.empty((n, 3, S, R))
    with np.errstate(divide="ignore"):
        out[:, 0] = top + np.log(total)
    total[total == 0.0] = 1.0
    out[:, 1] = sum((d * e[d] for d in range(2, nd)), e[1]) / total
    out[:, 2] = sum((d - out[:, 1]) ** 2 * e[d] for d in range(nd)) / total
    return out


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


def layer_increment_laws(tables: dict, cuts) -> list:
    """``increment_laws`` from layer tables: per increment a+1..b, a sweep
    of ``degree_semiring`` over the layers B[d, i, F] of the increment,
    seeded by the forward LOG message at a > 0 and closed against the
    flipped one at b < n; the reference for the vertex recursion."""
    n, h, ht, hsum = tables["n"], tables["h"], tables["ht"], tables["hsum"]
    B = tables["B"].swapaxes(0, 1)   # B[i, d, F, r]
    W = _moment_W(tables, 0.0)[:, 0]
    fw, bw = (messages(W, tables, LOG, flipped) for flipped in (False, True))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        layers, cut_h = (B[:b], hsum) if a == 0 else ([fw[a - 1][None], *B[a:b]], hsum[a - 1 :])
        v = _last(sweep(layers, cut_h, ht, degree_semiring(h * (b - a))))
        out.append(v[:, 0] if b == n else
                   _logsumexp(np.moveaxis(v + hsum[b - 1] + bw[n - b - 1], 1, -1).copy()))
    return out


# ---------------------------------------------------------------------------
# the sequential LOG sweep, remainders
# ---------------------------------------------------------------------------

def batch_scalar_log_z(tables: dict, x: float = 0.0, mask=None) -> np.ndarray:
    """log Z per replica at tilt x of the monomers that ``mask`` counts, from
    one sequential LOG sweep: the reference for the blocked ``scalar_log_z``."""
    return _last(sweep(_moment_W(tables, x, mask)[:, 0], tables["hsum"], tables["ht"]))[0]


def remainder_R(g: CylinderGraph, w: WeightAssignment, x: float = 0.0) -> np.ndarray:
    """Superadditivity gaps log Z - log Z_[1:k] - log Z_[k+1:n] at tilt x,
    for every cut k = 1..n-1 (entry k-1)."""
    tables = instance_tables(g, w)
    return cut_remainders(_moment_W(tables, x)[:, 0], tables)[:, 0]


def remainder_upper_bound(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Sum of 1 + |gauge weight| over the edges of cut k (disabled edges add
    0; an edge between -inf vertices, of gauge weight +inf, adds +inf)."""
    check_cut(k, g.n)
    z = w.gauge_h[k - 1]
    return float(np.sum(1.0 + np.abs(z[z > NEG_INF])))


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

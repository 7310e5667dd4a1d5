"""Exact partition-function computations by transfer over layers.

The central object is the monomer-count polynomial

    Z(x) = sum_j a_j exp(j x),

where a_j collects exp(H(m)) over all matchings m with j unpaired vertices
on the counted layers: every layer, or the layer range k..l of a
``CountingMask``.  All coefficient arithmetic is done in log space so that
instances with hundreds of layers stay inside float64 range.

The DP state after layer i is the set S of layer-i vertices reserved for a
horizontal dimer into layer i+1.  A transition into layer i+1 sums over the
new reserved set S', the horizontal dimers dictated by S, and all matchings
of the fiber graph avoiding S and S'; leftover vertices are monomers.

One forward ``sweep`` runs this recursion for every consumer and takes its
arithmetic as a ``Semiring``:

* ``LOG`` = (logaddexp, +) fixes the tilt x and carries one number per
  state: the log Z of one instance and the forward messages of the
  sampler and of the increment laws;
* ``MAX`` = (max, +) gives ground-state values (see ``groundstate``);
* ``_moment_semiring`` carries, next to log Z, the Gibbs mean and variance
  of one count, the monomer count: ``times`` adds them, ``plus`` merges
  the terms of a state with their softmax weights in the parallel-variance
  form, so ``cut_moments`` gives exact cumulants, with no finite
  differences (the first- and second-order expectation semiring of Li &
  Eisner, EMNLP 2009);
* ``_degree_semiring`` = (logaddexp, truncated log-convolution over the
  counted monomer count) keeps the full coefficient vector (capped by
  ``check_polynomial_caps``), enabling exact cumulants and Lee-Yang spectra.

Every route builds its tables with ``batch_tables`` (one instance:
``instance_tables``), which refuses fibers of more than ``SCALAR_MAX_H``
vertices, so that cap holds for single instances, campaigns and ground states.
The tables are functions of the weights alone, layer-major with the replica
axis last, ``B[d, i, F, r]``, ``hsum[k, S, r]`` and ``scores[row, i, r]``,
and every consumer reads them in place: the tilt collapses reduce over the
leading d axis, a set of contiguous blocks, and the sweep takes layer i as
the block ``W[i]``, gathers its transition pairs along the state axis and
sums each new reserved set's segment with ``reduceat`` along that axis.  A
single instance is replica 0, ``[..., 0]``.

A counting mask is a view applied where the d axis collapses:
``_tilted_W`` tilts only the counted layers, and the coefficients of layers
k..l are the increment k-1..l of ``increment_laws`` below.

The recursion runs backward in two stages over the same pairs and rows.
Given the reserved set S after layer i, stage 1 picks the previous set S'
among the pairs ``pair_start[S]:pair_start[S + 1]`` by their terms
(``backward_terms``), and stage 2 the fiber row of F = S | S' among
``fiber_start[F]:fiber_start[F + 1]`` by its score.  Under LOG messages
these are exact conditional laws (forward filtering, backward sampling:
Carter & Kohn, Biometrika 1994; see ``sampler``); under MAX their first
argmaxes continue an optimal path (Viterbi backtracking, ``groundstate``).

A route builds one table and reads views of it.  ``messages`` stacks the
messages of a forward sweep, or of the sweep over the layer-flipped table
(``W[::-1]``, ``hsum[::-1]``).  The forward message at the empty reserved
set after layer k is the value of layers 1..k, and the flipped one gives
that of layers k+1..n: ``cut_remainders`` turns the two into the
remainders V - V[1:k] - V[k+1:n] of every cut.  The gauge to zero
vertex weights that the Lee-Yang spectra need is the coefficient shift
``MonomerPolynomial.monic``, not a second table.

Given the reserved set at a cut, the two sections of the cylinder are
independent (forward-backward).  ``cut_moments`` runs the moment semiring
forward over layers 1..k and over the layer-flipped tables of layers
k+1..n, and mixes the two messages over the reserved set of cut k: the
section variances and their covariance come out directly, with no
polarization.  The same factorisation (forward-backward, Rabiner, Proc.
IEEE 1989) gives the exact law of the count on every increment a+1..b of
a grid of cuts: ``increment_laws`` starts a degree sweep from the stacked
forward LOG message after layer a, runs it over the increment's layers
only, and closes it against the stacked flipped message at cut b.  One
forward and one flipped pass serve every increment, and the degree sweeps
cover n layers in all.  It is the only route to coefficients: a whole
cylinder is the increment 0..n, which needs neither pass.

Batched routes sweep layer by layer, so a campaign row does not depend on
its chunk.  The log Z of a single instance, ``scalar_log_z``, is a blocked
LOG sweep instead (the scan of Blelloch, 1990, in the temporal form of
Sarkka & Garcia-Fernandez, IEEE TAC 2021): about sqrt(n) blocks of about
sqrt(n) layers run as the columns of one sweep, which gives every block's
matrix between the reserved sets at its two ends, and the matrices are
combined from the empty set.  It agrees with the sequential sweep to a
tolerance, not bit for bit, and is more exact at large n, as no partial
value grows past one block.  Where blocking does not pay (``_log_blocks``)
it is the sequential sweep.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .graphs import CylinderGraph, HGraph, WeightAssignment

POLY_MAX_H = 6
POLY_MAX_N = 1024
SCALAR_MAX_H = 12

NEG_INF = -np.inf


class CapacityError(ValueError):
    """An instance exceeds a documented size cap."""


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` by a max shift, overwriting ``a``; -inf slices stay -inf."""
    top = a.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    a -= top
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a, out=a).sum(axis=axis)) + top.squeeze(axis)


# ---------------------------------------------------------------------------
# counting masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingMask:
    """Layers lo..hi (1-based, inclusive) whose unpaired vertices the tilt
    counts; ``hi = None`` runs to the last layer."""

    lo: int = 1
    hi: int | None = None

    @classmethod
    def layer_range(cls, k: int, l: int) -> "CountingMask":
        if k < 1 or l < k:
            raise ValueError(f"bad layer range [{k}:{l}]")
        return cls(k, l)


def _resolve_mask(mask, n: int) -> np.ndarray:
    """1.0 on the layers of an n-layer cylinder that ``mask`` counts (None:
    every layer), 0.0 on the others."""
    if not isinstance(mask, (CountingMask, type(None))):
        raise TypeError(f"a counting mask is a CountingMask, got {type(mask).__name__}")
    mask = mask or CountingMask()
    hi = n if mask.hi is None else mask.hi
    if not 1 <= mask.lo <= hi <= n:
        raise ValueError(f"layer range [{mask.lo}:{hi}] not inside [1:{n}]")
    out = np.zeros(n)
    out[mask.lo - 1 : hi] = 1.0
    return out


# ---------------------------------------------------------------------------
# monomer-count polynomials
# ---------------------------------------------------------------------------

class MonomerPolynomial:
    """Coefficients of Z(x) = sum_j a_j exp(j x), stored as log a_j.

    ``N`` is the vertex count of the generating graph and ``mask_size`` the
    number of counted vertices; the coefficient index j runs from 0 to
    ``mask_size``.  Entries equal to -inf mark vanishing coefficients.
    """

    def __init__(self, log_coeffs, N: int, mask_size: int | None = None):
        lc = np.asarray(log_coeffs, dtype=float)
        if mask_size is None:
            mask_size = lc.size - 1
        if lc.size != mask_size + 1:
            raise ValueError(f"need {mask_size + 1} coefficients, got {lc.size}")
        if np.isnan(lc).any() or (lc == np.inf).any():
            raise ValueError("log coefficients contain NaN or +inf")
        self.log_coeffs = lc
        self.N = int(N)
        self.mask_size = int(mask_size)

    def log_z(self, x: float = 0.0) -> float:
        return float(_logsumexp(self.log_coeffs + np.arange(self.mask_size + 1) * x))

    def pmf(self, x: float = 0.0) -> np.ndarray:
        """Distribution of the masked monomer count under the Gibbs measure."""
        lw = self.log_coeffs + np.arange(self.mask_size + 1) * x
        top = lw.max()
        if top == NEG_INF:
            raise ValueError("all coefficients vanish; empty Gibbs measure")
        p = np.exp(lw - top)
        return p / p.sum()

    def cumulants(self, x: float = 0.0, order: int = 2) -> tuple[float, ...]:
        """First cumulants of the masked monomer count (order up to 4)."""
        if not 1 <= order <= 4:
            raise ValueError(f"cumulant order must be 1..4, got {order}")
        p = self.pmf(x)
        j = np.arange(self.mask_size + 1, dtype=float)
        k1 = float(p @ j)
        out = [k1]
        if order >= 2:
            c = j - k1
            m2 = float(p @ c**2)
            out.append(m2)
        if order >= 3:
            out.append(float(p @ c**3))
        if order >= 4:
            m4 = float(p @ c**4)
            out.append(m4 - 3.0 * m2**2)
        return tuple(out)

    def monic(self) -> "MonomerPolynomial":
        """The polynomial of the gauged weights, log a_j - log a_N: moving every
        vertex weight to zero divides Z by the all-monomer weight a_N = exp(sum nu)."""
        if self.mask_size != self.N or self.log_coeffs[-1] == NEG_INF:
            raise ValueError("no monic form: the all-monomer coefficient is not counted"
                             " (partial mask) or vanishes (a vertex weight is -inf)")
        return MonomerPolynomial(self.log_coeffs - self.log_coeffs[-1], self.N, self.mask_size)

    def to_payload(self) -> dict:
        return {
            "N": self.N,
            "mask_size": self.mask_size,
            "log_coeffs": [None if v == NEG_INF else float(v) for v in self.log_coeffs],
        }

    def __repr__(self):
        return f"MonomerPolynomial(N={self.N}, mask_size={self.mask_size})"


# ---------------------------------------------------------------------------
# fiber matching tables (combinatorial structure, cached per H)
# ---------------------------------------------------------------------------

def _fiber_rows(H: HGraph) -> list:
    """For each forbidden set F, the matchings of H that avoid F, as
    (H-edge indices, covered vertices | F), read from one enumeration of
    the matchings of H: edge by edge, a matching without the edge before
    the one with it."""
    matchings = [((), 0)]
    for e, (a, b) in enumerate(H.edges):
        pair = 1 << (a - 1) | 1 << (b - 1)
        grown = []
        for chosen, used in matchings:
            grown.append((chosen, used))
            if not used & pair:
                grown.append((chosen + (e,), used | pair))
        matchings = grown
    return [[(chosen, used | F) for chosen, used in matchings if not used & F]
            for F in range(1 << H.h)]


class _HTables:
    def __init__(self, H: HGraph):
        h = H.h
        self.h = h
        self.states = 1 << h
        self.mH = len(H.edges)
        sets = np.arange(self.states)
        self.sbits = (sets[:, None] >> np.arange(h) & 1).astype(float)

        # the fiber matchings avoiding each forbidden set F; flattened over F,
        # they are the rows fiber_start[F]:fiber_start[F + 1]
        fiber_rows = _fiber_rows(H)
        rows = [row for F_rows in fiber_rows for row in F_rows]
        self.fiber_edges = [chosen for chosen, _ in rows]   # per row: tuple of H-edge indices
        self.fiber_start = np.cumsum([0] + [len(F_rows) for F_rows in fiber_rows], dtype=np.intp)
        self.row_f = np.repeat(sets, np.diff(self.fiber_start))
        self.row_edges = np.zeros((len(rows), self.mH))     # (rows, mH) 0/1
        for r, chosen in enumerate(self.fiber_edges):
            self.row_edges[r, list(chosen)] = 1.0
        # (rows, h) 0/1: a monomer is a vertex neither in F nor covered
        self.row_mono = self.sbits[[(self.states - 1) & ~used for _, used in rows]]
        self.fiber_mono = self.row_mono.sum(axis=1).astype(np.int64)
        # the rows, ascending, of each (monomer count d, forbidden set F) group of B[d, :, F]
        per_F = np.split(np.arange(self.fiber_start[-1]), self.fiber_start[1:-1])
        self.groups = [(d, F, rows[self.fiber_mono[rows] == d])
                       for F, rows in enumerate(per_F) for d in np.unique(self.fiber_mono[rows])]

        # disjoint pairs p of the set pair_s[p] before a layer and pair_next[p]
        # after it, for segmented reductions in the layer transition: the pairs
        # of S are pair_start[S]:pair_start[S + 1], their sets pair_s ascending
        self.pair_next, self.pair_s = np.nonzero((sets[:, None] & sets) == 0)
        self.pair_f = self.pair_s | self.pair_next
        self.pair_start = np.searchsorted(self.pair_next, np.arange(self.states + 1))


@lru_cache(maxsize=64)
def _h_tables(H: HGraph) -> _HTables:
    return _HTables(H)


# ---------------------------------------------------------------------------
# per-instance weight tables (batched over replicas)
# ---------------------------------------------------------------------------

def _indicator_sum(sel: np.ndarray, arr) -> np.ndarray:
    """sum_j sel[m, j] arr[r, i, j] for a 0/1 selector and a batch of
    weights, laid out [m, i, r].

    A row of at most two terms has one rounding whatever the order, so one
    matrix product gives those rows.  Longer rows take an einsum over the
    contiguous last axis of ``arr``, numpy's order whatever the layout of
    the result.  -inf entries (disabled weights) are zeroed out of the
    sums, where 0 * -inf would be NaN, and re-imposed on every sum they
    enter.
    """
    arr = np.asarray(arr, dtype=float)
    R, n, J = arr.shape
    arr_t = arr.transpose(2, 1, 0).reshape(J, n * R)
    dead = arr_t == NEG_INF
    any_dead = dead.any()
    if any_dead:
        arr, arr_t = np.where(arr == NEG_INF, 0.0, arr), np.where(dead, 0.0, arr_t)
    out = (sel @ arr_t).reshape(len(sel), n, R)
    long = np.flatnonzero(sel.sum(axis=1) > 2)
    if long.size:
        part = np.empty((long.size, n, R))
        np.einsum("mj,rij->rmi", sel[long], arr, out=part.transpose(2, 0, 1))
        out[long] = part
    if any_dead:
        out[(sel @ dead).reshape(out.shape) > 0.5] = NEG_INF
    return out


def _rows_logsumexp(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """log-sum-exp of the fiber rows ``rows`` of ``scores``, summed one row at
    a time in ascending order, so no sum depends on the shape of the batch;
    a single row is itself."""
    if rows.size == 1:
        return scores[rows[0]]
    top = scores[rows].max(axis=0)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(sum(np.exp(scores[row] - top) for row in rows)) + top


def check_transfer_cap(h: int) -> None:
    """Refuse a fiber of h vertices too large for the transfer tables."""
    if h > SCALAR_MAX_H:
        raise CapacityError(f"transfer supports fiber size h <= {SCALAR_MAX_H}, got h={h}")


def batch_tables(g: CylinderGraph, nu_b, oh_b, ov_b) -> dict:
    """Layer-transition tables for a batch of R weight assignments.

    The tables depend on the weights alone; a counting mask is applied
    where a consumer collapses the d axis.  Every array is layer-major with
    the replica axis last and C-contiguous, the layout the sweeps read in
    place:

    * ``B[d, i, F, r]`` aggregates (log-sum-exp) the fiber blocks of layer i
      with forbidden set F over the matchings leaving exactly d monomers in
      the fiber (the rows of ``ht.groups``); shape (h + 1, n, 2^h, R);
    * ``hsum[k, S, r]`` is the total horizontal dimer weight of reserved set
      S at cut k (0-based, cut k joins layers k and k + 1); shape
      (n - 1, 2^h, R);
    * ``scores[row, i, r]`` is the block score of every fiber row (rows of F
      are ``ht.fiber_start[F]:fiber_start[F + 1]``, and row ``row`` leaves
      ``ht.fiber_mono[row]`` monomers), shape (rows, n, R), for the
      backward step, which picks individual fiber matchings (exact
      sampling, ground-state argmax).

    One instance is replica 0: ``[..., 0]``.
    """
    check_transfer_cap(g.h)
    ht = _h_tables(g.H)
    R, n, h = np.shape(nu_b)
    # every fiber row's vertical dimers plus its monomers, per layer and replica
    scores = _indicator_sum(ht.row_edges, ov_b)
    scores += _indicator_sum(ht.row_mono, nu_b)
    B = np.full((h + 1, n, ht.states, R), NEG_INF)
    for d, F, rows in ht.groups:
        B[d, :, F] = _rows_logsumexp(scores, rows)
    hsum = np.ascontiguousarray(_indicator_sum(ht.sbits, oh_b).swapaxes(0, 1))
    return {"B": B, "hsum": hsum, "scores": scores, "ht": ht, "n": n, "h": h}


def instance_tables(g: CylinderGraph, w: WeightAssignment) -> dict:
    """``batch_tables`` of one weight assignment, as a batch of one."""
    if w.g != g:
        raise ValueError("weight assignment belongs to a different graph")
    return batch_tables(g, w.nu[None], w.omega_h[None], w.omega_v[None])


def _tilted_W(tables: dict, x: float, mask=None) -> np.ndarray:
    """Collapse the d axis: W[i, F, r] = lse_d(B[d, i, F, r] + x d) on the layers
    that ``mask`` counts (None: every layer), lse_d B[d, i, F, r] on the others."""
    B = tables["B"]
    tilt = x * np.arange(B.shape[0])[:, None, None, None]
    if mask is not None:
        tilt = tilt * _resolve_mask(mask, tables["n"])[:, None, None]
    return _logsumexp(B + tilt, axis=0)


def _moment_W(tables: dict, x: float) -> np.ndarray:
    """Layer weights of the moment semiring at tilt x, ``W[i, c, F, r]``.

    Channel c = 0 holds the tilted weight W, c = 1 and 2 the mean and
    variance of the layer's monomer count d under the law
    proportional to exp(B[d, ...] + x d).  The exponentials of the
    log-sum-exp are the weights of that law, so each is taken once, in
    place, on contiguous blocks of ``B``.
    """
    B = tables["B"]
    nd, n, F, R = B.shape
    out = np.empty((n, 3, F, R))
    log_w, mean, var = out[:, 0], out[:, 1], out[:, 2]
    e = B + x * np.arange(nd)[:, None, None, None]
    top = e.max(axis=0, out=log_w)
    top[top == NEG_INF] = 0.0
    e -= top
    np.exp(e, out=e)
    total = e.sum(axis=0)
    with np.errstate(divide="ignore"):
        log_w += np.log(total)
    total[total == 0.0] = 1.0
    # the sums of d e[d] and e[d] (d - mean)^2 accumulate in the order d = 0, 1, ...
    mean[:] = e[1]
    for d in range(2, nd):
        mean += d * e[d]
    mean /= total
    var[:] = 0.0
    for d in range(nd):
        dev = d - mean
        dev *= dev
        dev *= e[d]
        var += dev
    var /= total
    return out


# ---------------------------------------------------------------------------
# the layer recursion, forward and backward
# ---------------------------------------------------------------------------

def _join(v, cut, w):
    return v + cut + w


class Semiring(NamedTuple):
    """Arithmetic of a layer sweep.

    ``plus(t, starts)`` sums the terms ``t[..., starts[j]:starts[j + 1], :]``
    of each new reserved set j over the previous reserved sets (``starts``
    is ``ht.pair_start[:-1]``); ``times(v, cut, w)`` joins a previous
    message with the horizontal weight of the cut and the layer weight.
    """

    plus: Callable
    times: Callable = _join


LOG = Semiring(partial(np.logaddexp.reduceat, axis=-2))
MAX = Semiring(partial(np.maximum.reduceat, axis=-2))


def _degree_semiring(M: int) -> Semiring:
    """(logaddexp, truncated log-convolution) over the counted monomer count.

    Messages and layer weights carry log coefficients over degrees on their
    leading axis; ``times`` convolves the two and keeps the degrees 0..M
    that a coefficient vector can reach.  A layer weight that vanishes at
    degree d for every replica skips that pair, which most pairs do for
    most d.
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

    return Semiring(partial(np.logaddexp.reduceat, axis=-2), times)


def _moment_semiring(ht: _HTables) -> Semiring:
    """(log Z, mean, variance) of one count on the leading channel axis, as
    in ``_moment_W``.

    ``times`` adds the log weights, the means and the variances; the cut
    weight, which may be -inf, enters the log channel only.  ``plus`` merges
    the terms of a segment with softmax weights q of their log channel:
    mean = sum q mean_t and var = sum q (var_t + (mean_t - mean)^2).  A
    segment of -inf terms keeps log Z = -inf and zero moments.
    """

    def times(v, cut, w):
        t = v + w
        t[0] += cut
        return t

    def plus(t, starts):
        out = np.empty((3, starts.size) + t.shape[2:])
        log_z, mean, var = out
        top = np.maximum.reduceat(t[0], starts, axis=0)
        top[top == NEG_INF] = 0.0
        e = np.exp(t[0] - top[ht.pair_next])
        total = np.add.reduceat(e, starts, axis=0)
        with np.errstate(divide="ignore"):
            np.add(np.log(total), top, out=log_z)
        total[total == 0.0] = 1.0
        np.divide(np.add.reduceat(e * t[1], starts, axis=0), total, out=mean)
        dev = t[1] - mean[ht.pair_next]
        np.divide(np.add.reduceat(e * (t[2] + dev * dev), starts, axis=0), total, out=var)
        return out

    return Semiring(plus, times)


def sweep(W: np.ndarray, hsum: np.ndarray, ht: _HTables, semiring: Semiring = LOG):
    """Yield the forward message after each layer, in ``semiring``.

    ``W[i][..., F, r]`` weighs layer i with forbidden set F and
    ``hsum[k, S, r]`` the horizontal dimers of reserved set S at cut k;
    ``W[i]`` may carry leading axes that the semiring's ``times`` consumes.
    Layer 0 of ``W``, a sequence, may be an earlier sweep's message to continue.
    Message i, indexed ``[..., S, r]``, aggregates every configuration of
    layers 0..i that ends in reserved set S, so message n-1 at S = 0 is the
    whole instance.  Messages are produced one at a time; callers keep what
    they need.
    """
    v = W[0]
    yield v
    starts = ht.pair_start[:-1]
    for i in range(1, len(W)):
        t = semiring.times(v[..., ht.pair_s, :], hsum[i - 1][ht.pair_s], W[i][..., ht.pair_f, :])
        v = semiring.plus(t, starts)
        yield v


def _last(messages) -> np.ndarray:
    return deque(messages, maxlen=1)[0]


def messages(W: np.ndarray, tables: dict, semiring: Semiring = LOG, flipped: bool = False) -> np.ndarray:
    """The messages of the sweep of ``W`` after every layer, stacked
    ``[i, ..., S, r]``, so ``[k - 1, 0]`` is the value of layers 1..k; with
    ``flipped``, of the sweep over the layer-flipped view, so ``[n - k - 1,
    0]`` is the value of layers k+1..n from the empty reserved set at cut k."""
    hsum = tables["hsum"]
    if flipped:
        W, hsum = W[::-1], hsum[::-1]
    return np.stack(list(sweep(W, hsum, tables["ht"], semiring)))


def backward_weights(msgs: np.ndarray, hsum: np.ndarray) -> np.ndarray:
    """``a[i, S']``, the weight of reserved set S' before layer i in one
    instance's backward step: msgs[i - 1] + hsum[i - 1] from its messages and
    horizontal sums; a[0] is the identity, as only S' = 0 precedes layer 0."""
    a = np.full_like(msgs, NEG_INF)
    a[0, 0] = 0.0
    np.add(msgs[:-1], hsum, out=a[1:])
    return a


def backward_terms(a: np.ndarray, W: np.ndarray, ht: _HTables, S: int, i=slice(None)) -> np.ndarray:
    """Stage-1 terms ``a[i, pair_s[p]] + W[i, pair_f[p]]`` of the pairs p of
    reserved set S, ``pair_start[S]:pair_start[S + 1]``, at layer i (default:
    every layer), from ``backward_weights`` and layer weights in its semiring."""
    pairs = slice(ht.pair_start[S], ht.pair_start[S + 1])
    return a[i, ht.pair_s[pairs]] + W[i, ht.pair_f[pairs]]


def check_cut(k: int, n: int) -> None:
    """Refuse a cut k that does not split n layers into two nonempty sections."""
    if not 1 <= k < n:
        raise ValueError(f"cut k={k} must satisfy 1 <= k < n={n}")


def cut_moments(tables: dict, k: int, x: float = 0.0):
    """log Z, mean_U, var_U, var_left, var_right and cov at cut k: the
    monomer count U of all layers and its sections L (layers 1..k)
    and U - L (layers k+1..n) under the measure tilted by x; six arrays
    with one entry per replica.

    A forward moment sweep over layers 1..k and one over the layer-flipped
    view of layers n..k+1 of the same table
    meet at the reserved set S of cut k.  Given S the two sections are
    independent, so with pi[S] proportional to fw[S] exp(h_k[S]) bw[S],
    h_k[S] the horizontal weight of S at cut k, and d = m - mean, the
    section laws mix over S: var_L = sum pi (v_L + d_L^2), and
    cov = sum pi d_L d_R directly, never as a difference of variances.
    """
    n, ht, hsum = tables["n"], tables["ht"], tables["hsum"]
    check_cut(k, n)
    W, semiring = _moment_W(tables, x), _moment_semiring(ht)
    fw = _last(sweep(W[:k], hsum, ht, semiring))
    bw = _last(sweep(W[k:][::-1], hsum[k:][::-1], ht, semiring))
    # mix replica-major: each sum over S then runs along one contiguous row,
    # whose order of additions does not depend on the batch size
    fw, bw, cut = (np.ascontiguousarray(a.swapaxes(-1, -2)) for a in (fw, bw, hsum[k - 1]))
    logp = fw[0] + cut + bw[0]
    top = logp.max(axis=1)
    top[top == NEG_INF] = 0.0
    pi = np.exp(logp - top[:, None])
    total = pi.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_z = np.log(total) + top
    # normalised by its own sum, which exp(logp - log_z) is not to rounding
    pi /= np.where(total > 0.0, total, 1.0)[:, None]
    mean_l, mean_r = (pi * fw[1]).sum(axis=1), (pi * bw[1]).sum(axis=1)
    d_l, d_r = fw[1] - mean_l[:, None], bw[1] - mean_r[:, None]
    var_l = (pi * (fw[2] + d_l * d_l)).sum(axis=1)
    var_r = (pi * (bw[2] + d_r * d_r)).sum(axis=1)
    cov = (pi * d_l * d_r).sum(axis=1)
    return log_z, mean_l + mean_r, var_l + var_r + 2.0 * cov, var_l, var_r, cov


# ---------------------------------------------------------------------------
# single instances
# ---------------------------------------------------------------------------

def check_polynomial_caps(n: int, h: int) -> None:
    """Refuse a cylinder of n layers of h vertices too large for coefficient polynomials."""
    if h > POLY_MAX_H or n > POLY_MAX_N:
        raise CapacityError(
            f"polynomials support fiber size h <= {POLY_MAX_H} and n <= {POLY_MAX_N}"
            f" layers, got h={h}, n={n}"
        )


# a degree sweep's layer terms stay under this many numbers (128 KB) per block of replicas
_POLY_BLOCK = 1 << 14


def increment_laws(tables: dict, cuts) -> list[np.ndarray]:
    """Log coefficients ``[j, r]`` of j monomers on layers a+1..b, for each
    pair (a, b) of consecutive ``cuts`` and every replica (see the module
    docstring): a degree sweep over the increment's layers, seeded by the
    forward LOG message at a cut a > 0 and closed against the flipped one at
    a cut b < n.  The replicas run in blocks whose sweep terms stay under
    ``_POLY_BLOCK`` numbers, and no sum depends on the block or the batch."""
    n, h, ht = tables["n"], tables["h"], tables["ht"]
    check_polynomial_caps(n, h)
    cuts = [int(c) for c in cuts]
    if len(cuts) < 2 or cuts[0] < 0 or cuts[-1] > n or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"cuts {cuts} must strictly increase inside [0:{n}]")
    pairs = list(zip(cuts, cuts[1:]))
    step = max(1, _POLY_BLOCK // ((h * max(b - a for a, b in pairs) + 1) * ht.pair_s.size))
    out = [[] for _ in pairs]
    for r in range(0, tables["B"].shape[-1], step):
        block = {**tables, "B": tables["B"][..., r : r + step], "hsum": tables["hsum"][..., r : r + step]}
        hsum, B = block["hsum"], block["B"].swapaxes(0, 1)   # B[i, d, F, r]
        if any(0 < c < n for c in cuts):
            W = _tilted_W(block, 0.0)
            fw, bw = (messages(W, block, LOG, flipped) for flipped in (False, True))
        for (a, b), laws in zip(pairs, out):
            layers, cut_h = (B[:b], hsum) if a == 0 else ([fw[a - 1][None], *B[a:b]], hsum[a - 1 :])
            v = _last(sweep(layers, cut_h, ht, _degree_semiring(h * (b - a))))
            # close replica-major: each sum over S runs along one contiguous row
            laws.append(v[:, 0] if b == n else
                        _logsumexp(np.moveaxis(v + hsum[b - 1] + bw[n - b - 1], 1, -1).copy()))
    return [np.concatenate(laws, axis=-1) for laws in out]


def partition_polynomial(g: CylinderGraph, w: WeightAssignment, mask=None) -> MonomerPolynomial:
    """Exact monomer-count polynomial of the Gibbs partition function, counting
    the layers k..l of ``mask`` (None: every layer): the increment k-1..l."""
    counted = np.flatnonzero(_resolve_mask(mask, g.n))   # layers k-1..l-1, 0-based
    (lc,) = increment_laws(instance_tables(g, w), [counted[0], counted[-1] + 1])
    return MonomerPolynomial(lc[:, 0], N=g.num_vertices, mask_size=g.h * counted.size)


# the shortest cylinder, per fiber size h, whose blocked LOG sweep measured
# faster than the sequential one; larger fibers always sweep sequentially, as
# their block matrices cost 2^h times the sequential sweep's work per layer
_BLOCKED_MIN_N = {1: 16, 2: 16, 3: 128}


def _log_blocks(n: int, h: int) -> int:
    """How many blocks the single-instance LOG sweep of n layers of h
    vertices runs in: about sqrt(n) where blocking pays, else 1."""
    return math.isqrt(n) if n >= _BLOCKED_MIN_N.get(h, n + 1) else 1


def _blocked_log_z(W: np.ndarray, hsum: np.ndarray, ht: _HTables, K: int) -> float:
    """log Z of replica 0 of ``W[i, F, r]`` and ``hsum[k, S, r]`` from a LOG
    sweep over K blocks of L = ceil(n / K) layers at once.

    Step j of the sweep is layer j of every block, with the blocks as its
    columns; the message carries the reserved set S0 at the cut before the
    block on a leading axis, starting from the identity, so the last message
    is every block's s x s matrix.  Layers past n pass the value at S = 0
    through unchanged (weight 0 at F = 0, -inf elsewhere).  The matrices are
    then combined from the empty set, each partial value shifted by its
    maximum so it stays the size of one block, and the shifts summed exactly.
    K = 1 is the sequential sweep.
    """
    if K == 1:
        return float(_last(sweep(W, hsum, ht))[0, 0])
    W, hsum = W[..., 0], hsum[..., 0]
    n, s = W.shape
    L = -(-n // K)
    K = -(-n // L)
    Wp = np.full((K * L, s), NEG_INF)
    Wp[:n] = W
    Wp[n:, 0] = 0.0
    cuts = np.zeros((K * L, s))   # row j: the cut before layer j
    cuts[1:n] = hsum
    eye = np.full((s, s, K), NEG_INF)
    eye[np.arange(s), np.arange(s)] = 0.0
    # [step, S, block] views; the sweep's layer 0 is the identity
    M = _last(sweep([eye, *Wp.reshape(K, L, s).transpose(1, 2, 0)],
                    cuts.reshape(K, L, s).transpose(1, 2, 0), ht))
    v = np.full(s, NEG_INF)
    v[0] = 0.0
    shifts = []
    for b in range(K):
        v = _logsumexp(v[:, None] + M[..., b], axis=0)
        top = v.max()
        if top > NEG_INF:
            v -= top
            shifts.append(top)
    return math.fsum([*shifts, v[0]])


def scalar_log_z(g: CylinderGraph, w: WeightAssignment, x: float = 0.0, mask=None) -> float:
    """log Z at a fixed tilt without materializing coefficients, by the
    blocked LOG sweep (see the module docstring)."""
    tables = instance_tables(g, w)
    return _blocked_log_z(_tilted_W(tables, x, mask), tables["hsum"], tables["ht"],
                          _log_blocks(g.n, g.h))


# ---------------------------------------------------------------------------
# remainders
# ---------------------------------------------------------------------------

def cut_remainders(W: np.ndarray, tables: dict, semiring: Semiring = LOG) -> np.ndarray:
    """V - V_[1:k] - V_[k+1:n] for every cut k = 1..n-1 (entry ``[k - 1, r]``).

    ``W`` weighs the layers of ``tables`` in ``semiring``, whose message at
    the empty reserved set after layer k is the value V of layers 1..k; the
    same sweep over the layer-flipped table gives the values of the
    suffixes, so one forward and one flipped sweep serve every cut.
    """
    pre, suf = (messages(W, tables, semiring, flipped)[:, 0] for flipped in (False, True))
    return pre[-1] - pre[:-1] - suf[-2::-1]


def section_covariance(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Cov of the monomer counts of layers [1:k] and [k+1:n] by polarization,
    from the laws of both sections and of all layers over one table."""
    check_cut(k, g.n)
    tables = instance_tables(g, w)
    laws = increment_laws(tables, [0, k, g.n]) + increment_laws(tables, [0, g.n])
    var_l, var_r, var_all = (MonomerPolynomial(lc[:, 0], g.num_vertices).cumulants()[1] for lc in laws)
    return 0.5 * (var_all - var_l - var_r)

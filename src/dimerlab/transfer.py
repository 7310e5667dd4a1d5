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
* ``MOMENT`` carries, next to log Z, the Gibbs mean and variance
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
and every consumer reads them in place: the tilt collapses write the sets
whose fiber rows all leave one monomer count directly and reduce the others
over the leading d axis, and the sweep takes layer i as the block ``W[i]``,
gathers its transition pairs along the state axis and sums each new
reserved set's segment along that axis.  A step with many numbers per
pair (a batch, or the blocks of ``scalar_log_z``) sums the segments in rank
blocks, one slice op per rank j holding the j-th pair of every set; a
single instance's sequential sweep and a fiber of more than 3 vertices use
``reduceat``, with the same bits (see ``Semiring``).  A single instance is
replica 0, ``[..., 0]``.

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
from functools import lru_cache
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


# Rank blocks reproduce reduceat's association only while a segment has at
# most 8 terms: numpy adds a longer one pairwise.  The largest segment, of
# the empty set, has 2^h terms.
_RANK_MAX_H = 3
# the smallest per-pair term block (leading axes x replicas) at which rank
# blocks measured faster than reduceat
_RANK_MIN_BLOCK = 64


class _ReduceAt:
    """Terms in pair order, the pairs of S at ``pair_start[S]:pair_start[S + 1]``;
    ``reducer(ufunc, t)`` reduces each set's segment along axis -2 with
    ``ufunc.reduceat``, one inner loop per (set, column)."""

    def __init__(self, ht: "_HTables"):
        self.s, self.f, self.next = ht.pair_s, ht.pair_f, ht.pair_next
        self.starts = ht.pair_start[:-1]

    def __call__(self, ufunc, t: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(t, self.starts, axis=-2)


class _RankBlocks:
    """Terms in rank-major order: block j holds the j-th pair of every set
    that has one, the sets by decreasing segment length (popcount order, the
    identity for h <= 2), so they are a prefix of the sets and each block
    folds into a prefix of the result with one slice op.

    ``reducer(ufunc, t)`` gives ``_ReduceAt``'s bits: max and logaddexp fold
    left to right, and add sums the first term and the left-to-right sum of
    the others, as numpy's reduce loop and its pairwise sum below 8 terms do.
    """

    def __init__(self, ht: "_HTables"):
        length = np.diff(ht.pair_start)                  # 2^(h - popcount S) pairs of S
        rank = np.argsort(-length, kind="stable")
        counts = [int((length > j).sum()) for j in range(length.max())]   # sets with a j-th pair
        pairs = np.concatenate([ht.pair_start[rank[:c]] + j for j, c in enumerate(counts)])
        self.s, self.f, self.next = ht.pair_s[pairs], ht.pair_f[pairs], ht.pair_next[pairs]
        ends = np.cumsum(counts)
        # the terms of block j along axis -2, and the prefix of sets it folds into
        self.blocks = [((..., slice(e - c, e), slice(None)), (..., slice(c), slice(None)))
                       for e, c in zip(ends, counts)]
        self.order = None if (rank == np.arange(rank.size)).all() else np.argsort(rank)

    def __call__(self, ufunc, t: np.ndarray) -> np.ndarray:
        (first, _), *later = self.blocks
        acc = t[first].copy()
        if ufunc is np.add and len(later) > 1:
            (second, prefix), *rest = later
            tail = t[second].copy()
            _fold(np.add, tail, t, rest)
            acc[prefix] += tail
        else:
            _fold(ufunc, acc, t, later)
        return acc if self.order is None else acc[..., self.order, :]


def _fold(ufunc, acc: np.ndarray, t: np.ndarray, blocks) -> None:
    """Fold rank blocks of ``t`` into prefixes of ``acc``, left to right."""
    for terms, prefix in blocks:
        ufunc(acc[prefix], t[terms], out=acc[prefix])


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
        self.reduce_at = _ReduceAt(self)
        self.rank_blocks = _RankBlocks(self) if h <= _RANK_MAX_H else None

        # the sets F whose fiber rows all leave one monomer count d, as
        # (d, sets) per d, and the others with every count that one of them
        # reaches: the tilt collapses write the first directly and sum over d
        # only on the others
        counts = [np.unique(self.fiber_mono[rows]) for rows in per_F]
        single = np.array([c[0] if c.size == 1 else -1 for c in counts])
        self.one_count = [(d, np.flatnonzero(single == d)) for d in range(h + 1) if (single == d).any()]
        self.mixed = np.flatnonzero(single < 0)
        self.mixed_counts = np.unique(self.fiber_mono[np.isin(self.row_f, self.mixed)])

    def reducer(self, block: int):
        """The segment reducer of a sweep step whose reductions carry
        ``block`` numbers per transition pair (leading axes x replicas)."""
        if self.rank_blocks is not None and block >= _RANK_MIN_BLOCK:
            return self.rank_blocks
        return self.reduce_at


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
    that ``mask`` counts (None: every layer), lse_d B[d, i, F, r] on the others.

    A set F whose fiber rows all leave d monomers (``ht.one_count``) has
    W = B[d, :, F] + x d, written directly; the others sum over the counts
    they reach (``_collapse``), with the same bits as a sum over every d.
    """
    B, ht = tables["B"], tables["ht"]
    _, n, S, R = B.shape
    m = None if mask is None else _resolve_mask(mask, n)[:, None, None]

    def tilt(d):
        return x * d if m is None else x * d * m

    W = np.empty((n, S, R))
    for d, sets in ht.one_count:
        # + 0.0 as log(1) adds it in the log-sum-exp: a -0.0 tilt leaves no -0.0
        W[:, sets] = B[d][:, sets] + (tilt(d) + 0.0)
    if ht.mixed.size:
        W[:, ht.mixed] = _collapse(B, ht, tilt, moments=False)
    return W


def _moment_W(tables: dict, x: float) -> np.ndarray:
    """Layer weights of the moment semiring at tilt x, ``W[i, c, F, r]``.

    Channel c = 0 holds the tilted weight W, c = 1 and 2 the mean and
    variance of the layer's monomer count d under the law proportional to
    exp(B[d, ...] + x d).  A set whose fiber rows all leave d monomers has
    W = B[d] + x d, mean d and variance 0 (mean 0 where B is -inf); the
    others collapse over the counts they reach (``_collapse``).
    """
    B, ht = tables["B"], tables["ht"]
    _, n, S, R = B.shape
    out = np.empty((n, 3, S, R))
    for d, sets in ht.one_count:
        w = B[d][:, sets] + (x * d + 0.0)
        out[:, 0, sets] = w
        out[:, 1, sets] = np.where(w == NEG_INF, 0.0, float(d))
        out[:, 2, sets] = 0.0
    if ht.mixed.size:
        for c, a in enumerate(_collapse(B, ht, lambda d: x * d, moments=True)):
            out[:, c, ht.mixed] = a
    return out


def _collapse(B: np.ndarray, ht: _HTables, tilt: Callable, moments: bool):
    """Over the counts d of ``ht.mixed_counts`` and the sets of ``ht.mixed``,
    ``[i, set, r]``: the log-sum-exp of e[d] = B[d] + tilt(d), and with
    ``moments`` the mean and variance of d under the law proportional to
    exp(e[d]).  The counts ascend, and every sum runs over them left to
    right, elementwise, whatever the shape of ``B``; a count no fiber row of
    these sets reaches would add an exact 0 and is left out.
    """
    ds = ht.mixed_counts
    e = np.empty((ds.size, B.shape[1], ht.mixed.size, B.shape[3]))
    for ed, d in zip(e, ds):
        np.take(B[d], ht.mixed, axis=1, out=ed)
        ed += tilt(d)
    top = e.max(axis=0)
    top[top == NEG_INF] = 0.0
    e -= top
    np.exp(e, out=e)
    total = e[0].copy()
    for ed in e[1:]:
        total += ed
    with np.errstate(divide="ignore"):
        log_w = np.log(total) + top
    if not moments:
        return log_w
    total[total == 0.0] = 1.0
    mean = np.zeros_like(total)
    for d, ed in zip(ds, e):
        mean += d * ed
    mean /= total
    var = np.zeros_like(total)
    for d, ed in zip(ds, e):
        dev = d - mean
        dev *= dev
        dev *= ed
        var += dev
    var /= total
    return log_w, mean, var


# ---------------------------------------------------------------------------
# the layer recursion, forward and backward
# ---------------------------------------------------------------------------

def _join(v, cut, w):
    return v + cut + w


class Semiring(NamedTuple):
    """Arithmetic of a layer sweep.

    ``plus(t, reducer)`` sums the terms ``t[..., p, :]`` of each new
    reserved set over the previous reserved sets; the pairs p lie along
    axis -2 in the reducer's order (``reducer.s``, ``reducer.f`` and
    ``reducer.next``), and ``reducer(ufunc, t)`` reduces their segments.
    Where each reduction carries at least ``_RANK_MIN_BLOCK`` numbers per
    pair (leading axes x replicas) and h <= 3, the reducer folds rank blocks
    with one slice op each; else it is ``reduceat``, whose inner loop runs
    once per (set, column).  The two give the same bits, so no value
    depends on the batch.  ``times(v, cut, w)`` joins a previous message
    with the horizontal weight of the cut and the layer weight.
    ``channels`` is the length of a leading message axis whose entries
    ``plus`` reduces apart (the moment semiring's log Z, mean and variance).
    """

    plus: Callable
    times: Callable = _join
    channels: int = 1


def _reducing(ufunc) -> Callable:
    return lambda t, reducer: reducer(ufunc, t)


LOG = Semiring(_reducing(np.logaddexp))
MAX = Semiring(_reducing(np.maximum))


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

    return Semiring(_reducing(np.logaddexp), times)


def _moment_times(v, cut, w):
    t = v + w
    t[0] += cut
    return t


def _moment_plus(t, reducer):
    top = reducer(np.maximum, t[0])
    top[top == NEG_INF] = 0.0
    # the softmax weights e and e * mean_t, reduced in one call
    q = np.empty((2,) + t.shape[1:])
    e = np.exp(np.subtract(t[0], top[reducer.next], out=q[0]), out=q[0])
    np.multiply(e, t[1], out=q[1])
    total, mean = reducer(np.add, q)
    out = np.empty((3,) + top.shape)
    with np.errstate(divide="ignore"):
        np.add(np.log(total), top, out=out[0])
    total[total == 0.0] = 1.0
    np.divide(mean, total, out=out[1])
    dev = t[1] - out[1][reducer.next]
    np.divide(reducer(np.add, e * (t[2] + dev * dev)), total, out=out[2])
    return out


# (log Z, mean, variance) of one count on the leading channel axis, as in
# ``_moment_W``.  ``times`` adds the log weights, the means and the
# variances; the cut weight, which may be -inf, enters the log channel only.
# ``plus`` merges the terms of a segment with softmax weights q of their log
# channel: mean = sum q mean_t and var = sum q (var_t + (mean_t - mean)^2).
# A segment of -inf terms keeps log Z = -inf and zero moments.
MOMENT = Semiring(_moment_plus, _moment_times, channels=3)


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
    for i in range(1, len(W)):
        red = ht.reducer(v.size // (v.shape[-2] * semiring.channels))
        t = semiring.times(v[..., red.s, :], hsum[i - 1][red.s], W[i][..., red.f, :])
        v = semiring.plus(t, red)
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
    W = _moment_W(tables, x)
    fw = _last(sweep(W[:k], hsum, ht, MOMENT))
    bw = _last(sweep(W[k:][::-1], hsum[k:][::-1], ht, MOMENT))
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

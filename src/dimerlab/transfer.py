"""Exact partition-function computations by transfer, one vertex at a time.

The central object is the monomer-count polynomial

    Z(x) = sum_j a_j exp(j x),

where a_j collects exp(H(m)) over all matchings m with j unpaired vertices
on the counted layers: every layer, or the layer range k..l of a
``CountingMask``.  All arithmetic is done in log space so that instances
with hundreds of layers stay inside float64 range.

Every quantity comes from one recursion, the transfer method built one
fiber vertex at a time (``_vertex_sweep``; Baxter, *Exactly Solved
Models*, 1982, ch. 1; Friedland & Peled, Adv. Appl. Math. 34, 2005).  Its
state is a bitmask over the h fiber vertices: bit b holds the reservation
of vertex b of layer i-1 for a horizontal dimer into layer i until vertex
(i, b) is processed, and the "open" flag of (i, b) after it.  The vertex
closes the horizontal dimer reserved at cut i-1, is a monomer, opens, or
closes a fiber edge to an open earlier vertex; the vertices still open
after the layer are its reserved set at the next cut.  Every step is
elementwise over the 2^h states and the replicas and reads the weights
``nu``, ``omega_h`` and ``omega_v`` themselves, so no row of a batch
depends on the batch.  The recursion takes its arithmetic as a class:

* ``LOG`` = (logaddexp, +), the log of a sum per state: the log Z of one
  instance (``scalar_log_z``), the values of ``cut_remainders``, the
  messages of the sampler and the seeds of ``increment_laws``;
* ``MAX`` = (max, +), the ground-state values (see ``groundstate``);
* ``MOMENT``, next to log Z the Gibbs mean and variance of the monomer
  count, merged in the parallel-variance form, so that ``cut_moments``
  gives exact cumulants, with no finite differences; ``SCALED``, the same
  with Z in linear form, rescaled per column after every layer, which
  ``cut_moments`` runs where a certificate shows no term left float64's
  range, and MOMENT for the other replicas;
* ``DEGREE``, the log coefficients over the monomer count, of which a
  monomer is a shift by one: the exact count laws and the Lee-Yang spectra
  (capped by ``check_polynomial_caps``).

``batch_tables`` (one instance: ``instance_tables``) refuses fibers of more
than ``SCALAR_MAX_H`` vertices, so that cap holds for single instances,
campaigns and ground states, and keeps a batch's weights with the vertex
plan of its fiber.  A single instance is replica 0, ``[..., 0]``.  The
replicas of a batch, whose number ``replicas_per_batch`` reads off a model
of the bytes a batch holds (``batch_bytes``) and one budget,
``BATCH_BYTES``, are the last axis of every message.  A counting mask tilts
the monomers of its layers only, and the coefficients of layers k..l are
the increment k-1..l of ``increment_laws`` below.

Given the reserved set at a cut, the two sections of the cylinder are
independent (forward-backward, Rabiner, Proc. IEEE 1989).  The flipped
recursion runs over the layers from the last, the weights read backward
as views, and its message at the empty set after its k-th layer is the
value of the last k layers: ``cut_remainders`` turns it and the forward
one into the remainders V - V[1:k] - V[k+1:n] of every cut.  A forward
pass and its flipped twin run as one recursion (``_both_ways``): the
flipped weights stack after the forward ones as R more columns, so the
pair costs the ufunc calls of one sweep, which at small batches is most
of its time.  ``cut_moments`` runs MOMENT forward over layers 1..k and
flipped over layers n..k+1, together over the layers they share, and
mixes the two messages over the reserved set of cut k: the section
variances and their covariance come out directly, with no polarization.
``increment_laws`` gives the exact law of the count on
every increment a+1..b of a grid of cuts: DEGREE starts from the stacked
forward LOG message after layer a, runs over the increment's layers only,
and closes against the stacked flipped message at cut b.  One forward and
one flipped pass serve every increment, and the DEGREE recursions cover n
layers in all, each over every replica of the batch it is given, so that
``replicas_per_batch`` sizes the coefficient route as it does every other.
It is the only route to coefficients: a whole cylinder is the increment
0..n, which needs neither pass.  The gauge to zero vertex weights that the
Lee-Yang spectra need is the coefficient shift ``MonomerPolynomial.monic``.

The backward step (``move_terms``) reads the recursion in reverse, one
vertex at a time, from the message kept after every vertex of one sweep
over the batch.  Given the state after vertex (i, b), the move into it is
the unique opening, or one of a monomer, the close of the horizontal
dimer reserved at cut i-1 and the fiber dimers to open earlier vertices.
Under LOG their weights are the move's exact conditional law (forward
filtering, backward sampling: Carter & Kohn, Biometrika 1994; see
``sampler``); under MAX their first largest continues an optimal
configuration (Viterbi backtracking, ``groundstate``).

The log Z of a single instance, ``scalar_log_z``, is a blocked LOG
recursion (the scan of Blelloch, 1990, in the temporal form of Sarkka &
Garcia-Fernandez, IEEE TAC 2021): about sqrt(n) blocks of about sqrt(n)
layers run as the columns of one recursion whose message carries the
reserved set at the start of its block on a leading axis, which gives
every block's matrix between the reserved sets at its two ends, and the
matrices are combined from the empty set.  It agrees with the sequential
recursion to a tolerance, not bit for bit, and is more exact at large n,
as no partial value grows past one block.  Where blocking does not pay
(``_log_blocks``) it is the sequential recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .graphs import CylinderGraph, HGraph, WeightAssignment

POLY_MAX_H = 6
POLY_MAX_N = 1024
SCALAR_MAX_H = 12

NEG_INF = -np.inf
LN2 = math.log(2.0)


class CapacityError(ValueError):
    """An instance exceeds a documented size cap."""


class EmptyMeasureError(ValueError):
    """Replicas of a batch of R (indices ``replicas``) have no matching of
    finite weight: an empty Gibbs measure, with no moment, maximum, draw or
    remainder."""

    def __init__(self, replicas: np.ndarray, R: int):
        super().__init__(f"replica {replicas[0]} has no matching of finite weight"
                         f" ({replicas.size} of {R}): empty Gibbs measure")
        self.replicas = replicas


def check_nonempty(values: np.ndarray) -> np.ndarray:
    """``values``, a value per replica (log Z or the maximum), after refusing
    the replicas where it is -inf: the rule of every batched consumer."""
    empty = np.flatnonzero(values == NEG_INF)
    if empty.size:
        raise EmptyMeasureError(empty, values.size)
    return values


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
        """The mean of the masked monomer count, and at order 2 its variance."""
        if order not in (1, 2):
            raise ValueError(f"cumulant order must be 1 or 2, got {order}")
        p = self.pmf(x)
        j = np.arange(self.mask_size + 1, dtype=float)
        mean = float(p @ j)
        return (mean,) if order == 1 else (mean, float(p @ (j - mean) ** 2))

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
# the vertex recursion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _vertex_plan(H: HGraph) -> tuple:
    """The views of ``_vertex_sweep`` into the states of its message,
    each as the (shape, index) of ``_merged``: per layer parity p and fiber
    vertex b (0-based), the half of bit b that the step keeps (index p),
    the half it rewrites (1 - p), and per fiber edge e from an earlier
    vertex a to b the source (b and a at p) and the target (b and a at
    1 - p).  The plan is built once per fiber, so no sweep merges axes."""
    h = H.h

    def at(*bits):   # read as one axis per fiber vertex, axis h-1-c holding bit c of the state
        idx = [slice(None)] * h
        for c, x in bits:
            idx[h - 1 - c] = x
        return _merged(tuple(idx))

    return tuple(tuple((at((b, p)), at((b, 1 - p)),
                        tuple((e, at((b, p), (a - 1, p)), at((b, 1 - p), (a - 1, 1 - p)))
                              for e, (a, c) in enumerate(H.edges) if c == b + 1))
                       for b in range(h)) for p in (0, 1))


def _merged(idx: tuple) -> tuple:
    """A plan index, an int or a full slice per bit axis, as a shape of the
    state axis and an index into it that merge every run of free bit axes
    into one axis: the same states, as a view of as few axes as can be."""
    shape, sub = [], []
    for x in idx:
        if isinstance(x, slice) and sub and isinstance(sub[-1], slice):
            shape[-1] *= 2
        else:
            shape.append(2)
            sub.append(x)
    return tuple(shape), tuple(sub)


class LOG:
    """(logaddexp, +): per state the log of a sum of weights.

    The arithmetic of a ``_vertex_sweep``: an instance holds one sweep's
    message ``flat[S, ...]``, started from ``v``; ``view(merged)`` gives the
    states at a plan view as ``times`` and ``fold`` take them,
    ``times(a, w)`` weighs the states ``a`` by w in place, and ``fold(a,
    src, w, count)`` adds into ``a`` the states of ``src`` weighted by w
    with ``count`` more monomers.  Weights broadcast against the last axis
    (the replicas, or the blocks).  ``layer()`` ends every layer, and the
    sweep returns ``result(msg)`` of its message in state order."""

    name, plus = "log", np.logaddexp

    def __init__(self, v: np.ndarray, h: int, L: int):
        self.flat = v.copy()

    def view(self, merged):
        shape, sub = merged
        return self.flat.reshape(shape + self.flat.shape[1:])[sub]

    def times(self, a, w):
        a += w

    def fold(self, a, src, w, count):
        self.plus(a, src + w, out=a)

    def layer(self):
        pass

    def result(self, msg):
        return msg


class MAX(LOG):
    """(max, +): per state the largest weight of a configuration."""

    name, plus = "max", np.maximum


class MOMENT(LOG):
    """Per state the log Z, mean and variance of the monomer count, on axis
    1 of the message ``v[S, c, r]`` (the first- and second-order expectation
    semiring of Li & Eisner, EMNLP 2009), held channel-major, so that a
    view's mean and variance are one array.  ``times`` adds to the log Z,
    and ``fold`` merges a term of log weight l' = l_src + w, mean m' = m_src
    + count and variance v' into (l, m, v) in the parallel-variance form:
    with q = exp(l' - logaddexp(l, l')) the term's share, m += q (m' - m)
    and v += q (v' - v) + q (1 - q) (m' - m)^2.  A term into an empty state
    (l = -inf) has share 1, and an empty term share 0, as ``np.fmax`` turns
    the NaN of -inf - -inf into 0: empty states keep finite moments."""

    # the product of two weights, and the share of a term t in z, added in place
    name, mul = "moment", np.add
    share = staticmethod(lambda z, t: np.exp(np.subtract(t, np.logaddexp(z, t, out=z), out=t), out=t))

    def __init__(self, v: np.ndarray, h: int, L: int):
        self.arr = np.moveaxis(v, 1, 0).copy()   # channel-major: [c, S, r]
        self.flat = self.arr.transpose(1, 0, 2)

    def view(self, merged):
        """The log Z of the states at a plan view and their mean and
        variance, one array of two channels."""
        shape, sub = merged
        a = self.arr.reshape((3,) + shape + self.arr.shape[2:])[(slice(None),) + sub]
        return a[0], a[1:]

    def times(self, a, w):
        self.mul(a[0], w, out=a[0])

    def fold(self, a, src, w, count):
        z, mv = a
        q = self.share(z, self.mul(src[0], w))
        np.fmax(q, 0.0, out=q)
        d = src[1] - mv   # m' - m and v' - v
        dm, var = d[0], mv[1]
        if count:
            dm += count
        step = d * q
        mv += step   # m += q (m' - m), v += q (v' - v)
        dm -= step[0]
        dm *= step[0]
        var += dm   # v += q (1 - q) (m' - m)^2


_RANGE_BITS, _FACTOR_BITS = 600, 288   # the certificate of SCALED, see there


class SCALED(MOMENT):
    """MOMENT with Z in channel 0 (Rabiner, Proc. IEEE 1989): the weights
    are factors exp(w), and a term t = z_src exp(w) has share t / (z + t),
    0 / 0 for two empty ones.  After every layer each column is scaled
    exactly, by the power of two that brings its largest Z into [1/2, 1),
    and the exponents e summed: log Z = log(Z) + e log 2.  ``ok`` holds
    while no nonzero Z is below 2^-_RANGE_BITS; if also h |w| <=
    _FACTOR_BITS log 2 for every finite weight w, no term left float64's
    normal range, else one may have overflowed.  Message and result are
    (msg, e, ok), or at the start MOMENT's message alone."""

    name, mul = "scaled", np.multiply
    share = staticmethod(lambda z, t: np.divide(t, np.add(z, t, out=z), out=t))

    def __init__(self, v, h: int, L: int):
        v, self.e, self.ok = v if isinstance(v, tuple) else (v, np.int64(0), True)
        super().__init__(v, h, L)

    def layer(self):
        z = self.arr[0]
        _, e = np.frexp(z.max(axis=0))
        z *= np.ldexp(1.0, -e)
        self.e = self.e + e
        low = z.min(axis=0)
        if not low.all():   # the least nonzero Z, by a slower reduction past the empty states
            low = np.min(z, axis=0, initial=1.0, where=z > 0)
        self.ok = self.ok & (low >= 2.0 ** -_RANGE_BITS)

    def result(self, msg):
        return msg, self.e, self.ok


class DEGREE(LOG):
    """(logaddexp, +) over the log coefficients of the monomer count, on the
    last axis of the message ``v[S, r, d]``: a monomer shifts that axis by
    one.  The message reaches the degrees below ``t``, one more at every
    monomer step, and the steps read only those."""

    name = "degree"

    def __init__(self, v: np.ndarray, h: int, L: int):
        S, R, self.t = v.shape
        self.flat = np.full((S, R, self.t + h * L), NEG_INF)
        self.flat[..., : self.t] = v

    def times(self, a, w):
        np.add(a[..., : self.t], w[:, None], out=a[..., : self.t])

    def fold(self, a, src, w, count):
        t = self.t
        if count:
            np.logaddexp(a[..., 1 : t + 1], src[..., :t] + w[:, None], out=a[..., 1 : t + 1])
            self.t += 1
        else:
            np.logaddexp(a[..., :t], src[..., :t] + w[:, None], out=a[..., :t])


def _vertex_sweep(v: np.ndarray, nu, oh, ov, plan, arith=LOG, each=None) -> np.ndarray:
    """The transfer recursion in ``arith``, one vertex at a time (see the
    module docstring), from the message ``v[S, ...]`` at the cut before the
    first layer of ``nu`` to the one after its last layer, before the cut
    after it; with ``each`` = "layer" or "vertex", the stacked messages
    after every layer or every vertex, ``[k, S, ...]``.  ``nu[r, i, b]`` and
    ``ov[r, i, e]`` weigh layer i and ``oh[r, i, b]`` the cut before it; an
    ``oh`` one row short means the first layer starts the cylinder, from
    the empty set.

    The step of vertex b keeps the half of the states where bit b is unset,
    which becomes the half where it is set (the vertex opens), and rewrites
    the other half in place (``_vertex_plan``): the halves of bit b trade
    places at every vertex, so after an odd number of layers the state axis
    is reversed, and after vertex b of layer i state s is stored at s ^ low
    (i even) or s ^ ~low (i odd), low the bits 0..b.  Every message
    returned is in state order.
    """
    _, L, h = nu.shape
    S = 1 << h
    ar = arith(v, h, L)
    at, times, fold = ar.view, ar.times, ar.fold
    # the views of the message that every step of a layer of each parity reads
    steps = [[(at(keep), at(new), [(e, at(src), at(dst)) for e, src, dst in edges])
              for keep, new, edges in layer] for layer in plan]
    nu, oh, ov = (np.moveaxis(a, 0, -1) for a in (nu, oh, ov))   # [i, b, r]
    skip = L - oh.shape[0]
    flat = ar.flat
    out = np.empty(({"layer": L, "vertex": L * h}[each],) + flat.shape) if each else None
    with np.errstate(invalid="ignore", over="ignore"):   # see MOMENT and SCALED
        for i in range(L):
            for b, (P, Q, edges) in enumerate(steps[i % 2]):
                if i >= skip:   # the horizontal dimer reserved at the cut before
                    times(Q, oh[i - skip, b])
                fold(Q, P, nu[i, b], 1)   # a monomer
                for e, src, dst in edges:   # a fiber dimer to an open earlier vertex
                    fold(dst, src, ov[i, e], 0)
                if each == "vertex":
                    out[i * h + b] = flat
            ar.layer()
            if each == "layer":
                out[i] = flat[::-1] if i % 2 == 0 else flat
    if each == "vertex":   # from storage to state order
        low = (2 << np.arange(h)) - 1
        stored = np.arange(S) ^ np.where(np.arange(L)[:, None] % 2, S - 1 - low, low).reshape(-1, 1)
        return out[np.arange(L * h)[:, None], stored]
    if each:
        return out
    return ar.result(flat[::-1] if L % 2 else flat)


def _empty(S: int, *shape) -> np.ndarray:
    """The LOG message ``[S, *shape]`` of the empty reserved set alone."""
    v = np.full((S, *shape), NEG_INF)
    v[0] = 0.0
    return v


def _set_sums(w: np.ndarray) -> np.ndarray:
    """Per set S of fiber vertices, the sum of ``w[..., b]`` over b in S,
    ``[S, ...]``, added in ascending b; a -inf weight makes every sum it
    enters -inf."""
    h = w.shape[-1]
    out = np.zeros((1 << h,) + w.shape[:-1])
    for b in range(h):
        out[1 << b : 2 << b] = out[: 1 << b] + w[..., b]
    return out


def _weights(tables: dict, flipped: bool = False) -> tuple:
    """``nu``, ``oh`` and ``ov`` of ``tables``, or of the cylinder read from
    its last layer to its first (views)."""
    return tuple(tables[key][:, ::-1] if flipped else tables[key] for key in ("nu", "oh", "ov"))


def _both_ways(v: np.ndarray, tables: dict, fore: int, back: int, arith, x: float = 0.0,
               each=None) -> tuple:
    """The forward sweep over the first ``fore`` layers of ``tables`` and
    the flipped one over its last ``back``, at tilt x, from the message
    ``v[S, ..., 1]`` at the empty set, the same for every column.  Over
    the min(fore, back) layers they share they run as one ``_vertex_sweep``:
    the halves' weights stack on the replica axis, columns ``:R`` forward
    and ``R:`` flipped, in one copy that takes the tilt (and under SCALED
    exp) in place.  The longer half then goes on alone from its columns of
    that message, under SCALED from a contiguous copy of its weights (numpy
    exponentiates a strided view by another loop, whose last bit can
    differ, so that a row would depend on its batch).  Returns the
    forward and the flipped message, or with ``each`` (and fore == back)
    their stacks, views of the columns of one array."""
    ways, m = (_weights(tables), _weights(tables, flipped=True)), min(fore, back)
    rows = (m, m - 1, m)   # oh one row short: both halves start at an end
    nu, oh, ov = (np.concatenate([w[j][:, :r] for w in ways]) for j, r in enumerate(rows))
    nu += x
    R, lin = nu.shape[0] // 2, arith is SCALED
    with np.errstate(over="ignore"):   # a weight past SCALED's certificate, see there
        for a in (nu, oh, ov) if lin else ():
            np.exp(a, out=a)
        both = _vertex_sweep(np.broadcast_to(v, v.shape[:-1] + (2 * R,)), nu, oh, ov, tables["plan"],
                             arith, each)
        del nu, oh, ov   # the stacked copy, before a longer half goes on
        halves = [tuple(a[..., c] for a in both) if lin else both[..., c]
                  for c in (slice(None, R), slice(R, None))]
        return tuple(half if layers == m else
                     _vertex_sweep(half, *(np.exp(np.array(a)) if lin else a for a in (
                         nu[:, m:layers] + x, oh[:, m - 1 : layers - 1], ov[:, m:layers])),
                                   tables["plan"], arith)
                     for half, layers, (nu, oh, ov) in zip(halves, (fore, back), ways))


# ---------------------------------------------------------------------------
# batches of weights
# ---------------------------------------------------------------------------

def check_transfer_cap(h: int) -> None:
    """Refuse a fiber of h vertices past the transfer recursion's cap."""
    if h > SCALAR_MAX_H:
        raise CapacityError(f"transfer supports fiber size h <= {SCALAR_MAX_H}, got h={h}")


# the bytes that one batch of replicas may hold at its peak
BATCH_BYTES = 1 << 30
# the bytes of a batch that do not grow with its replicas (``batch_bytes``)
_BATCH_FIXED = 1 << 16


def batch_bytes(H: HGraph, n: int, R: int, degree_layers: int = 0, draws: int = 0) -> int:
    """The bytes of float64 arrays that a batch of R replicas of an n-layer
    cylinder over H holds at its peak.

    Per replica: its weights, W numbers, and with coefficients over
    increments of ``degree_layers`` layers its coefficients twice.  On top,
    per replica, the largest of the stages, which run one after another:

    * the forward and flipped sweeps of ``cut_moments`` as one
      (``_both_ways``): the halves' weights stacked, tilted and
      exponentiated, W, and 15 x 2^h, the 2R-wide moment message (6 x
      2^h), a step's terms (5 x 2^h) and numpy's buffers for them (up to
      4 x 2^h), which also bounds the mix at the cut and the rescale;
    * ``increment_laws``: over the whole cylinder (``degree_layers == n``)
      5/2 D x 2^h numbers for D degrees, as fitted to traced peaks over R:
      the degree recursion's message and a step's terms, 1.5 D x 2^h, and
      numpy's buffers for them; else 3 D x 2^h with its close at a cut,
      beside the forward and flipped LOG messages of every cut, 2 n x 2^h,
      and before it the weights of both passes stacked, 2 W;
    * with ``draws``, the batch's ``GibbsSampler``, fitted to traced peaks:
      building it, per vertex (2J + 3) x 2^h numbers for J moves (message,
      terms, law, normalisation) and mH + 5 weights, or drawing, per
      vertex the law and 3 numbers per draw of a block of ``draws``.

    On top of all, 12 x 2^h numbers that the MOMENT sweeps of replicas
    past the certificate of ``cut_moments`` may add to a batch's peak, and
    ``_BATCH_FIXED`` bytes that do not grow with the batch: numpy's
    iterator buffers, at most 8192 numbers per operand, and the
    interpreter's objects of a batch's routes.
    """
    h, S, mH = H.h, 1 << H.h, len(H.edges)
    W = n * (2 * h + mH)
    held = W
    stage = W + 15 * S
    if degree_layers:
        held += 2 * (h * n + 1)
        D = h * degree_layers + 1
        stage = max(stage, 5 * D * S // 2 if degree_layers == n else 2 * S * n + max(2 * W, 3 * D * S))
    if draws:
        J = 2 + max(sum(c == b for _, c in H.edges) for b in range(1, h + 1))
        stage = max(stage, n * h * (S * (2 * J + 3) + mH + 5), n * h * (S * J + 3 * draws))
    return 8 * (R * (held + stage) + 12 * S) + _BATCH_FIXED


def _most(fits: Callable, top: int) -> int:
    """The largest k in 0..top with ``fits(k)``, for ``fits`` true up to a point."""
    lo, hi = 0, top + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def replicas_per_batch(H: HGraph, n: int, degree_layers: int = 0, draws: int = 0) -> int:
    """The most replicas of an n-layer cylinder over H whose ``batch_bytes``
    stay within ``BATCH_BYTES``; a single replica past it is refused,
    naming h, n and the bytes."""
    R = _most(lambda R: batch_bytes(H, n, R, degree_layers, draws) <= BATCH_BYTES,
              BATCH_BYTES // 8)   # a replica holds more than 8 bytes
    if R == 0:
        raise CapacityError(f"one replica of fiber size h={H.h} at n={n} layers needs"
                            f" {batch_bytes(H, n, 1, degree_layers, draws):,} bytes, over the"
                            f" batch budget of {BATCH_BYTES:,}")
    return R


def draws_per_block(H: HGraph, n: int, degree_layers: int, draws: int, replicas: int = 1) -> int:
    """The most of ``draws`` Gibbs draws per replica that a batch of
    ``replicas``, or of as many as the sampler's build allows (the
    ``replicas_per_batch`` of one draw), holds within ``BATCH_BYTES``, so
    that the draws of a batch run in blocks of that many and blocking never
    narrows the batch; a replica that cannot hold one draw is refused."""
    R = min(replicas, replicas_per_batch(H, n, degree_layers, 1))
    return _most(lambda d: batch_bytes(H, n, R, degree_layers, d) <= BATCH_BYTES, draws)


def batch_tables(g: CylinderGraph, nu_b, oh_b, ov_b) -> dict:
    """The weights of a batch of R replicas as every route reads them.

    ``nu[r, i, b]``, ``oh[r, k, b]`` (cut k joins layers k and k + 1,
    0-based) and ``ov[r, i, e]`` are the weights as float arrays,
    replica-major as given (no copy of a float input); ``H``, ``n`` and
    ``h`` name the cylinder and ``plan`` is the ``_vertex_plan`` of H.
    Fibers of more than ``SCALAR_MAX_H`` vertices are refused, so that cap
    holds for single instances, campaigns and ground states.  One instance
    is replica 0.
    """
    check_transfer_cap(g.h)
    nu_b, oh_b, ov_b = (np.asarray(a, dtype=float) for a in (nu_b, oh_b, ov_b))
    return {"nu": nu_b, "oh": oh_b, "ov": ov_b, "H": g.H, "n": nu_b.shape[1], "h": g.h,
            "plan": _vertex_plan(g.H)}


def instance_tables(g: CylinderGraph, w: WeightAssignment) -> dict:
    """``batch_tables`` of one weight assignment, as a batch of one."""
    if w.g != g:
        raise ValueError("weight assignment belongs to a different graph")
    return batch_tables(g, w.nu[None], w.omega_h[None], w.omega_v[None])


# ---------------------------------------------------------------------------
# moments at a cut
# ---------------------------------------------------------------------------

def check_cut(k: int, n: int) -> None:
    """Refuse a cut k that does not split n layers into two nonempty sections."""
    if not 1 <= k < n:
        raise ValueError(f"cut k={k} must satisfy 1 <= k < n={n}")


def cut_moments(tables: dict, k: int, x: float = 0.0):
    """log Z, mean_U, var_U, var_left, var_right and cov at cut k: the
    monomer count U of all layers and its sections L (layers 1..k)
    and U - L (layers k+1..n) under the measure tilted by x; six arrays
    with one entry per replica.

    A SCALED sweep forward over layers 1..k and one over the flipped
    layers n..k+1 meet at the reserved set S of cut k.  They run as one
    sweep (``_both_ways``) over the min(k, n - k) layers they share, and
    the longer then goes on alone from its columns of that message; a
    replica past SCALED's certificate runs again by MOMENT sweeps.
    Given S the two sections are independent, so with pi[S] proportional
    to fw[S] exp(h_k[S]) bw[S], h_k[S] the horizontal weight of S at cut
    k, and d = m - mean, the section laws mix over S: var_L = sum pi (v_L
    + d_L^2), and cov = sum pi d_L d_R directly, never as a difference of
    variances.
    A replica with no matching of finite weight is refused
    (``check_nonempty``).
    """
    n, h = tables["n"], tables["h"]
    check_cut(k, n)
    top = NEG_INF   # per replica the largest |w| of a finite weight, at tilt x
    for a, s in ((tables["nu"], x), (tables["oh"], 0.0), (tables["ov"], 0.0)):
        hi, lo = a.max(axis=(1, 2), initial=NEG_INF), a.min(axis=(1, 2), initial=np.inf)
        if (lo == NEG_INF).any():   # a slower reduction, past the -inf weights
            lo = np.min(a, axis=(1, 2), initial=np.inf, where=a > NEG_INF)
        top = np.fmax(top, np.fmax(hi + s, -(lo + s)))
    start = np.zeros((1 << h, 3, 1))
    start[0, 0] = 1.0
    (fw, e_fw, ok_fw), (bw, e_bw, ok_bw) = _both_ways(start, tables, k, n - k, SCALED, x)
    # mix replica-major: each sum over S then runs along one contiguous row,
    # whose order of additions does not depend on the batch size; one half
    # at a time, so that off centre the joint message or the longer half's
    # own is freed before the second copy (12 x 2^h numbers per replica)
    fw = np.ascontiguousarray(fw.transpose(1, 2, 0))
    bw = np.ascontiguousarray(bw.transpose(1, 2, 0))
    with np.errstate(divide="ignore"):   # log Z = -inf at an empty state
        fw[0], bw[0] = (np.log(half[0]) + e[:, None] * LN2 for half, e in ((fw, e_fw), (bw, e_bw)))
    # replicas past the certificate again by MOMENT sweeps, before an empty measure
    # is refused, in parts of at most R / 2 that keep the batch within its model
    redo = np.flatnonzero(~(ok_fw & ok_bw & (h * top <= _FACTOR_BITS * LN2)))
    start[1:, 0], start[0, 0] = NEG_INF, 0.0
    part = max(fw.shape[1] // 2, 1)
    for rows in (redo[i : i + part] for i in range(0, redo.size, part)):
        sub = {**tables, **{key: tables[key][rows] for key in ("nu", "oh", "ov")}}
        for half, v in zip((fw, bw), _both_ways(start, sub, k, n - k, MOMENT, x)):
            half[:, rows] = v.transpose(1, 2, 0)
    logp = fw[0] + _set_sums(tables["oh"][:, k - 1]).T + bw[0]
    top = check_nonempty(logp.max(axis=1))
    pi = np.exp(logp - top[:, None])
    total = pi.sum(axis=1)
    log_z = np.log(total) + top
    # normalised by its own sum, which exp(logp - log_z) is not to rounding
    pi /= total[:, None]
    mean_l, mean_r = (pi * fw[1]).sum(axis=1), (pi * bw[1]).sum(axis=1)
    d_l, d_r = fw[1] - mean_l[:, None], bw[1] - mean_r[:, None]
    var_l = (pi * (fw[2] + d_l * d_l)).sum(axis=1)
    var_r = (pi * (bw[2] + d_r * d_r)).sum(axis=1)
    cov = (pi * d_l * d_r).sum(axis=1)
    return log_z, mean_l + mean_r, var_l + var_r + 2.0 * cov, var_l, var_r, cov


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def check_polynomial_caps(n: int, h: int) -> None:
    """Refuse a cylinder of n layers of h vertices too large for coefficient polynomials."""
    if h > POLY_MAX_H or n > POLY_MAX_N:
        raise CapacityError(
            f"polynomials support fiber size h <= {POLY_MAX_H} and n <= {POLY_MAX_N}"
            f" layers, got h={h}, n={n}"
        )


def increment_laws(tables: dict, cuts) -> list[np.ndarray]:
    """Log coefficients ``[j, r]`` of j monomers on layers a+1..b, for each
    pair (a, b) of consecutive ``cuts`` and every replica (see the module
    docstring): the DEGREE sweep over the increment's layers, seeded by the
    forward LOG message at a cut a > 0 and closed against the flipped one
    at a cut b < n.  Every sweep runs over the whole batch, and no sum
    depends on the batch."""
    n, h, plan = tables["n"], tables["h"], tables["plan"]
    S = 1 << h
    check_polynomial_caps(n, h)
    cuts = [int(c) for c in cuts]
    if len(cuts) < 2 or cuts[0] < 0 or cuts[-1] > n or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"cuts {cuts} must strictly increase inside [0:{n}]")
    nu, oh, ov = _weights(tables)
    empty = _empty(S, nu.shape[0])
    if any(0 < c < n for c in cuts):
        fw, bw = _both_ways(empty[:, :1], tables, n, n, LOG, each="layer")
    laws = []
    for a, b in zip(cuts, cuts[1:]):
        v = _vertex_sweep((fw[a - 1] if a else empty)[..., None], nu[:, a:b],
                          oh[:, max(a - 1, 0) : b - 1], ov[:, a:b], plan, DEGREE)
        if b < n:   # close replica-major: each sum over S runs along one contiguous row
            v = v + _set_sums(oh[:, b - 1])[..., None]
            v += bw[n - b - 1, ..., None]
            v = _logsumexp(np.moveaxis(v, 0, -1).copy())[None]
        laws.append(v[0].T.copy())   # [j, r], C-contiguous as the callers' sums over j expect
        del v   # before the next sweep's, as the batch model counts one
    return laws


def partition_polynomial(g: CylinderGraph, w: WeightAssignment, mask=None) -> MonomerPolynomial:
    """Exact monomer-count polynomial of the Gibbs partition function, counting
    the layers k..l of ``mask`` (None: every layer): the increment k-1..l."""
    counted = np.flatnonzero(_resolve_mask(mask, g.n))   # layers k-1..l-1, 0-based
    (lc,) = increment_laws(instance_tables(g, w), [counted[0], counted[-1] + 1])
    return MonomerPolynomial(lc[:, 0], N=g.num_vertices, mask_size=g.h * counted.size)


def section_covariance(g: CylinderGraph, w: WeightAssignment, k: int) -> float:
    """Cov of the monomer counts of layers [1:k] and [k+1:n] by polarization,
    from the laws of both sections and of all layers over one table."""
    check_cut(k, g.n)
    tables = instance_tables(g, w)
    laws = increment_laws(tables, [0, k, g.n]) + increment_laws(tables, [0, g.n])
    var_l, var_r, var_all = (MonomerPolynomial(lc[:, 0], g.num_vertices).cumulants()[1] for lc in laws)
    return 0.5 * (var_all - var_l - var_r)


# ---------------------------------------------------------------------------
# log Z of one instance, remainders
# ---------------------------------------------------------------------------

# the shortest cylinder, per fiber size h, whose blocked LOG sweep measured
# faster than the sequential one; larger fibers always sweep sequentially, as
# their block matrices cost 2^h times the sequential sweep's work per layer
_BLOCKED_MIN_N = {1: 16, 2: 16, 3: 128}


def _log_blocks(n: int, h: int) -> int:
    """How many blocks the single-instance LOG sweep of n layers of h
    vertices runs in: about sqrt(n) where blocking pays, else 1."""
    return math.isqrt(n) if n >= _BLOCKED_MIN_N.get(h, n + 1) else 1


def _blocked_log_z(nu: np.ndarray, oh: np.ndarray, ov: np.ndarray, plan, K: int) -> float:
    """log Z of one instance, ``nu[i, b]``, ``oh[k, b]`` and ``ov[i, e]``,
    from a LOG sweep over K blocks of L = ceil(n / K) layers at once.

    The blocks are the columns of the sweep, and its message carries the
    reserved set S0 at the cut before the block on a leading axis, starting
    from the identity, so the last message is every block's matrix between
    the reserved sets at its two ends.  Layers past n pass the empty set
    through unchanged (monomers of weight 0, no dimer).  The matrices are
    then combined from the empty set, each partial value shifted by its
    maximum so it stays the size of one block, and the shifts summed exactly.
    K = 1 is the sequential sweep.
    """
    n, h = nu.shape
    S = 1 << h
    if K == 1:
        return float(_vertex_sweep(_empty(S, 1), nu[None], oh[None], ov[None], plan)[0, 0])
    L = -(-n // K)
    K = -(-n // L)
    nu_p, ov_p, cuts = np.zeros((K * L, h)), np.full((K * L, ov.shape[1]), NEG_INF), np.full((K * L, h), NEG_INF)
    nu_p[:n], ov_p[:n], cuts[1:n] = nu, ov, oh   # row j of cuts: the cut before layer j
    eye = np.full((S, S, K), NEG_INF)
    eye[np.arange(S), np.arange(S)] = 0.0
    M = _vertex_sweep(eye, *(a.reshape(K, L, a.shape[1]) for a in (nu_p, cuts, ov_p)), plan)
    v = _empty(S)
    shifts = []
    for b in range(K):
        v = _logsumexp(v + M[..., b], axis=1)   # M[S, S0, block]
        top = v.max()
        if top > NEG_INF:
            v -= top
            shifts.append(top)
    return math.fsum([*shifts, v[0]])


def scalar_log_z(g: CylinderGraph, w: WeightAssignment, x: float = 0.0, mask=None) -> float:
    """log Z at a fixed tilt without materializing coefficients, by the
    blocked LOG sweep (see the module docstring).  An instance with no
    matching of finite weight is refused (``check_nonempty``)."""
    tables = instance_tables(g, w)
    nu = tables["nu"][0] + x * _resolve_mask(mask, g.n)[:, None]
    lz = _blocked_log_z(nu, tables["oh"][0], tables["ov"][0], tables["plan"], _log_blocks(g.n, g.h))
    return float(check_nonempty(np.asarray(lz)))


def cut_remainders(tables: dict, arith=LOG, x: float = 0.0) -> np.ndarray:
    """V - V_[1:k] - V_[k+1:n] for every cut k = 1..n-1 (entry ``[k - 1, r]``)
    in ``arith`` (LOG at tilt x, or MAX).

    The message at the empty reserved set after layer k of the forward
    sweep is the value V of layers 1..k, and of the flipped sweep the
    value of the last k layers, so one forward and one flipped sweep serve
    every cut; the two run as one sweep (``_both_ways``).  A replica of
    value V = -inf (an empty measure) is refused (``check_nonempty``).
    """
    n = tables["n"]
    pre, suf = (v[:, 0] for v in _both_ways(_empty(1 << tables["h"], 1), tables, n, n, arith, x, "layer"))
    return check_nonempty(pre[-1]) - pre[:-1] - suf[-2::-1]


# ---------------------------------------------------------------------------
# the backward step
# ---------------------------------------------------------------------------

# the move into a state after vertex (i, b): a monomer, the close of the
# horizontal dimer reserved at cut i-1, the vertex opening, or, from FIBER + e
# on, the fiber dimer of H-edge e to an open earlier vertex
MONOMER, HORIZONTAL, OPEN, FIBER = range(4)


@lru_cache(maxsize=64)
def _moves(H: HGraph) -> tuple:
    """Per fiber vertex b, the moves into each state s after it (bit c of
    s: vertex c open, for c <= b, or reserved at the cut before, for c >
    b): ``code[b, s, j]`` (-1: no move) and the state before it,
    ``prev[b, s, j]``.  Column 0 is OPEN where b is in s and MONOMER
    elsewhere, column 1 HORIZONTAL, and the others the fiber dimers to the
    earlier vertices a of b, where neither a nor b is in s."""
    h, s = H.h, np.arange(1 << H.h)
    ins = [[(e, a - 1) for e, (a, c) in enumerate(H.edges) if c == b + 1] for b in range(h)]
    code = np.full((h, s.size, 2 + max(map(len, ins))), -1)
    prev = np.repeat(s[:, None], code.shape[2], axis=1)[None].repeat(h, axis=0)
    for b in range(h):
        free = (s >> b & 1) == 0
        code[b, :, 0] = np.where(free, MONOMER, OPEN)
        prev[b, :, 0] = s & ~(1 << b)
        code[b, free, 1] = HORIZONTAL
        prev[b, :, 1] = s | 1 << b
        for j, (e, a) in enumerate(ins[b], start=2):
            code[b, free & (s >> a & 1 == 0), j] = FIBER + e
            prev[b, :, j] = s | 1 << a
    return code, prev


def move_terms(tables: dict, arith, x: float = 0.0) -> tuple:
    """(values, terms, code, prev): the value ``[R]`` of every replica in
    ``arith`` (LOG at tilt x, or MAX) and the terms of its backward step,
    ``terms[r, i, b, s, j]``, the message before vertex (i, b) at state
    ``prev[b, s, j]`` times the weight of the move ``code[b, s, j]`` into
    state s after it (``_moves``; -inf for no move), from one sweep over the
    batch that keeps the message after every vertex.  Under LOG the terms
    of (r, i, b, s) are the conditional law of the move into s, up to their
    sum; under MAX their largest continues an optimal configuration.  A
    replica with no matching of finite weight is refused (``check_nonempty``)."""
    nu, oh, ov = _weights(tables)
    (R, n, h), S, nu = nu.shape, 1 << tables["h"], nu + x
    msgs = _vertex_sweep(_empty(S, R), nu, oh, ov, tables["plan"], arith, "vertex")
    values = check_nonempty(msgs[-1, 0].copy())
    # the message before each vertex, replica-major: [r, i, b, s]
    before = np.moveaxis(np.concatenate([_empty(S, R)[None], msgs[:-1]]), -1, 0).reshape(R, n, h, S)
    del msgs
    code, prev = _moves(tables["H"])
    # per vertex, the weight of each move code; code -1 reads the last, -inf
    w = np.full((R, n, h, FIBER + ov.shape[2] + 1), NEG_INF)
    w[..., MONOMER] = nu
    w[:, 1:, :, HORIZONTAL] = oh
    w[..., OPEN] = 0.0
    w[..., FIBER:-1] = ov[:, :, None]
    terms = np.empty((R, n, h, S, code.shape[2]))
    for b in range(h):   # one temporary at a time
        terms[:, :, b] = before[:, :, b][:, :, prev[b]]
        terms[:, :, b] += w[:, :, b][:, :, code[b]]
    return values, terms, code, prev

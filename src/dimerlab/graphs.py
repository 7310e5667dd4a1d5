"""Cylinder graphs, disorder laws, and edge/vertex weight assignments.

A cylinder graph is the product of a path on ``n`` layers with a fixed
finite graph ``H`` on ``h`` vertices.  Vertex ``(i, j)``, layer ``i`` in
``1..n`` and fiber ``j`` in ``1..h``, has the flat index ``(i-1) h + j-1``.
Edges come in two kinds: horizontal edges ``(i, j)-(i+1, j)`` joining
consecutive layers, and vertical (fiber) edges ``(i, a)-(i, b)`` for each
edge ``a-b`` of ``H``.  The canonical edge order is the horizontal block by
(cut, fiber), then the fiber block by (layer, H-edge); ``edge_ends`` gives
the flat endpoints of every edge in that order.

Weights attach a monomer weight ``nu`` to every vertex and a dimer weight
``omega`` to every edge.  The gauge-transformed edge weights
``omega - nu_u - nu_v`` (all vertex weights moved to zero) are computed
when asked, by ``gauge``.

Every (seed, stream, domain) triple keys its own Philox generator, whose
stream is fixed by its key alone.  ``rng_generator`` takes the key from
numpy's ``SeedSequence(entropy=seed, spawn_key=(stream, domain))``;
``stream_keys`` computes the keys of a whole batch of streams at once by
the same key schedule, which numpy keeps fixed (NEP 19): the seed's part
of the mixing once per seed, the stream's and domain's words as array
arithmetic over the batch.  The keys are equal bit for bit, so a
generator re-keyed to them draws exactly what ``rng_generator``'s does.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# RNG stream domains, used as spawn keys so that weight sampling and Gibbs
# sampling never share a stream even under the same (seed, stream) pair.
DOMAIN_WEIGHTS = 0
DOMAIN_GIBBS = 1


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index for replica separation."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def rng_generator(seed: RngSeed, domain: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream, domain) triple.

    Streams are independent regardless of the order they are consumed in,
    so replicas may be evaluated in any order or in parallel.  Its Philox
    key is ``SeedSequence(entropy=seed, spawn_key=(stream, domain))``'s,
    and a fresh Philox starts at counter 0 with an empty buffer: a Philox
    set to that state and the key of ``stream_keys`` draws the same bits,
    which is how a campaign draws its batches.  This route stays numpy's
    own, the oracle that the batch route is tested against.
    """
    ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream, domain))
    return np.random.Generator(np.random.Philox(ss))


# the constants of numpy's SeedSequence, whose key schedule numpy keeps
# fixed under its stream-compatibility policy (NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _POOL = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 4


def _constant(j: int, init: int = _INIT_A, mult: int = _MULT_A) -> int:
    """The hash constant that SeedSequence's j-th hash starts from."""
    return init * pow(mult, j, 1 << 32) & _M32


@functools.lru_cache(maxsize=64)
def _block(k: int, init: int = _INIT_A, mult: int = _MULT_A) -> np.ndarray:
    """The constants (c_j, c_j+1) of hashes j = k..k+3, one per pool word,
    ``[2, 4, 1]``: no data changes them."""
    c = [_constant(j, init, mult) for j in range(k, k + _POOL + 1)]
    return _frozen(np.array([c[:-1], c[1:]], dtype=np.uint64)[:, :, None])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


def _hash(word, c, c_next):
    """SeedSequence's hash of 32-bit words, ints or uint64 arrays."""
    word = (word ^ c) * c_next & _M32
    return word ^ word >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    x = (_MIX_L * x - _MIX_R * y) & _M32
    return x ^ x >> 16


def _words(n: int) -> list:
    """The 32-bit words of a nonnegative int, least significant first."""
    return [n >> b & _M32 for b in range(0, max(n.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence's pool, ``[4, 1]``, once the words of ``seed`` are
    mixed in, and the hashes run so far.  A spawn key pads the seed's
    words to the pool of four, so the pool fill and its all-pairs mix read
    the seed alone: Python ints, once per seed, however many batches it
    keys."""
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    pool = [_hash(word, _constant(j), _constant(j + 1)) for j, word in enumerate(entropy[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _constant(k), _constant(k + 1)))
                k += 1
    pool, k = _absorb(np.array(pool, dtype=np.uint64)[:, None], k, entropy[_POOL:])
    return _frozen(pool), k


def _absorb(pool: np.ndarray, k: int, words) -> tuple:
    """Mix each entropy word into every pool word, from hash k on; the
    pool and the hashes run.  A word is hashed once per pool word under
    consecutive constants, so the four pool words take it at once."""
    for word in words:
        pool, k = _mix(pool, _hash(word, *_block(k))), k + _POOL
    return pool, k


def _keys(seed: int, stream_words: list, domain: int) -> np.ndarray:
    """The keys ``[R, 2]`` of streams whose spawn keys have the same number
    of words, ``stream_words`` (uint64 arrays over the streams)."""
    pool, _ = _absorb(*_seed_pool(seed), stream_words + _words(domain))
    # generate_state: each pool word hashed once more, paired low word first
    out = _hash(pool, *_block(0, _INIT_B, _MULT_B))
    return (out[0::2] | out[1::2] << 32).T.copy()


def stream_keys(seed: int, streams, domain: int) -> np.ndarray:
    """The Philox keys ``[R, 2]`` (uint64) of ``rng_generator`` for each of
    ``streams``: ``SeedSequence(entropy=seed, spawn_key=(s, domain))
    .generate_state(2, np.uint64)``, bit for bit.  The seed's part of the
    mixing runs once (``_seed_pool``); only the stream's words and the
    domain's are mixed in per stream, over the whole batch at once, as
    uint64 arrays masked to 32 bits: they wrap silently where numpy's
    uint32 scalars would warn (and the test suite turns that into an error).
    """
    s = np.asarray(streams, dtype=np.uint64).reshape(-1)
    keys = _keys(seed, [s & _M32], domain)
    wide = s > _M32  # the spawn key of a stream from 2^32 on holds two words
    if wide.any():
        keys[wide] = _keys(seed, [s[wide] & _M32, s[wide] >> 32], domain)
    return keys


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HGraph:
    """Simple undirected graph on vertices ``1..h`` (the cylinder fiber)."""

    h: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.h < 1:
            raise ValueError(f"fiber size must be >= 1, got {self.h}")
        seen = set()
        for a, b in self.edges:
            if not (1 <= a < b <= self.h):
                raise ValueError(f"H edge ({a},{b}) is not 1 <= a < b <= {self.h}")
            if (a, b) in seen:
                raise ValueError(f"duplicate H edge ({a},{b})")
            seen.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @classmethod
    def single(cls) -> "HGraph":
        return cls(1)

    @classmethod
    def path(cls, h: int) -> "HGraph":
        return cls(h, tuple((j, j + 1) for j in range(1, h)))

    @classmethod
    def cycle(cls, h: int) -> "HGraph":
        if h < 3:
            raise ValueError(f"cycle fiber needs h >= 3, got {h}")
        return cls(h, tuple((j, j + 1) for j in range(1, h)) + ((1, h),))

    @classmethod
    def complete(cls, h: int) -> "HGraph":
        return cls(h, tuple((a, b) for a in range(1, h) for b in range(a + 1, h + 1)))


class CylinderGraph:
    """Product of an n-layer path with a fiber graph H."""

    def __init__(self, n: int, H: HGraph):
        if n < 1:
            raise ValueError(f"layer count must be >= 1, got {n}")
        self.n = n
        self.H = H

    @property
    def h(self) -> int:
        return self.H.h

    @property
    def num_vertices(self) -> int:
        return self.n * self.H.h

    @property
    def num_horizontal(self) -> int:
        return (self.n - 1) * self.H.h

    def __eq__(self, other):
        return (
            isinstance(other, CylinderGraph)
            and self.n == other.n
            and self.H == other.H
        )

    def __repr__(self):
        return f"CylinderGraph(n={self.n}, h={self.h}, H_edges={len(self.H.edges)})"


def build_cylinder(n: int, H: HGraph) -> CylinderGraph:
    return CylinderGraph(n, H)


def edge_ends(g: CylinderGraph) -> np.ndarray:
    """The flat endpoints ``[2, E]`` of every edge in canonical order: the
    horizontal edge at cut k and fiber j joins f = (k-1) h + j-1 and f + h,
    and H-edge a-b of layer i joins (i-1) h + a-1 and (i-1) h + b-1."""
    f = np.arange(g.num_horizontal)
    ab = np.array(g.H.edges, dtype=np.intp).reshape(-1, 2) - 1
    fiber = (g.h * np.arange(g.n)[:, None, None] + ab).reshape(-1, 2).T
    return np.concatenate([np.stack([f, f + g.h]), fiber], axis=1)


# ---------------------------------------------------------------------------
# disorder laws
# ---------------------------------------------------------------------------

# per law, whether each of its parameters is a weight value, which may be
# -inf (a disabled weight); every other parameter must be finite
_LAW_PARAMS = {
    "constant": (True,),
    "uniform": (False, False),
    "normal": (False, False),
    "bernoulli_shift": (False, True, True),
    "exponential_shift": (False, True),
}


@dataclass(frozen=True)
class Law:
    """One-dimensional disorder law for vertex or edge weights."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _LAW_PARAMS:
            raise ValueError(f"unknown law {self.kind!r}")
        weights = _LAW_PARAMS[self.kind]
        if len(self.params) != len(weights):
            raise ValueError(f"{self.kind} takes {len(weights)} parameters, got {len(self.params)}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        for i, (p, weight) in enumerate(zip(self.params, weights), start=1):
            if not (np.isfinite(p) or (weight and p == -np.inf)):
                raise ValueError(f"{self}: parameter {i} must be finite{' or -inf' if weight else ''}")
        if self.kind == "uniform" and self.params[0] > self.params[1]:
            raise ValueError("uniform(a, b) needs a <= b")
        if self.kind == "uniform" and np.isinf(self.params[1] - self.params[0]):
            raise ValueError(f"{self}: b - a must be finite")
        if self.kind == "normal" and self.params[1] < 0:
            raise ValueError("normal(mu, sigma) needs sigma >= 0")
        if self.kind == "bernoulli_shift" and not 0 <= self.params[0] <= 1:
            raise ValueError("bernoulli_shift(p, v0, v1) needs 0 <= p <= 1")
        if self.kind == "exponential_shift" and self.params[0] <= 0:
            raise ValueError("exponential_shift(rate, shift) needs rate > 0")

    @classmethod
    def constant(cls, c: float) -> "Law":
        return cls("constant", (c,))

    @classmethod
    def uniform(cls, a: float, b: float) -> "Law":
        return cls("uniform", (a, b))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "Law":
        return cls("normal", (mu, sigma))

    @classmethod
    def parse(cls, text: str) -> "Law":
        """Parse e.g. 'normal(0,1)', 'constant(-0.5)', or a bare number."""
        text = text.strip()
        m = re.fullmatch(r"([a-z_]+)\s*\(([^()]*)\)", text)
        if m is None:
            try:
                return cls.constant(float(text))
            except ValueError:
                raise ValueError(f"cannot parse disorder law {text!r}") from None
        kind = m.group(1)
        raw = [p for p in m.group(2).split(",") if p.strip()]
        try:
            params = tuple(float(p) for p in raw)
        except ValueError:
            raise ValueError(f"bad parameters in disorder law {text!r}") from None
        return cls(kind, params)

    def sample(self, gen: np.random.Generator, size) -> np.ndarray:
        p = self.params
        if self.kind == "constant":
            return np.full(size, p[0])
        if self.kind == "uniform":
            return gen.uniform(p[0], p[1], size)
        if self.kind == "normal":
            return gen.normal(p[0], p[1], size)
        if self.kind == "bernoulli_shift":
            return np.where(gen.random(size) < p[0], p[2], p[1])
        return p[1] + gen.exponential(1.0 / p[0], size)

    def __str__(self):
        args = ",".join(repr(p) for p in self.params)
        return f"{self.kind}({args})"


@dataclass(frozen=True)
class DisorderSpec:
    """Independent laws for vertex (monomer) and edge (dimer) weights."""

    vertex_law: Law
    edge_law: Law


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _check_weight_array(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    # -inf is a legitimate sentinel for a disabled vertex or edge; NaN and
    # +inf are never meaningful and would silently poison the DP.  Neither
    # compares below +inf, so one pass finds both.
    if not (arr < np.inf).all():
        raise ValueError(f"{name} contains NaN or +inf entries")
    return arr


class WeightAssignment:
    """Per-vertex and per-edge weights for one cylinder graph.

    Arrays are indexed the canonical way: ``nu[i-1, j-1]`` for vertex
    ``(i, j)``, ``omega_h[k-1, j-1]`` for the horizontal edge at cut ``k``
    and fiber ``j``, ``omega_v[i-1, e]`` for H-edge number ``e`` in layer
    ``i``.
    """

    def __init__(self, g: CylinderGraph, nu, omega_h, omega_v):
        self.g = g
        self.nu = _check_weight_array("nu", nu).reshape(g.n, g.h)
        self.omega_h = _check_weight_array("omega_h", omega_h).reshape(
            max(g.n - 1, 0), g.h
        )
        self.omega_v = _check_weight_array("omega_v", omega_v).reshape(
            g.n, len(g.H.edges)
        )

    @classmethod
    def constant(cls, g: CylinderGraph, vertex: float = 0.0, edge: float = 0.0):
        return cls(
            g,
            np.full((g.n, g.h), vertex),
            np.full((max(g.n - 1, 0), g.h), edge),
            np.full((g.n, len(g.H.edges)), edge),
        )

    def nu_flat(self) -> np.ndarray:
        return self.nu.reshape(-1)

    def omega_flat(self) -> np.ndarray:
        """Edge weights in canonical edge order."""
        return np.concatenate([self.omega_h.reshape(-1), self.omega_v.reshape(-1)])

    def __eq__(self, other):
        return (
            isinstance(other, WeightAssignment)
            and self.g == other.g
            and np.array_equal(self.nu, other.nu)
            and np.array_equal(self.omega_h, other.omega_h)
            and np.array_equal(self.omega_v, other.omega_v)
        )


def sample_weights(g: CylinderGraph, spec: DisorderSpec, seed: RngSeed) -> WeightAssignment:
    """Draw an i.i.d. disorder environment for ``g``.

    The draw order is fixed (all vertices in canonical order, then all edges
    in canonical order), so a given (seed, stream) pair always yields the
    same environment for the same graph shape and laws.
    """
    gen = rng_generator(seed, DOMAIN_WEIGHTS)
    nu = spec.vertex_law.sample(gen, (g.n, g.h))
    omega_h = spec.edge_law.sample(gen, (max(g.n - 1, 0), g.h))
    omega_v = spec.edge_law.sample(gen, (g.n, len(g.H.edges)))
    return WeightAssignment(g, nu, omega_h, omega_v)


def gauge(g: CylinderGraph, w: WeightAssignment) -> np.ndarray:
    """The gauge-transformed edge weights omega - nu_u - nu_v in canonical
    order: every vertex weight moved to zero and absorbed into the weights
    of its edges.  A horizontal edge subtracts its endpoint weights one at a
    time and a fiber edge their sum.  A disabled (-inf) edge stays disabled,
    where a -inf endpoint would make it -inf - (-inf) = NaN; a live edge at
    a -inf vertex has gauge weight +inf."""
    z, nu, (u, v) = w.omega_flat(), w.nu_flat(), edge_ends(g)
    live, nh = z > -np.inf, g.num_horizontal
    np.subtract(z, np.concatenate([nu[u[:nh]], nu[u[nh:]] + nu[v[nh:]]]), out=z, where=live)
    np.subtract(z[:nh], nu[v[:nh]], out=z[:nh], where=live[:nh])
    return z


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------

def _float_list(arr: np.ndarray) -> list:
    # JSON has no -inf literal; use None as the disabled sentinel.
    return [None if x == -np.inf else x for x in np.asarray(arr, dtype=float).reshape(-1).tolist()]


def _float_array(values: Sequence) -> np.ndarray:
    return np.array([-np.inf if x is None else float(x) for x in values])


def graph_payload(g: CylinderGraph) -> dict:
    return {"n": g.n, "h": g.h, "H_edges": [list(e) for e in g.H.edges]}


def graph_from_payload(d: dict) -> CylinderGraph:
    H = HGraph(int(d["h"]), tuple((int(a), int(b)) for a, b in d["H_edges"]))
    return CylinderGraph(int(d["n"]), H)


def weights_payload(g: CylinderGraph, w: WeightAssignment) -> dict:
    return {**graph_payload(g), "nu": _float_list(w.nu_flat()), "omega": _float_list(w.omega_flat())}


def weights_from_payload(d: dict) -> tuple[CylinderGraph, WeightAssignment]:
    g = graph_from_payload(d)
    nu = _float_array(d["nu"]).reshape(g.n, g.h)
    omega = _float_array(d["omega"])
    nh = g.num_horizontal
    omega_h = omega[:nh].reshape(max(g.n - 1, 0), g.h)
    omega_v = omega[nh:].reshape(g.n, len(g.H.edges))
    return g, WeightAssignment(g, nu, omega_h, omega_v)


def dump_weights(path, g, w) -> None:
    # json.dump to a file always takes the pure-Python encoder, json.dumps
    # the C one: the same bytes
    text = json.dumps(weights_payload(g, w), sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_weights(path) -> tuple[CylinderGraph, WeightAssignment]:
    with open(path) as fh:
        return weights_from_payload(json.load(fh))

"""Cylinder graphs, disorder laws, and edge/vertex weight assignments.

A cylinder graph is the product of a path on ``n`` layers with a fixed
finite graph ``H`` on ``h`` vertices.  Vertices are addressed as ``(i, j)``
with layer ``i`` in ``1..n`` and fiber ``j`` in ``1..h``.  Edges come in two
kinds: horizontal edges ``(i, j)-(i+1, j)`` joining consecutive layers, and
vertical edges ``(i, a)-(i, b)`` for each edge ``a-b`` of ``H``.

Weights attach a monomer weight ``nu`` to every vertex and a dimer weight
``omega`` to every edge.  The gauge-transformed edge weights
``omega - nu_u - nu_v`` (with all vertex weights moved to zero) are kept
alongside, since most spectral routines operate on the gauged model.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    so replicas may be evaluated in any order or in parallel.
    """
    ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream, domain))
    return np.random.Generator(np.random.Philox(ss))


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

    def neighbors(self, j: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == j:
                out.append(b)
            elif b == j:
                out.append(a)
        return sorted(out)


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

    def vertices(self) -> Iterable[tuple[int, int]]:
        for i in range(1, self.n + 1):
            for j in range(1, self.h + 1):
                yield (i, j)

    def flat_index(self, v: tuple[int, int]) -> int:
        i, j = v
        if not (1 <= i <= self.n and 1 <= j <= self.h):
            raise ValueError(f"vertex {v} outside {self.n}x{self.h} cylinder")
        return (i - 1) * self.h + (j - 1)

    def neighbors(self, v: tuple[int, int]) -> list[tuple[int, int]]:
        i, j = v
        self.flat_index(v)
        out = []
        if i > 1:
            out.append((i - 1, j))
        if i < self.n:
            out.append((i + 1, j))
        out.extend((i, jj) for jj in self.H.neighbors(j))
        return out

    def edge_list(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Canonical edge order: horizontal block by (layer, fiber), then
        vertical block by (layer, H-edge index)."""
        out = []
        for k in range(1, self.n):
            for j in range(1, self.h + 1):
                out.append(((k, j), (k + 1, j)))
        for i in range(1, self.n + 1):
            for a, b in self.H.edges:
                out.append(((i, a), (i, b)))
        return out

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


# ---------------------------------------------------------------------------
# disorder laws
# ---------------------------------------------------------------------------

_LAW_ARITY = {
    "constant": 1,
    "uniform": 2,
    "normal": 2,
    "bernoulli_shift": 3,
    "exponential_shift": 2,
}


@dataclass(frozen=True)
class Law:
    """One-dimensional disorder law for vertex or edge weights."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _LAW_ARITY:
            raise ValueError(f"unknown law {self.kind!r}")
        if len(self.params) != _LAW_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_LAW_ARITY[self.kind]} parameters, got {len(self.params)}"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "uniform" and self.params[0] > self.params[1]:
            raise ValueError("uniform(a, b) needs a <= b")
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

    def mean(self) -> float:
        p = self.params
        if self.kind == "constant":
            return p[0]
        if self.kind == "uniform":
            return 0.5 * (p[0] + p[1])
        if self.kind == "normal":
            return p[0]
        if self.kind == "bernoulli_shift":
            return (1.0 - p[0]) * p[1] + p[0] * p[2]
        return p[1] + 1.0 / p[0]

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
    # +inf are never meaningful and would silently poison the DP.
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise ValueError(f"{name} contains NaN or +inf entries")
    return arr


class WeightAssignment:
    """Per-vertex and per-edge weights for one cylinder graph.

    Arrays are indexed the canonical way: ``nu[i-1, j-1]`` for vertex
    ``(i, j)``, ``omega_h[k-1, j-1]`` for the horizontal edge at cut ``k``
    and fiber ``j``, ``omega_v[i-1, e]`` for H-edge number ``e`` in layer
    ``i``.  Gauge-transformed edge weights and the additive offset
    ``sum(nu)`` are precomputed.
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
        # gauge: move every vertex weight to zero, absorbing it into the
        # weights of incident edges; a disabled (-inf) edge stays disabled,
        # where a -inf endpoint would make it -inf - (-inf) = NaN
        live = self.omega_h > -np.inf
        gh = np.array(self.omega_h, copy=True)
        np.subtract(gh, self.nu[:-1, :], out=gh, where=live)
        np.subtract(gh, self.nu[1:, :], out=gh, where=live)
        self.gauge_h = gh
        gv = np.array(self.omega_v, copy=True)
        for e, (a, b) in enumerate(g.H.edges):
            np.subtract(gv[:, e], self.nu[:, a - 1] + self.nu[:, b - 1], out=gv[:, e], where=gv[:, e] > -np.inf)
        self.gauge_v = gv
        self.gauge_offset = float(self.nu.sum())

    @classmethod
    def constant(cls, g: CylinderGraph, vertex: float = 0.0, edge: float = 0.0):
        return cls(
            g,
            np.full((g.n, g.h), vertex),
            np.full((max(g.n - 1, 0), g.h), edge),
            np.full((g.n, len(g.H.edges)), edge),
        )

    def gauged(self) -> "WeightAssignment":
        """Same Gibbs measure, vertex weights identically zero."""
        return WeightAssignment(self.g, np.zeros_like(self.nu), self.gauge_h, self.gauge_v)

    def nu_flat(self) -> np.ndarray:
        return self.nu.reshape(-1)

    def omega_flat(self) -> np.ndarray:
        """Edge weights in canonical edge order."""
        return np.concatenate([self.omega_h.reshape(-1), self.omega_v.reshape(-1)])

    def omega_of(self, u: tuple[int, int], v: tuple[int, int]) -> float:
        """Weight of the edge u-v (raises if u-v is not an edge)."""
        (i, j), (ii, jj) = sorted((u, v))
        if j == jj and ii == i + 1:
            return float(self.omega_h[i - 1, j - 1])
        if i == ii:
            key = (min(j, jj), max(j, jj))
            for e, ed in enumerate(self.g.H.edges):
                if ed == key:
                    return float(self.omega_v[i - 1, e])
        raise ValueError(f"{u}-{v} is not an edge of the cylinder")

    def __eq__(self, other):
        return (
            isinstance(other, WeightAssignment)
            and self.g == other.g
            and np.array_equal(self.nu, other.nu)
            and np.array_equal(self.omega_h, other.omega_h)
            and np.array_equal(self.omega_v, other.omega_v)
        )


def weight_arrays(g: CylinderGraph, spec: DisorderSpec, seed: RngSeed) -> tuple:
    """The unchecked (nu, omega_h, omega_v) draws of ``sample_weights``."""
    gen = rng_generator(seed, DOMAIN_WEIGHTS)
    nu = spec.vertex_law.sample(gen, (g.n, g.h))
    omega_h = spec.edge_law.sample(gen, (max(g.n - 1, 0), g.h))
    omega_v = spec.edge_law.sample(gen, (g.n, len(g.H.edges)))
    return nu, omega_h, omega_v


def sample_weights(g: CylinderGraph, spec: DisorderSpec, seed: RngSeed) -> WeightAssignment:
    """Draw an i.i.d. disorder environment for ``g``.

    The draw order is fixed (all vertices in canonical order, then all edges
    in canonical order), so a given (seed, stream) pair always yields the
    same environment for the same graph shape and laws.
    """
    return WeightAssignment(g, *weight_arrays(g, spec, seed))


def weighted_degree(g: CylinderGraph, w: WeightAssignment, v: tuple[int, int]) -> float:
    """Sum of exp(gauge weight) over edges incident to ``v``.

    The maximum of this quantity over vertices bounds every Lee-Yang zero
    of the gauged model.
    """
    i, j = v
    g.flat_index(v)
    total = 0.0
    if i > 1:
        total += float(np.exp(w.gauge_h[i - 2, j - 1]))
    if i < g.n:
        total += float(np.exp(w.gauge_h[i - 1, j - 1]))
    for e, (a, b) in enumerate(g.H.edges):
        if j in (a, b):
            total += float(np.exp(w.gauge_v[i - 1, e]))
    return total


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------

def _float_list(arr: np.ndarray) -> list:
    # JSON has no -inf literal; use None as the disabled sentinel.
    return [None if x == -np.inf else float(x) for x in np.asarray(arr).reshape(-1)]


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
    with open(path, "w") as fh:
        json.dump(weights_payload(g, w), fh, sort_keys=True)
        fh.write("\n")


def load_weights(path) -> tuple[CylinderGraph, WeightAssignment]:
    with open(path) as fh:
        return weights_from_payload(json.load(fh))

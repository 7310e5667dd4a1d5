"""Tridiagonal cross-checks for single-vertex fibers (h = 1).

A width-1 cylinder is a path, and its partition function equals |det A_n|
for the tridiagonal matrix with diagonal entries sqrt(-1) * e^{nu_k} and
off-diagonal entries e^{omega_k / 2}.  Everything here is phrased through
two real arrays (log diagonal magnitudes, log edge weights): the
imaginary unit only sets the phase sqrt(-1)^n of the determinant.  The
spectrum of the gauged zero-diagonal part comes from numpy's dense
eigensolver, for n up to ``SPECTRUM_MAX_N`` layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment
from .leeyang import _squared_tilted
from .transfer import CapacityError


@dataclass(frozen=True)
class JacobiMatrix:
    """Tridiagonal data: diag sqrt(-1)*e^{nu_k}, off-diag e^{omega_k/2}."""

    nu: np.ndarray       # (n,) log diagonal magnitudes
    omega: np.ndarray    # (n-1,) log squared off-diagonal entries

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        om = np.asarray(self.omega, dtype=float)
        if nu.ndim != 1 or om.shape != (max(nu.size - 1, 0),):
            raise ValueError(f"need n diagonal and n-1 off-diagonal entries, got {nu.shape}, {om.shape}")
        if nu.size == 0:
            raise ValueError("empty matrix")
        if not np.isfinite(nu).all():
            raise ValueError("diagonal magnitudes must be finite")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "omega", om)

    @classmethod
    def from_weights(cls, g: CylinderGraph, w: WeightAssignment) -> "JacobiMatrix":
        if g.h != 1:
            raise ValueError(f"tridiagonal form needs fiber size 1, got h={g.h}")
        return cls(w.nu[:, 0], w.omega_h[:, 0])

    @property
    def n(self) -> int:
        return self.nu.size

    def gauge(self) -> np.ndarray:
        """Log squared off-diagonals after the diagonal rescaling."""
        return self.omega - self.nu[:-1] - self.nu[1:]

    def gauged(self) -> "JacobiMatrix":
        """Rescaled matrix diag(e^{-nu/2}) A diag(e^{-nu/2}): unit diagonal
        magnitudes, gauge-transformed off-diagonals."""
        return JacobiMatrix(np.zeros(self.n), self.gauge())


def _logaddexp(a: float, b: float) -> float:
    """``np.logaddexp`` of two Python floats, by the same operations."""
    if a == b:
        return a + math.log(2.0)
    d = a - b
    if d > 0:
        return a + math.log1p(math.exp(-d))
    if d <= 0:
        return b + math.log1p(math.exp(d))
    return d   # NaN


def det_abs(A: JacobiMatrix) -> float:
    """log |det A_n| as a blocked product of log-space 2 x 2 transfer maps.

    D_k = sqrt(-1) e^{nu_k} D_{k-1} - e^{omega_{k-1}} D_{k-2}, and both
    terms carry the phase sqrt(-1)^k whatever the weights, so the magnitudes
    obey D_k = e^{nu_k} D_{k-1} + e^{omega_{k-1}} D_{k-2}, the partition
    function of the corresponding path, and the phase of det A_n is
    sqrt(-1)^n.  Step k maps (D_{k-1}, D_{k-2}) to (D_k, D_{k-1}) by the
    nonnegative matrix [[e^{nu_k}, e^{omega_{k-1}}], [1, 0]], from (1, 0).

    The n steps are cut into K = ceil(sqrt(n)) blocks of L = ceil(n / K);
    steps past n map (D, D') to (D, D), which keeps D_n.  Step j of every
    block runs at once, with the blocks as numpy columns, on the logs of
    the block products, each renormalised by the integer part of its largest
    entry; integer shifts add up exactly in any order.  The block products
    then act in order on (log D_0, log D_{-1}) in Python floats, each partial
    pair shifted by its maximum, and ``math.fsum`` adds the block totals,
    those shifts and the last log D_n.  A product of nonnegative matrices has
    no cancellation, so each step adds a few ulps of relative error to every
    entry (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 3); disabled edges (omega = -inf) are exact zeros.  Only the
    step-major copies of nu and omega have n entries, and neither outlives
    the call.  The route shares nothing with ``transfer``, which the Jacobi
    check compares it against.
    """
    n = A.n
    K = math.isqrt(n - 1) + 1
    L = -(-n // K)
    pad = K * L - n
    # step-major (L, K): row j holds step j of every block
    nu = np.concatenate([A.nu, np.zeros(pad)]).reshape(K, L).T.copy()
    omega = np.concatenate([[-math.inf], A.omega, np.full(pad, -math.inf)]).reshape(K, L).T.copy()
    # rows (log P[0, :], log P[1, :]) of every block product, from the identity
    top = np.array([np.zeros(K), np.full(K, -math.inf)])
    bottom = np.array([np.full(K, -math.inf), np.zeros(K)])
    totals = np.zeros(K)
    for nu_j, omega_j in zip(nu, omega):
        new = np.logaddexp(top + nu_j, bottom + omega_j)
        shift = np.floor(np.maximum(np.maximum(new[0], new[1]), np.maximum(top[0], top[1])))
        totals += shift
        top, bottom = new - shift, top - shift
    shifts = totals.tolist()
    d, d_prev = 0.0, -math.inf
    for (p00, p01), (p10, p11) in zip(top.T.tolist(), bottom.T.tolist()):
        d, d_prev = _logaddexp(p00 + d, p01 + d_prev), _logaddexp(p10 + d, p11 + d_prev)
        top_d = max(d, d_prev)
        shifts.append(top_d)
        d, d_prev = d - top_d, d_prev - top_d
    return math.fsum([*shifts, d])


# the largest n whose spectrum ``omega_spectrum`` takes (a dense n x n matrix)
SPECTRUM_MAX_N = 1024


def omega_spectrum(A: JacobiMatrix) -> np.ndarray:
    """Ascending eigenvalues of the gauge-transformed zero-diagonal part,
    by numpy's dense symmetric eigensolver (``eigvalsh``), which is
    backward stable: each eigenvalue is exact to a small multiple of eps
    times the largest |eigenvalue|.  The matrix is dense, so n is capped at
    ``SPECTRUM_MAX_N``; a larger n is refused."""
    if A.n > SPECTRUM_MAX_N:
        raise CapacityError(f"the Jacobi spectrum supports n <= {SPECTRUM_MAX_N} layers, got n={A.n}")
    # eigvalsh reads the lower triangle alone
    return np.linalg.eigvalsh(np.diag(np.exp(0.5 * A.gauge()), -1))


def resolvent_U(A: JacobiMatrix, x: float = 0.0) -> float:
    """Mean unpaired-vertex count via the spectrum:
    e^{2x} tr[(Omega~^2 + e^{2x} I)^{-1}]."""
    lam = omega_spectrum(A)
    return float(np.sum(1.0 / (1.0 + _squared_tilted(lam, x))))

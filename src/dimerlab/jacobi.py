"""Tridiagonal cross-checks for single-vertex fibers (h = 1).

A width-1 cylinder is a path, and its partition function equals |det A_n|
for the tridiagonal matrix with diagonal entries sqrt(-1) * e^{nu_k} and
off-diagonal entries e^{omega_k / 2}.  Everything here is phrased through
two real arrays (log diagonal magnitudes, log edge weights): the
imaginary unit only sets the phase sqrt(-1)^n of the determinant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment
from .leeyang import _squared_tilted


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
    """log |det A_n| by the three-term recurrence, in ratio form.

    D_k = sqrt(-1) e^{nu_k} D_{k-1} - e^{omega_{k-1}} D_{k-2}, and both
    terms carry the phase sqrt(-1)^k whatever the weights, so |D_k| obeys
    the same recurrence with positive terms and the phase of det A_n is
    sqrt(-1)^n.  The magnitude equals the partition function of the
    corresponding path.  It is the product of the ratios
    r_k = |D_k| / |D_{k-1}|, with log r_1 = nu_1 and log r_k =
    logaddexp(nu_k, omega_{k-1} - log r_{k-1}): every term stays the size of
    one row, and ``math.fsum`` adds the n logs exactly, so the rounding does
    not grow with the magnitude of log |det A_n|.  The recurrence runs on
    Python floats, read one at a time through memoryviews, where one step
    costs a fraction of a numpy scalar call.
    """
    nu, omega = memoryview(A.nu), memoryview(A.omega)

    def log_ratios():
        log_r = nu[0]
        yield log_r
        for k in range(2, A.n + 1):
            log_r = _logaddexp(nu[k - 1], omega[k - 2] - log_r)
            yield log_r

    return math.fsum(log_ratios())


def omega_spectrum(A: JacobiMatrix) -> np.ndarray:
    """Ascending eigenvalues of the gauge-transformed zero-diagonal part."""
    from scipy.linalg import eigvalsh_tridiagonal

    if A.n == 1:
        return np.zeros(1)
    off = np.exp(0.5 * A.gauge())
    return eigvalsh_tridiagonal(np.zeros(A.n), off)


def resolvent_U(A: JacobiMatrix, x: float = 0.0) -> float:
    """Mean unpaired-vertex count via the spectrum:
    e^{2x} tr[(Omega~^2 + e^{2x} I)^{-1}]."""
    lam = omega_spectrum(A)
    return float(np.sum(1.0 / (1.0 + _squared_tilted(lam, x))))


@dataclass
class LyapunovEntry:
    n: int
    f_hat: float        # log Z / n
    gamma_hat: float    # log Z~ / n (gauge-transformed growth rate)
    nu_bar: float       # empirical mean vertex weight
    gap: float          # |f_hat - gamma_ref - nu_bar|


@dataclass
class LyapunovReport:
    gamma_ref: float
    entries: list[LyapunovEntry]

    def gaps(self) -> np.ndarray:
        return np.array([e.gap for e in self.entries])


def lyapunov_check(ladder, reference=None) -> LyapunovReport:
    """Growth-rate consistency across a ladder of path instances.

    The free energy per layer should match the gauge-transformed growth
    rate plus the mean vertex weight.  The reference rate is taken from an
    independent instance (by default the last ladder entry) so the ladder
    gaps are a genuine convergence diagnostic rather than an identity.
    """
    ladder = list(ladder)
    if not ladder:
        raise ValueError("empty ladder")
    if reference is None:
        reference = ladder[-1]
    g_ref, w_ref = reference
    A_ref = JacobiMatrix.from_weights(g_ref, w_ref)
    gamma_ref = (det_abs(A_ref) - w_ref.nu.sum()) / g_ref.n
    entries = []
    for g, w in ladder:
        A = JacobiMatrix.from_weights(g, w)
        log_z = det_abs(A)
        nu_sum = float(w.nu.sum())
        f_hat = log_z / g.n
        gamma_hat = (log_z - nu_sum) / g.n
        nu_bar = nu_sum / g.n
        entries.append(
            LyapunovEntry(
                n=g.n,
                f_hat=f_hat,
                gamma_hat=gamma_hat,
                nu_bar=nu_bar,
                gap=abs(f_hat - gamma_ref - nu_bar),
            )
        )
    return LyapunovReport(gamma_ref=float(gamma_ref), entries=entries)

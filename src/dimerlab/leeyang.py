"""Zero structure of monic monomer-count polynomials.

For gauge-transformed weights (all vertex weights zero) the partition
function in the variable w = exp(x) is a monic degree-N polynomial with
nonnegative coefficients and fixed parity, and it factors as

    Z(w) = w^z0 * prod_i (w^2 + lambda_i^2),

i.e. all zeroes lie on the imaginary axis at +-i lambda.  This module
extracts the positive half-spectrum {lambda_i} together with the
multiplicity of the zero at the origin, and evaluates the spectral-measure
functionals (mean monomer density and quenched variance density at a tilt)
as finite sums over the signed atom multiset, whose mass per layer is h.

Double-precision coefficients pin these zeros only for small polynomials,
so ``spectrum`` refuses a degree N = n*h past ``EXTRACTION_MAX_N`` before
any work: past it a spectrum that passes the root guards measured up to
2e-9 off the exact cumulant densities (see the README's numerical scope).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CylinderGraph, WeightAssignment, edge_ends, gauge
from .transfer import NEG_INF, MonomerPolynomial


# the largest degree N = n*h whose zeros are extracted from float64 coefficients
EXTRACTION_MAX_N = 32


class SpectrumError(ArithmeticError):
    """The polynomial does not have the expected imaginary zero structure,
    or its zeros lie past what its coefficients resolve."""


class NonImaginaryZeroError(SpectrumError):
    pass


class ReconstructionError(SpectrumError):
    pass


@dataclass(frozen=True)
class LeeYangSpectrum:
    """Positive half-spectrum, zero multiplicity, and polynomial degree."""

    lambdas: tuple[float, ...]
    zero_mult: int
    N: int

    def __post_init__(self):
        if 2 * len(self.lambdas) + self.zero_mult != self.N:
            raise ValueError(
                f"2*{len(self.lambdas)} + {self.zero_mult} != N={self.N}"
            )

    def signed_atoms(self) -> np.ndarray:
        """All N zero locations -lambda, 0, +lambda in ascending order."""
        lam = np.asarray(self.lambdas)
        return np.concatenate([-lam[::-1], np.zeros(self.zero_mult), lam])

    def max_abs(self) -> float:
        return max(self.lambdas) if self.lambdas else 0.0


def _even_part_log_coeffs(p: MonomerPolynomial) -> tuple[np.ndarray, int]:
    """Log coefficients c_r of P(s) with Z(w) = w^(N mod 2) P(w^2)."""
    if p.mask_size != p.N:
        raise ValueError("spectrum needs a fully counted polynomial (mask = all)")
    if abs(p.log_coeffs[-1]) > 1e-9:
        raise ValueError(
            "polynomial is not monic; compute it from gauge-transformed weights"
        )
    parity = p.N % 2
    lc = p.log_coeffs
    bad = [j for j in range(p.N + 1) if j % 2 != parity and lc[j] != NEG_INF]
    if bad:
        raise ValueError(f"coefficient parity violated at indices {bad}")
    return lc[parity::2], parity


def check_extractable(N: int) -> None:
    """Refuse a polynomial of degree N past ``EXTRACTION_MAX_N``."""
    if N > EXTRACTION_MAX_N:
        raise SpectrumError(
            f"zero extraction refused: N={N} > extraction limit {EXTRACTION_MAX_N}"
            " (N = n*h vertices; double-precision coefficients do not resolve the zeros past it)"
        )


def spectrum(
    p: MonomerPolynomial,
    imag_tol: float = 1e-7,
    recon_tol: float = 1e-8,
) -> LeeYangSpectrum:
    """Extract the imaginary-axis zeroes of a monic monomer polynomial.

    The substitution s = w^2 halves the degree; the s-roots are found from
    the (balanced) companion matrix after rescaling the coefficients into
    unit range, and each s-root must sit on the negative real axis within
    ``imag_tol``.  The factored form is expanded again in log space and has
    to reproduce every coefficient to ``recon_tol`` relative error.  A
    degree N past ``EXTRACTION_MAX_N`` is refused before any of this
    (``check_extractable``).
    """
    check_extractable(p.N)
    c, parity = _even_part_log_coeffs(p)
    zero_mult = parity
    # exact zero roots in s: strip vanishing low-order coefficients
    start = 0
    while start < c.size - 1 and c[start] == NEG_INF:
        start += 1
    zero_mult += 2 * start
    c = c[start:]
    q = c.size - 1
    lambdas: list[float] = []
    if q > 0:
        # rescale s -> (e^t)^2 s so the largest coefficient is about 1
        finite = np.isfinite(c[:-1])
        t = 0.0
        if finite.any():
            r = np.arange(q)[finite]
            t = max(0.0, float(np.max(c[:-1][finite] / (2.0 * (q - r)))))
        coeff = np.exp(c - 2.0 * t * (q - np.arange(q + 1)))
        roots = np.roots(coeff[::-1])  # descending powers
        wroots = np.sqrt(-roots)       # candidate lambdas (scaled)
        dev = np.abs(wroots.imag)
        bad = dev > imag_tol * (1.0 + np.abs(wroots))
        if bad.any():
            worst = roots[np.argmax(dev)] * np.exp(2.0 * t)
            raise NonImaginaryZeroError(f"zero off the imaginary axis: s-root {worst}")
        lambdas = sorted(float(v) for v in np.abs(wroots) * np.exp(t))
    spec = LeeYangSpectrum(tuple(lambdas), zero_mult, p.N)
    _check_reconstruction(p, spec, recon_tol)
    return spec


def _check_reconstruction(p: MonomerPolynomial, spec: LeeYangSpectrum, tol: float) -> None:
    c_ref, parity = _even_part_log_coeffs(p)
    q = c_ref.size - 1
    shift = (spec.zero_mult - parity) // 2
    # expand prod (s + lambda^2) in log space; all terms nonnegative
    acc = np.full(q + 1, NEG_INF)
    acc[shift] = 0.0
    for lam in spec.lambdas:
        ll = 2.0 * np.log(lam) if lam > 0 else NEG_INF
        nxt = np.full_like(acc, NEG_INF)
        nxt[1:] = acc[:-1]
        acc = np.logaddexp(nxt, acc + ll)
    finite = np.isfinite(c_ref)
    if not np.array_equal(finite, np.isfinite(acc)):
        raise ReconstructionError("support mismatch between roots and coefficients")
    rel = np.abs(np.expm1(acc[finite] - c_ref[finite]))
    if rel.size and rel.max() > tol:
        raise ReconstructionError(
            f"root product misses coefficients (relative error {rel.max():.3e})"
        )


def localization_bound(g: CylinderGraph, w: WeightAssignment) -> float:
    """Max over vertices of the gauge-weighted degree, the sum of exp(gauge
    weight) over the edges at the vertex; bounds every zero.  The terms are
    added edge by edge in canonical order, to both endpoints."""
    degree = np.zeros(g.num_vertices)
    np.add.at(degree, edge_ends(g).T.reshape(-1), np.repeat(np.exp(gauge(g, w)), 2))
    return float(degree.max())


def localization_check(
    g: CylinderGraph, w: WeightAssignment, spec: LeeYangSpectrum, slack: float = 1e-9
) -> tuple[float, bool]:
    bound = localization_bound(g, w)
    return bound, spec.max_abs() <= bound + slack


# ---------------------------------------------------------------------------
# spectral measure functionals
# ---------------------------------------------------------------------------

def _squared_tilted(atoms: np.ndarray, x: float) -> np.ndarray:
    """lambda^2 exp(-2x) per atom, computed in log space to dodge overflow."""
    out = np.zeros_like(atoms)
    nz = atoms != 0.0
    with np.errstate(over="ignore"):
        out[nz] = np.exp(2.0 * np.log(np.abs(atoms[nz])) - 2.0 * x)
    return out


def density_functionals(
    spec: LeeYangSpectrum, x: float, n_layers: int
) -> tuple[float, float]:
    """Mean and quenched-variance densities of the monomer count at tilt x.

    Both are finite sums over the signed atom multiset divided by the layer
    count: u_n = (1/n) sum 1/(1 + lambda^2 e^{-2x}) and varQ_n = (1/n) sum
    2 lambda^2 e^{-2x} / (1 + lambda^2 e^{-2x})^2.  They match the exact
    coefficient cumulants divided by n.
    """
    atoms = np.asarray(spec.signed_atoms())
    t = _squared_tilted(atoms, x)
    with np.errstate(invalid="ignore"):
        f1 = np.where(np.isinf(t), 0.0, 1.0 / (1.0 + t))
        var_terms = np.where(np.isinf(t), 0.0, 2.0 * t / (1.0 + t) ** 2)
    return float(f1.sum() / n_layers), float(var_terms.sum() / n_layers)


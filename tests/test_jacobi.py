from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from dimerlab.graphs import (
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    sample_weights,
)
from dimerlab.jacobi import (
    SPECTRUM_MAX_N,
    JacobiMatrix,
    _logaddexp,
    det_abs,
    omega_spectrum,
    resolvent_U,
)
from dimerlab.leeyang import spectrum
from dimerlab.transfer import CapacityError, partition_polynomial, scalar_log_z

from helpers import STD_NORMAL, gauged


def _chain(n, seed, stream=0, disorder=STD_NORMAL):
    g = build_cylinder(n, HGraph.single())
    return g, sample_weights(g, disorder, RngSeed(seed, stream))


def test_from_weights_requires_single_vertex_fiber():
    g = build_cylinder(4, HGraph.path(2))
    with pytest.raises(ValueError):
        JacobiMatrix.from_weights(g, WeightAssignment.constant(g))


def test_shape_validation():
    with pytest.raises(ValueError):
        JacobiMatrix(np.zeros(4), np.zeros(4))  # off-diagonal must be n-1


def test_determinant_identity_matches_partition_value():
    for n in (2, 5, 17, 64, 256, 512):
        g, w = _chain(n, seed=n)
        A = JacobiMatrix.from_weights(g, w)
        assert det_abs(A) == pytest.approx(scalar_log_z(g, w), abs=1e-9)


def _mp_log_det(A: JacobiMatrix) -> mpmath.mpf:
    """log |det A_n| from the three-term recurrence on the magnitudes in
    40-digit arithmetic, whose exponent range needs no logs."""
    with mpmath.workdps(40):
        prev2, prev = mpmath.mpf(1), mpmath.exp(A.nu[0])
        for nu, om in zip(A.nu[1:].tolist(), A.omega.tolist()):
            prev2, prev = prev, mpmath.exp(nu) * prev + mpmath.exp(om) * prev2
        return mpmath.log(prev)


def test_long_chain_log_z_matches_extended_precision():
    # log Z is about 1.1e4 here: a sum of layer terms carried at that size
    # would drift by several 1e-11, and both routes stay within 1e-11
    for seed in (1, 3):
        g, w = _chain(16384, seed=seed)
        A = JacobiMatrix.from_weights(g, w)
        ref = _mp_log_det(A)
        for got in (scalar_log_z(g, w), det_abs(A)):
            assert abs(mpmath.mpf(got) - ref) <= 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097])
def test_det_abs_at_block_boundaries_matches_extended_precision(n):
    # n = K^2 and K^2 +- 1 put the block boundaries of the blocked product
    # at every offset of the padding
    for disorder in (STD_NORMAL, DisorderSpec(Law.normal(0.0, 30.0), Law.normal(0.0, 30.0))):
        A = JacobiMatrix.from_weights(*_chain(n, seed=n, disorder=disorder))
        assert abs(mpmath.mpf(det_abs(A)) - _mp_log_det(A)) <= 1e-11


@pytest.mark.parametrize("n", [16, 17, 256, 257])
def test_det_abs_with_disabled_edges_at_and_inside_block_boundaries(n):
    g, w = _chain(n, seed=7)
    K = math.isqrt(n - 1) + 1
    L = -(-n // K)
    omega = w.omega_h[:, 0].copy()
    # step k (1-based) reads omega[k - 2]; block b starts at step b * L + 1
    for k in (L + 1, L, 2 * L + 2, n):
        omega[k - 2] = -np.inf
    A = JacobiMatrix(w.nu[:, 0], omega)
    assert abs(mpmath.mpf(det_abs(A)) - _mp_log_det(A)) <= 1e-11
    # every edge disabled: the empty matching alone
    A = JacobiMatrix(w.nu[:, 0], np.full(n - 1, -np.inf))
    assert det_abs(A) == pytest.approx(float(w.nu.sum()), abs=1e-11)


def test_float_logaddexp_is_numpys_bit_for_bit():
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.normal(0.0, 30.0, 2000), [0.0, -np.inf, -np.inf, 7.5, 1e300]])
    b = np.concatenate([rng.normal(0.0, 30.0, 2000), [0.0, -np.inf, 2.0, 7.5, 1e300]])
    b[:100] = a[:100]
    got = np.array([_logaddexp(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(got, np.logaddexp(a, b))


def test_matrix_gauge_shifts_log_determinant():
    g, w = _chain(33, seed=3)
    A = JacobiMatrix.from_weights(g, w)
    assert det_abs(A.gauged()) == pytest.approx(
        det_abs(A) - w.nu.sum(), abs=1e-9
    )
    assert np.allclose(A.gauged().nu, 0.0)


def test_eigenvalues_are_the_signed_zero_multiset():
    for n in (2, 5, 8, 13, 16, 20):
        g, w = _chain(n, seed=100 + n)
        lam = omega_spectrum(JacobiMatrix.from_weights(g, w))
        sp = spectrum(partition_polynomial(g, gauged(w)))
        assert np.max(np.abs(np.sort(lam) - sp.signed_atoms())) <= 1e-8


def test_spectrum_matches_the_tridiagonal_eigensolver():
    # numpy's dense eigensolver against scipy's tridiagonal one, at every
    # size the jacobi command lists, with a disabled edge from n = 8 on
    from scipy.linalg import eigvalsh_tridiagonal

    for n in range(1, 65):
        g, w = _chain(n, seed=1500 + n)
        oh = np.array(w.omega_h, copy=True)
        if n >= 8:
            oh[n // 2, 0] = -np.inf
        A = JacobiMatrix.from_weights(g, WeightAssignment(g, w.nu, oh, w.omega_v))
        lam = omega_spectrum(A)
        ref = eigvalsh_tridiagonal(np.zeros(n), np.exp(0.5 * A.gauge()))
        assert lam.shape == (n,) and np.all(np.diff(lam) >= 0.0), n
        assert np.max(np.abs(lam - ref)) <= 1e-12 * np.max(np.abs(ref), initial=0.0), n


def test_spectrum_past_its_cap_is_refused():
    n = SPECTRUM_MAX_N + 1
    A = JacobiMatrix(np.zeros(n), np.zeros(n - 1))
    with pytest.raises(CapacityError, match=f"^the Jacobi spectrum supports n <= {SPECTRUM_MAX_N}"
                                            f" layers, got n={n}$"):
        omega_spectrum(A)
    with pytest.raises(CapacityError, match=f"got n={n}$"):
        resolvent_U(A)


def test_resolvent_matches_mean_unpaired_count():
    for n in (3, 9, 31, 128):
        g, w = _chain(n, seed=500 + n)
        A = JacobiMatrix.from_weights(g, w)
        p = partition_polynomial(g, gauged(w))
        for x in (-0.7, 0.0, 1.3):
            assert resolvent_U(A, x) == pytest.approx(
                p.cumulants(x, 1)[0], abs=1e-8
            )
        # strong positive tilt turns every vertex into a monomer
        assert resolvent_U(A, 400.0) == pytest.approx(n, abs=1e-9)


def test_growth_rate_ladder_with_constant_weights():
    # deterministic chain: the free energy rate converges to the growth
    # rate (log|det A| - sum nu) / n of the gauge-transformed chain plus the
    # vertex weight; the reference rate is that of a longer, independent chain
    disorder = DisorderSpec(Law.constant(0.3), Law.constant(0.1))
    ladder = [_chain(n, seed=0, disorder=disorder) for n in (32, 64, 128, 256)]
    g_ref, w_ref = _chain(4096, seed=0, disorder=disorder)
    gamma_ref = (det_abs(JacobiMatrix.from_weights(g_ref, w_ref)) - w_ref.nu.sum()) / g_ref.n
    gaps = []
    for g, w in ladder:
        log_z = det_abs(JacobiMatrix.from_weights(g, w))
        f_hat, gamma_hat, nu_bar = log_z / g.n, (log_z - w.nu.sum()) / g.n, w.nu.sum() / g.n
        assert nu_bar == pytest.approx(0.3)
        assert f_hat == pytest.approx(gamma_hat + nu_bar)
        gaps.append(abs(f_hat - gamma_ref - nu_bar))
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-2

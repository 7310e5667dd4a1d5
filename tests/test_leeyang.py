from __future__ import annotations

import numpy as np
import pytest

from dimerlab import leeyang
from dimerlab.experiments import make_fiber
from dimerlab.graphs import (
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    gauge,
    sample_weights,
)
from dimerlab.leeyang import (
    EXTRACTION_MAX_N,
    NonImaginaryZeroError,
    SpectrumError,
    density_functionals,
    localization_bound,
    localization_check,
    spectrum,
)
from dimerlab.transfer import (
    NEG_INF, MonomerPolynomial, cut_moments, instance_tables, partition_polynomial,
)

from helpers import NONNEG_GAUGE, STD_NORMAL, gauged, layout_instances, random_instance
from oracle import localization_reference, vertex_removed_polynomial


def _gauged_spectrum(g, w, **kw):
    return spectrum(partition_polynomial(g, gauged(w)), **kw)


def test_two_vertex_spectrum_is_plus_minus_half_edge_weight():
    # single edge: Z~(w) = w^2 + e^{omega~}, zeros at +-i e^{omega~/2}
    g = build_cylinder(2, HGraph.single())
    for seed in range(20):
        w = sample_weights(g, STD_NORMAL, RngSeed(seed, 0))
        sp = _gauged_spectrum(g, w)
        lam = np.exp(0.5 * gauge(g, w)[0])
        assert sp.zero_mult == 0
        assert sp.lambdas[0] == pytest.approx(lam, abs=1e-12)


def test_spectrum_counts_and_symmetry():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g, w = random_instance(rng, n_lo=2, n_hi=6, max_vertices=16)
        sp = _gauged_spectrum(g, w)
        assert 2 * len(sp.lambdas) + sp.zero_mult == g.num_vertices
        atoms = sp.signed_atoms()
        assert atoms.size == g.num_vertices
        assert np.allclose(atoms, -atoms[::-1])
        assert np.all(np.diff(atoms) >= 0)


def test_spectrum_requires_monic_polynomial():
    rng = np.random.default_rng(43)
    g, w = random_instance(rng, n_lo=3, n_hi=3)
    with pytest.raises(ValueError, match="monic"):
        spectrum(partition_polynomial(g, w))


def test_spectrum_rejects_impostor_polynomial():
    # w^4 + w^2 + 1 is not a matching polynomial; its zeros leave the
    # imaginary axis and the guard must say so
    p = MonomerPolynomial([0.0, NEG_INF, 0.0, NEG_INF, 0.0], N=4)
    with pytest.raises(NonImaginaryZeroError):
        spectrum(p)


def test_root_extraction_breaks_down_at_large_degree():
    # double-precision coefficients cannot pin degree-256 zeros; the guard
    # must refuse rather than return garbage
    g = build_cylinder(256, HGraph.single())
    w = sample_weights(g, STD_NORMAL, RngSeed(123, 0))
    with pytest.raises(SpectrumError):
        _gauged_spectrum(g, w)


@pytest.mark.parametrize("law", ["normal(0,1)", "uniform(0,1)"])
@pytest.mark.parametrize("fiber", ["path(1)", "path(2)", "path(4)", "cycle(3)"])
def test_spectra_within_the_extraction_limit_give_the_cumulant_densities(fiber, law):
    # at the longest cylinder within the limit (N = 32, or 30 on cycle(3)),
    # every stream's zeros are extracted and give u_n and varQ_n to the
    # 1e-9 of the functional check, against the moment sweep's mean_U/n and
    # var_U/n
    H = make_fiber(fiber)
    n = EXTRACTION_MAX_N // H.h
    g = build_cylinder(n, H)
    disorder = DisorderSpec(Law.parse(law), Law.parse(law))
    for s in range(32):
        w = sample_weights(g, disorder, RngSeed(3, s))
        _, mean, var, *_ = cut_moments(instance_tables(g, w), n // 2)
        u, varq = density_functionals(_gauged_spectrum(g, w), 0.0, n)
        assert abs(u - mean[0] / n) <= 1e-9 and abs(varq - var[0] / n) <= 1e-9, s


@pytest.mark.parametrize("fiber, n, stream", [("path(4)", 11, 8), ("path(2)", 17, 0)])
def test_spectra_past_the_extraction_limit_are_refused_before_any_root(monkeypatch, fiber, n, stream):
    # N = 44: an extracted spectrum of this stream missed var_U/n by 2.0e-9,
    # past the functional check's 1e-9, though it passed the root guards;
    # N = 34: just past the limit.  Both are refused before np.roots runs
    monkeypatch.setattr(leeyang.np, "roots", lambda c: pytest.fail("np.roots ran"))
    g = build_cylinder(n, make_fiber(fiber))
    w = sample_weights(g, STD_NORMAL, RngSeed(3, stream))
    with pytest.raises(SpectrumError, match=f"^zero extraction refused: N={g.num_vertices}"
                                            f" > extraction limit {EXTRACTION_MAX_N} "):
        _gauged_spectrum(g, w)


def test_reconstruction_residual_small():
    rng = np.random.default_rng(47)
    for _ in range(8):
        g, w = random_instance(rng, n_lo=2, n_hi=8, max_vertices=18)
        sp = _gauged_spectrum(g, w, recon_tol=1e-10)  # tighter than default
        # rebuild the polynomial from its zeros and compare log|coeffs|
        poly = np.array([1.0])
        for lam in sp.lambdas:
            poly = np.convolve(poly, [1.0, 0.0, lam**2])
        poly = np.concatenate([poly, np.zeros(sp.zero_mult)])
        p = partition_polynomial(g, gauged(w))
        finite = np.isfinite(p.log_coeffs)
        recon = np.log(poly[::-1][finite[: poly.size]])
        assert np.max(np.abs(recon - p.log_coeffs[finite])) <= 1e-10


def test_interlacing_after_vertex_removal():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g, w = random_instance(rng, n_lo=2, n_hi=6, max_vertices=12)
        parent = _gauged_spectrum(g, w)
        v = (int(rng.integers(1, g.n + 1)), int(rng.integers(1, g.h + 1)))
        child = spectrum(vertex_removed_polynomial(g, gauged(w), v))
        # the ascending signed zeros p of the parent (N of them) and c of the
        # child (N - 1) interlace: p_k <= c_k <= p_{k+1}
        pa, ca = parent.signed_atoms(), child.signed_atoms()
        assert child.N == parent.N - 1 and ca.size == pa.size - 1
        assert np.all(pa[:-1] - 1e-9 <= ca) and np.all(ca <= pa[1:] + 1e-9)


def test_localization_bound_with_nonnegative_gauge_weights():
    rng = np.random.default_rng(61)
    for _ in range(20):
        g, w = random_instance(rng, n_lo=2, n_hi=8, max_vertices=18,
                               disorder=NONNEG_GAUGE)
        bound, ok = localization_check(g, w, _gauged_spectrum(g, w))
        assert ok, f"zero bound {bound} violated"


@pytest.mark.parametrize("dead", ["", "edges", "all"])
def test_localization_bound_matches_the_vertex_by_vertex_reference(dead):
    # the edge-by-edge accumulation adds each vertex's terms in the order of
    # the oracle's weighted degree: bit for bit, -inf weights included
    for g, w in layout_instances(5, dead):
        assert localization_bound(g, w) == localization_reference(w)


def test_empirical_measure_mass():
    rng = np.random.default_rng(67)
    g, w = random_instance(rng, n_lo=5, n_hi=5, fibers=["path3"])
    # N atoms over n layers: mass h per layer
    atoms = _gauged_spectrum(g, w).signed_atoms()
    assert len(atoms) / g.n == pytest.approx(g.h)


def test_density_functionals_match_coefficient_cumulants():
    rng = np.random.default_rng(71)
    for _ in range(5):
        g, w = random_instance(rng, n_lo=3, n_hi=7, max_vertices=16)
        p = partition_polynomial(g, gauged(w))
        sp = spectrum(p)
        for x in (-1.0, 0.0, 0.8):
            u, varq = density_functionals(sp, x, g.n)
            mean, var = p.cumulants(x, order=2)
            assert u == pytest.approx(mean / g.n, abs=1e-10)
            assert varq == pytest.approx(var / g.n, abs=1e-10)


def test_density_functionals_tilt_limits():
    # x -> +inf forces the all-monomer state, x -> -inf the max matching
    g = build_cylinder(4, HGraph.single())
    w = WeightAssignment.constant(g)
    sp = _gauged_spectrum(g, w)
    u_hi, varq_hi = density_functionals(sp, 50.0, g.n)
    u_lo, varq_lo = density_functionals(sp, -50.0, g.n)
    assert u_hi == pytest.approx(1.0, abs=1e-12)
    assert u_lo == pytest.approx(0.0, abs=1e-12)
    assert varq_hi == pytest.approx(0.0, abs=1e-12)
    assert varq_lo == pytest.approx(0.0, abs=1e-12)

"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a documented behavior of the package at the scale it
is promised to hold, with tolerances pinned in the assertions.  The
statistical checks use fixed seeds and wide (4-sigma) envelopes, so they
are deterministic reruns of a pre-verified draw rather than flaky
samplers.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

from dimerlab.experiments import (
    ExperimentConfig,
    brownian_fdd_check,
    clt_checks,
    estimate_limits,
    run_replicas,
)
from dimerlab.graphs import (
    DOMAIN_GIBBS,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    build_cylinder,
    gauge,
    rng_generator,
    sample_weights,
)
from dimerlab.groundstate import (
    gse_remainder,
    gse_remainder_bound,
    max_weight,
)
from dimerlab.jacobi import JacobiMatrix, det_abs, omega_spectrum, resolvent_U
from dimerlab.leeyang import (
    density_functionals,
    localization_check,
    spectrum,
)
from dimerlab.sampler import GibbsSampler, Matching, decode_moves, matching_weight
from dimerlab.transfer import (
    MonomerPolynomial,
    batch_tables,
    cut_moments,
    instance_tables,
    partition_polynomial,
    scalar_log_z,
)

from helpers import NONNEG_GAUGE, STD_NORMAL, gauged, lattice_floor, random_instance
from oracle import (
    batch_scalar_log_z, brute_force_max, brute_force_polynomial, edge_weight, edges, flat_index,
    kill_vertex_edges, neighbors, prefix_laws, remainder_R, remainder_upper_bound,
    vertex_removed_polynomial,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared replica tables (built once; a few seconds total)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def free_energy_ladder():
    cfg = ExperimentConfig(
        fiber="path(2)", n_ladder=(64, 128, 256, 512), replicas=1000,
        disorder=STD_NORMAL, seed=2026, with_ground=True,
    )
    return run_replicas(cfg)


@pytest.fixture(scope="module")
def clt_replicas():
    cfg = ExperimentConfig(
        fiber="path(2)", n_ladder=(256,), replicas=2000,
        disorder=STD_NORMAL, seed=777, with_ground=True,
    )
    return run_replicas(cfg)


# ---------------------------------------------------------------------------
# 1. transfer polynomial == exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_01_polynomial_matches_enumeration_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    bands = [(2, 16)] * 170 + [(17, 20)] * 25 + [(21, 22)] * 9
    worst = 0.0
    count = 0
    for lo, hi in bands:
        while True:
            g, w = random_instance(rng, n_lo=2, n_hi=11, max_vertices=hi)
            if g.num_vertices >= lo:
                break
        a = partition_polynomial(g, w).log_coeffs
        b = brute_force_polynomial(g, w).log_coeffs
        assert np.array_equal(np.isfinite(a), np.isfinite(b))
        fin = np.isfinite(a)
        worst = max(worst, float(np.max(np.abs(a[fin] - b[fin]), initial=0.0)))
        count += 1
    elapsed = time.monotonic() - t0
    assert count >= 200
    assert worst <= 1e-10
    assert elapsed < 60.0
    _report(1, f"{count} instances, max log-coefficient gap {worst:.2e}, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gauge identity
# ---------------------------------------------------------------------------

def test_criterion_02_gauge_identity():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(250):
        g, w = random_instance(rng, n_lo=2, n_hi=40)
        lhs = scalar_log_z(g, w)
        rhs = float(w.nu.sum()) + scalar_log_z(g, gauged(w))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9
    _report(2, f"250 instances, max |log Z - (sum nu + log Z~)| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. terminal-vertex recurrence
# ---------------------------------------------------------------------------

def test_criterion_03_terminal_vertex_recurrence():
    # Z = e^{nu_v} Z(without v) + sum over edges uv of e^{omega} Z(without u,v)
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(120):
        g, w = random_instance(rng, n_lo=3, n_hi=6, max_vertices=12)
        v = (g.n, int(rng.integers(1, g.h + 1)))
        total = np.exp(w.nu[v[0] - 1, v[1] - 1]
                       + vertex_removed_polynomial(g, w, v).log_z())
        for u in neighbors(g, v):
            kw = kill_vertex_edges(w, [v])
            pair = (vertex_removed_polynomial(g, kw, u).log_z()
                    - kw.nu[v[0] - 1, v[1] - 1])
            total += np.exp(edge_weight(w, u, v) + pair)
        worst = max(worst, abs(np.log(total) - scalar_log_z(g, w)))
    assert worst <= 1e-9
    _report(3, f"120 terminal-vertex checks, max residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. zero structure: imaginary axis, interlacing, localization
# ---------------------------------------------------------------------------

def test_criterion_04_zero_structure():
    rng = np.random.default_rng(44)
    # (a) single edge: zeros at +- i exp(gauge weight / 2), to 1e-12
    g2 = build_cylinder(2, HGraph.single())
    for _ in range(60):
        w = sample_weights(g2, STD_NORMAL, RngSeed(int(rng.integers(2**32)), 0))
        sp = spectrum(partition_polynomial(g2, gauged(w)))
        assert sp.zero_mult == 0
        assert abs(sp.lambdas[0] - math.exp(0.5 * gauge(g2, w)[0])) <= 1e-12

    # (b) rebuilding the polynomial from the zero multiset
    recon_worst = 0.0
    for _ in range(40):
        g, w = random_instance(rng, n_lo=2, n_hi=9, max_vertices=18)
        p = partition_polynomial(g, gauged(w))
        sp = spectrum(p)
        poly = np.array([1.0])
        for lam in sp.lambdas:
            poly = np.convolve(poly, [1.0, 0.0, lam**2])
        poly = np.concatenate([poly, np.zeros(sp.zero_mult)])
        fin = np.isfinite(p.log_coeffs)
        recon = np.log(poly[::-1][fin])
        recon_worst = max(recon_worst,
                          float(np.max(np.abs(recon - p.log_coeffs[fin]))))
    assert recon_worst <= 1e-8

    # (c) interlacing after vertex removal, 500 randomized checks
    inter_ok = 0
    for _ in range(500):
        g, w = random_instance(rng, n_lo=2, n_hi=7, max_vertices=14)
        parent = spectrum(partition_polynomial(g, gauged(w)))
        v = (int(rng.integers(1, g.n + 1)), int(rng.integers(1, g.h + 1)))
        child = spectrum(vertex_removed_polynomial(g, gauged(w), v))
        # the ascending signed zeros p of the parent and c of the child
        # interlace: p_k <= c_k <= p_{k+1}
        pa, ca = parent.signed_atoms(), child.signed_atoms()
        inter_ok += bool(np.all(pa[:-1] - 1e-9 <= ca) and np.all(ca <= pa[1:] + 1e-9))
    assert inter_ok == 500

    # (d) weighted-degree localization, 500 randomized checks in the
    # nonnegative-gauge-weight regime where the bound is guaranteed
    loc_ok = 0
    for _ in range(500):
        g, w = random_instance(rng, n_lo=2, n_hi=9, max_vertices=18,
                               disorder=NONNEG_GAUGE)
        sp = spectrum(partition_polynomial(g, gauged(w)))
        loc_ok += localization_check(g, w, sp)[1]
    assert loc_ok == 500
    _report(4, f"60 two-vertex exact, recon residual {recon_worst:.2e}, "
               f"interlacing {inter_ok}/500, localization {loc_ok}/500")


# ---------------------------------------------------------------------------
# 5. cumulant consistency across the three routes
# ---------------------------------------------------------------------------

def test_criterion_05_cumulant_routes_agree():
    rng = np.random.default_rng(55)
    x_grid = np.linspace(-2.0, 2.0, 17)
    eta = 1e-3
    worst_spec = 0.0
    worst_fd = 0.0
    for _ in range(25):
        g, w = random_instance(rng, n_lo=2, n_hi=10, max_vertices=20)
        p = partition_polynomial(g, gauged(w))
        sp = spectrum(p)
        for x in x_grid:
            mean, var = p.cumulants(float(x), 2)
            u_s, vq_s = density_functionals(sp, float(x), g.n)
            worst_spec = max(worst_spec, abs(u_s - mean / g.n),
                             abs(vq_s - var / g.n))
            lzp = scalar_log_z(g, w, float(x) + eta)
            lzm = scalar_log_z(g, w, float(x) - eta)
            lz0 = scalar_log_z(g, w, float(x))
            u_fd = (lzp - lzm) / (2 * eta)
            v_fd = (lzp - 2 * lz0 + lzm) / eta**2
            worst_fd = max(worst_fd, abs(u_fd - mean) / max(abs(mean), 1e-9),
                           abs(v_fd - var) / max(abs(var), 1e-9))
    assert worst_spec <= 1e-9
    assert worst_fd <= 1e-5
    _report(5, f"25 instances x 17 tilts: spectral gap {worst_spec:.2e}, "
               f"finite-difference relative gap {worst_fd:.2e}")


# ---------------------------------------------------------------------------
# 6. remainder bounds
# ---------------------------------------------------------------------------

def test_criterion_06_remainder_bounds():
    laws = [
        STD_NORMAL,
        DisorderSpec(Law.uniform(-2.0, 1.0), Law.parse("exponential_shift(1.0, -0.5)")),
        DisorderSpec(Law.normal(1.0, 2.0), Law.uniform(-1.0, 3.0)),
    ]
    rng = np.random.default_rng(66)
    checks = 0
    for disorder in laws:
        for _ in range(70):
            g, w = random_instance(rng, n_lo=3, n_hi=24, disorder=disorder)
            cuts = zip(range(1, g.n), remainder_R(g, w), gse_remainder(g, w),
                       gse_remainder_bound(g, w), strict=True)
            for k, r, rg, bound in cuts:
                assert -1e-9 <= r <= remainder_upper_bound(g, w, k) + 1e-9
                assert -1e-9 <= rg <= bound + 1e-9
                checks += 2
    _report(6, f"{checks} remainder checks over every cut of 210 instances, "
               f"all inside the bounds")


# ---------------------------------------------------------------------------
# 7. law of large numbers and variance rate of log Z
# ---------------------------------------------------------------------------

def test_criterion_07_free_energy_rate_converges(free_energy_ladder):
    est = estimate_limits(free_energy_ladder)
    assert est.n_top == 512 and est.replicas == 1000
    assert est.drift["f"] < 0.01
    assert est.drift["var_f"] < 0.10
    assert est.sigma2_F > 3.0 * est.se["sigma2_F"] > 0.0
    _report(7, f"f drift {est.drift['f']:.4%}, var_f drift "
               f"{est.drift['var_f']:.2%}, sigma2_F {est.sigma2_F:.4f} >> 0")


# ---------------------------------------------------------------------------
# 8. CLT for log Z
# ---------------------------------------------------------------------------

def test_criterion_08_log_partition_normality(clt_replicas):
    entry, = clt_checks(clt_replicas, metrics=("log_z",)).entries
    assert entry.count == 2000
    assert abs(entry.skew) <= 0.15
    assert abs(entry.ex_kurtosis) <= 0.3
    assert entry.ks <= 0.035
    _report(8, f"n=256, 2000 replicas: skew {entry.skew:+.3f}, "
               f"ex.kurt {entry.ex_kurtosis:+.3f}, KS {entry.ks:.4f}")


# ---------------------------------------------------------------------------
# 9. quenched CLT for the monomer count
# ---------------------------------------------------------------------------

def test_criterion_09_quenched_normality_improves_with_length():
    # The count lives on a parity lattice, so the sup-distance has an
    # irreducible floor of about 0.4/(sigma sqrt(n)); the 0.05 envelope at
    # n=256 therefore needs sigma*sqrt(n) >= 8.5 or so.  Disorder of scale
    # 0.5 keeps the quenched sigma in that range for every environment
    # (unit-variance disorder pins harder and sits right on the floor).
    disorder = DisorderSpec(Law.normal(0.0, 0.5), Law.normal(0.0, 0.5))
    g = build_cylinder(256, HGraph.single())
    decreasing = 0
    worst_top = 0.0
    ks = (32, 64, 128, 256)
    for env in range(100):
        tables = instance_tables(g, sample_weights(g, disorder, RngSeed(31415, env)))
        # the exact count law of the prefix cylinder of layers 1..k is the
        # message after layer k of the oracle's layer degree sweep, at the
        # empty reserved set
        ds = [lattice_floor(MonomerPolynomial(lc[: k * g.h + 1, 0], k * g.h).pmf())
              for k, lc in enumerate(prefix_laws(tables), start=1) if k in ks]
        worst_top = max(worst_top, ds[-1])
        decreasing += all(b < a for a, b in zip(ds, ds[1:]))
    assert worst_top <= 0.05
    assert decreasing >= 95
    _report(9, f"100 environments: max distance at n=256 is {worst_top:.4f}, "
               f"{decreasing} ladders strictly decreasing")


# ---------------------------------------------------------------------------
# 10. joint sections: vanishing covariance, split variances
# ---------------------------------------------------------------------------

def test_criterion_10_section_laws_split():
    worst_cov = 0.0
    g = build_cylinder(256, HGraph.path(2))
    for env in range(12):
        w = sample_weights(g, STD_NORMAL, RngSeed(4242, env))
        _, _, var_u, _, _, cov = (float(v[0]) for v in cut_moments(instance_tables(g, w), 128))
        worst_cov = max(worst_cov, abs(cov / g.n) / (var_u / g.n))
    assert worst_cov <= 0.02

    worst_var = 0.0
    g = build_cylinder(512, HGraph.path(2))
    for env in range(6):
        w = sample_weights(g, STD_NORMAL, RngSeed(4243, env))
        _, _, var_u, var_l, var_r, _ = (float(v[0]) for v in cut_moments(instance_tables(g, w), 256))
        t, sigma2_q = 256 / g.n, var_u / g.n
        worst_var = max(worst_var, abs((var_l / g.n) / (t * sigma2_q) - 1.0),
                        abs((var_r / g.n) / ((1.0 - t) * sigma2_q) - 1.0))
    assert worst_var <= 0.10
    _report(10, f"cov ratio <= {worst_cov:.4f} over 12 environments, "
                f"section variance ratios within {worst_var:.2%} at n=512")


# ---------------------------------------------------------------------------
# 11. annealed CLT in the bounded negative-weight regime
# ---------------------------------------------------------------------------

def test_criterion_11_annealed_variance_positive():
    # gauge weights land in [-2.2, -1.2] < -log 3 = -log(max degree), the
    # regime where the Gibbs-averaged count genuinely fluctuates with the
    # environment
    bounded = DisorderSpec(Law.uniform(0.0, 0.2), Law.uniform(-1.8, -1.2))
    cfg = ExperimentConfig(
        fiber="path(2)", n_ladder=(256,), replicas=2000,
        disorder=bounded, seed=909, with_ground=False,
    )
    table = run_replicas(cfg)
    est = estimate_limits(table)
    assert est.sigma2_A > 3.0 * est.se["sigma2_A"] > 0.0
    entry, = clt_checks(table, metrics=("mean_U",)).entries
    assert abs(entry.skew) <= 0.15
    assert abs(entry.ex_kurtosis) <= 0.3
    assert entry.ks <= 0.035
    _report(11, f"sigma2_A {est.sigma2_A:.3e} > 3 SE; <U> normality: "
                f"skew {entry.skew:+.3f}, ex.kurt {entry.ex_kurtosis:+.3f}, "
                f"KS {entry.ks:.4f}")


# ---------------------------------------------------------------------------
# 12. Brownian finite-dimensional distributions of the height
# ---------------------------------------------------------------------------

def test_criterion_12_height_increments_are_brownian():
    cfg = ExperimentConfig(
        fiber="path(2)", n_ladder=(512,), replicas=2, disorder=STD_NORMAL,
        seed=1618, gibbs_samples=1000, height_envs=1,
        t_grid=tuple(np.linspace(0.0, 1.0, 9)),
    )
    # exact quenched variance rate of this one environment
    g = build_cylinder(512, HGraph.path(2))
    w = sample_weights(g, STD_NORMAL, RngSeed(1618, 0))
    _, var = partition_polynomial(g, w).cumulants(0.0, 2)
    rep = brownian_fdd_check(cfg, sigma2=var / g.n)
    assert rep.samples == 1000
    assert np.all(np.abs(rep.var_ratios - 1.0) <= 0.15)
    assert rep.max_abs_corr <= 0.10
    # each 64-layer section count is an integer, so its law keeps an
    # irreducible lattice distance from normal; the raw KS envelope is
    # that exact floor plus the sampling term, while the empirical CDF
    # must track the exact law within the sampling term alone
    assert np.all(rep.ks_exact <= rep.ks_envelope)
    assert np.all(rep.ks_stats <= rep.lattice_floors + rep.ks_envelope)
    assert rep.normality_ok()
    _report(12, f"8 dyadic increments at n=512: var ratios within "
                f"{np.max(np.abs(rep.var_ratios - 1)):.2%}, max |corr| "
                f"{rep.max_abs_corr:.3f}, exact-law KS {rep.ks_exact.max():.4f}"
                f" <= {rep.ks_envelope:.4f}, raw KS within lattice floor "
                f"+ envelope")


# ---------------------------------------------------------------------------
# 13. tridiagonal (chain) route
# ---------------------------------------------------------------------------

def test_criterion_13_tridiagonal_identities_and_growth_rate():
    # (a) |det| reproduces the partition value up to n = 512
    worst_det = 0.0
    for n in (2, 3, 5, 8, 13, 32, 64, 128, 256, 512):
        g = build_cylinder(n, HGraph.single())
        w = sample_weights(g, STD_NORMAL, RngSeed(1300 + n, 0))
        worst_det = max(worst_det, abs(det_abs(JacobiMatrix.from_weights(g, w))
                                       - scalar_log_z(g, w)))
    assert worst_det <= 1e-9

    # (b) eigenvalues of the gauged chain matrix = signed zero multiset
    worst_eig = 0.0
    for n in (2, 4, 7, 11, 16, 20):
        g = build_cylinder(n, HGraph.single())
        w = sample_weights(g, STD_NORMAL, RngSeed(1350 + n, 0))
        lam = np.sort(omega_spectrum(JacobiMatrix.from_weights(g, w)))
        sp = spectrum(partition_polynomial(g, gauged(w)))
        worst_eig = max(worst_eig,
                        float(np.max(np.abs(lam - sp.signed_atoms()))))
    assert worst_eig <= 1e-8

    # (c) resolvent identity for the mean monomer count
    worst_res = 0.0
    for n in (64, 256, 512):
        g = build_cylinder(n, HGraph.single())
        w = sample_weights(g, STD_NORMAL, RngSeed(1400 + n, 0))
        A = JacobiMatrix.from_weights(g, w)
        p = partition_polynomial(g, gauged(w))
        for x in (-0.5, 0.0, 1.0):
            worst_res = max(worst_res,
                            abs(resolvent_U(A, x) - p.cumulants(x, 1)[0]))
    assert worst_res <= 1e-8

    # (d) free-energy rate minus the mean vertex weight approaches the
    # growth rate of the gauged chain; replica-averaged gaps shrink
    reps = 160

    def batch_log_z(n, seed_base):
        g = build_cylinder(n, HGraph.single())
        nu_b, oh_b, ov_b = [], [], []
        for r in range(reps):
            w = sample_weights(g, STD_NORMAL, RngSeed(seed_base, r))
            nu_b.append(w.nu)
            oh_b.append(w.omega_h)
            ov_b.append(w.omega_v)
        nu_b = np.stack(nu_b)
        tables = batch_tables(g, nu_b, np.stack(oh_b), np.stack(ov_b))
        return batch_scalar_log_z(tables), nu_b.reshape(reps, -1)

    lz_ref, nu_ref = batch_log_z(1024, 1999)
    gamma_ref = float(np.mean((lz_ref - nu_ref.sum(axis=1)) / 1024))
    # spot-check that the reference rate is also the determinant rate
    g_ref = build_cylinder(1024, HGraph.single())
    w_ref = sample_weights(g_ref, STD_NORMAL, RngSeed(1999, 0))
    assert abs(det_abs(JacobiMatrix.from_weights(g_ref, w_ref))
               - lz_ref[0]) <= 1e-8
    mean_gaps = []
    for n in (32, 64, 128, 256):
        lz, nu = batch_log_z(n, 2000 + n)
        gaps = np.abs(lz / n - gamma_ref - nu.mean(axis=1))
        mean_gaps.append(float(gaps.mean()))
    assert all(b < a for a, b in zip(mean_gaps, mean_gaps[1:]))
    _report(13, f"det gap {worst_det:.2e}, eigen multiset gap {worst_eig:.2e},"
                f" resolvent gap {worst_res:.2e}, growth-rate gaps "
                + " > ".join(f"{v:.4f}" for v in mean_gaps))


# ---------------------------------------------------------------------------
# 14. ground state: exactness and asymptotics
# ---------------------------------------------------------------------------

def test_criterion_14_ground_state(free_energy_ladder, clt_replicas):
    rng = np.random.default_rng(1414)
    worst = 0.0
    bands = [(2, 18)] * 50 + [(20, 22)] * 6
    for lo, hi in bands:
        while True:
            g, w = random_instance(rng, n_lo=2, n_hi=11, max_vertices=hi)
            if g.num_vertices >= lo:
                break
        gs = max_weight(g, w)
        worst = max(worst, abs(gs.value - brute_force_max(g, w)))
    assert worst <= 1e-10

    est = estimate_limits(free_energy_ladder)
    assert est.drift["m"] < 0.01

    entry, = clt_checks(clt_replicas, metrics=("M",)).entries
    assert entry.count == 2000
    assert abs(entry.skew) <= 0.15
    assert abs(entry.ex_kurtosis) <= 0.3
    assert entry.ks <= 0.035
    _report(14, f"56 instances exact (max gap {worst:.1e}); m drift "
                f"{est.drift['m']:.4%}; M normality skew {entry.skew:+.3f}, "
                f"ex.kurt {entry.ex_kurtosis:+.3f}, KS {entry.ks:.4f}")


# ---------------------------------------------------------------------------
# 15. sampler goodness of fit against the exact Gibbs law
# ---------------------------------------------------------------------------

def _enumerate_matchings(g):
    """All matchings of g, as tuples of canonical edge indices."""
    flat = [(flat_index(g, u), flat_index(g, v)) for u, v in edges(g)]
    out = []

    def rec(idx, used, chosen):
        if idx == len(flat):
            out.append(tuple(chosen))
            return
        rec(idx + 1, used, chosen)
        fu, fv = flat[idx]
        if not (used >> fu & 1) and not (used >> fv & 1):
            chosen.append(idx)
            rec(idx + 1, used | 1 << fu | 1 << fv, chosen)
            chosen.pop()

    rec(0, 0, [])
    return out


def test_criterion_15_sampler_chi_square():
    cases = [
        (6, HGraph.single(), 0.0, 151),
        (5, HGraph.path(2), 0.0, 152),
        (4, HGraph.cycle(3), 0.4, 153),
        (6, HGraph.path(2), -0.3, 154),
    ]
    details = []
    for n, H, x, seed in cases:
        g = build_cylinder(n, H)
        assert g.num_vertices <= 12
        w = sample_weights(g, STD_NORMAL, RngSeed(seed, 0))
        support = _enumerate_matchings(g)
        logits = np.array([
            matching_weight(g, w, Matching(frozenset(m)))
            + x * (g.num_vertices - 2 * len(m))
            for m in support
        ])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        index = {m: i for i, m in enumerate(support)}

        sampler = GibbsSampler(instance_tables(g, w), x=x)
        gen = rng_generator(RngSeed(seed, 1), DOMAIN_GIBBS)
        draws = decode_moves(g.n, g.H, sampler.draw_states([gen], 100_000)[0])
        counts = np.zeros(len(support))
        for m in draws:
            counts[index[tuple(sorted(m.edge_indices))]] += 1

        # merge rare cells so every expected count is >= 5
        order = np.argsort(probs)[::-1]
        exp_sorted = probs[order] * 100_000
        obs_sorted = counts[order]
        keep = exp_sorted >= 5.0
        if not keep.all():
            exp_m = np.concatenate([exp_sorted[keep], [exp_sorted[~keep].sum()]])
            obs_m = np.concatenate([obs_sorted[keep], [obs_sorted[~keep].sum()]])
        else:
            exp_m, obs_m = exp_sorted, obs_sorted
        chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
        dof = exp_m.size - 1
        cutoff = float(stats.chi2.ppf(0.99, dof))
        assert chi2 <= cutoff, f"chi2 {chi2:.1f} > {cutoff:.1f} at dof {dof}"
        details.append(f"N={g.num_vertices} x={x:+.1f}: "
                       f"chi2 {chi2:.0f} <= {cutoff:.0f}")
    _report(15, "; ".join(details))

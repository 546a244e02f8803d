import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from arvcanon import (ArovParameters, DomainError, GeneralCoefficients,
                      TAIL_PERIODIC, constant_parameters, dirac_coefficients,
                      schroedinger_coefficients)
from arvcanon.spectral import (bp_defect, exponential_type_integral,
                               exponential_type_numeric, harmonic_measure,
                               reflectionless_defect, reflectionless_ladder,
                               type_report)
from arvcanon.weyl import schur_grid, schur_minus_grid

from helpers import ab_from_a, bp_defect_loop, gamma_metric, random_parameters, random_su11


# --- exponential type ---------------------------------------------------------------

def test_integral_dirac_is_length():
    c = dirac_coefficients(length=3.0, n_intervals=2)
    for t in (0.5, 1.0, 3.0):
        assert abs(exponential_type_integral(c, t) - t) < 1e-14


def test_integral_schroedinger_is_zero():
    c = schroedinger_coefficients([1.7], [1.0])
    assert exponential_type_integral(c, 1.0) == 0.0


def test_integral_constant_disk_coefficient():
    p = constant_parameters(0.6)
    assert abs(exponential_type_integral(p, 2.0) - 1.6) < 1e-14


def test_integral_folds_periodic_tails():
    # sigma(r + q L) = sigma(r) + q sigma(L), in memory that does not grow
    # with the number of periods
    import tracemalloc

    rng = np.random.default_rng(62)
    n = 20
    p = ArovParameters(np.cumsum(rng.uniform(0.13, 0.37, n)), rng.uniform(0.3, 1.5, n),
                       rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n)),
                       TAIL_PERIODIC)
    L = p.length
    period = exponential_type_integral(p, L)
    for r in (0.0, 0.37 * L, p.grid[6], 0.99 * L):
        head = exponential_type_integral(p, r)
        for q in (1, 2, 7, 1000):
            want = head + q * period
            assert abs(exponential_type_integral(p, r + q * L) - want) <= 1e-12 * want
    tracemalloc.start()
    exponential_type_integral(p, 1e5)
    _, top = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert top < 2**20


def test_numeric_free_coefficient():
    p = constant_parameters(0.0)
    assert abs(exponential_type_numeric(p, 1.0) - 1.0) < 1e-3


def test_numeric_matches_integral_constant():
    p = constant_parameters(0.6)
    sn = exponential_type_numeric(p, 2.0)
    assert abs(sn - 1.6) / 1.6 < 0.01


def test_numeric_zero_length():
    p = constant_parameters(0.6)
    assert abs(exponential_type_numeric(p, 0.0)) < 1e-12


def test_numeric_schroedinger_small():
    c = schroedinger_coefficients([0.0], [0.5])
    assert exponential_type_numeric(c, 0.5) <= 1e-2


def test_type_report_random_systems():
    rng = np.random.default_rng(60)
    for _ in range(5):
        p = random_parameters(rng, n_max=6, total_mu=float(rng.uniform(0.5, 2.5)))
        rep = type_report(p, p.length)
        assert rep.sigma_integral >= 0.0
        assert rep.rel_gap <= 0.01


def test_numeric_gauge_independent():
    # a fixed SU(1,1) change of gauge, P -> V P V* and Q -> V Q V* with
    # V = U^-1, turns the family A into U^-1 A U and does not move the type
    rng = np.random.default_rng(61)
    p = random_parameters(rng, n_max=4, total_mu=2.0)
    v = np.linalg.inv(random_su11(rng))
    pairs = [ab_from_a(a) for a in p.a]
    twisted = GeneralCoefficients(p.grid, p.m, [v @ ab.A @ v.conj().T for ab in pairs],
                                  [v @ ab.B @ v.conj().T for ab in pairs], p.tail)
    l = p.length
    assert abs(exponential_type_numeric(p, l) - exponential_type_numeric(twisted, l)) <= 1e-6


# --- harmonic measure ----------------------------------------------------------------

def test_measure_from_center_is_arc_length():
    for t1, t2 in ((0.0, 1.0), (-2.0, 0.5), (3.0, 7.0)):
        assert abs(harmonic_measure(0.0, t1, t2) - ((t2 - t1) % (2 * np.pi)) / (2 * np.pi)) < 1e-12


def test_full_circle_normalization():
    for w in (0.0, 0.5, -0.3 + 0.6j):
        assert harmonic_measure(w, 0.0, 2.0 * np.pi) == 1.0


def test_measure_matches_quadrature():
    w = 0.5
    val = harmonic_measure(w, 0.0, np.pi)

    def kernel(t):
        return (1 - abs(w) ** 2) / abs(1 - np.exp(-1j * t) * w) ** 2 / (2 * np.pi)

    ref, err = quad(kernel, 0.0, np.pi, epsabs=1e-13)
    assert abs(val - ref) < 1e-10
    w2 = -0.4 + 0.55j
    val2 = harmonic_measure(w2, 0.7, 2.9)

    def kernel2(t):
        return (1 - abs(w2) ** 2) / abs(1 - np.exp(-1j * t) * w2) ** 2 / (2 * np.pi)

    ref2, _ = quad(kernel2, 0.7, 2.9, epsabs=1e-13)
    assert abs(val2 - ref2) < 1e-10


def test_conjugation_identity():
    rng = np.random.default_rng(62)
    for _ in range(50):
        w = rng.uniform(0, 0.98) * np.exp(2j * np.pi * rng.uniform())
        t1, t2 = np.sort(rng.uniform(-np.pi, np.pi, 2))
        lhs = harmonic_measure(w, -t2, -t1)
        rhs = harmonic_measure(np.conj(w), t1, t2)
        assert abs(lhs - rhs) < 1e-12


def test_measure_difference_bounded_by_gamma():
    rng = np.random.default_rng(63)
    for _ in range(200):
        w = rng.uniform(0, 0.97) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.97) * np.exp(2j * np.pi * rng.uniform())
        t1, t2 = np.sort(rng.uniform(-np.pi, np.pi, 2))
        diff = abs(harmonic_measure(w, t1, t2) - harmonic_measure(z, t1, t2))
        assert diff <= gamma_metric(w, z) + 1e-10


def test_measure_wraparound_arc():
    # theta2 < theta1 means the arc wraps; together the two pieces fill the circle
    w = 0.3 - 0.4j
    arc = harmonic_measure(w, 1.0, 2.5)
    complement = harmonic_measure(w, 2.5, 1.0)
    assert abs(arc + complement - 1.0) < 1e-12


def test_measure_domain_error():
    with pytest.raises(DomainError):
        harmonic_measure(1.0, 0.0, 1.0)


# --- gamma metric -----------------------------------------------------------------------

def test_gamma_vanishes_on_diagonal():
    assert gamma_metric(0.3 + 0.1j, 0.3 + 0.1j) == 0.0


def test_gamma_fixed_value():
    assert abs(gamma_metric(0.0, 0.5) - 1.0 / np.sqrt(0.75)) < 1e-12


def test_gamma_mobius_invariance():
    rng = np.random.default_rng(64)
    for _ in range(30):
        w = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        u = random_su11(rng)

        def act(s):
            num = u[0, 0] * s + u[1, 0]
            den = u[0, 1] * s + u[1, 1]
            return num / den

        assert abs(gamma_metric(act(w), act(z)) - gamma_metric(w, z)) < 1e-10


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        gamma_metric(1.0, 0.0)


# --- reflectionless diagnostics -----------------------------------------------------------

def test_free_full_line_has_zero_defect():
    p = constant_parameters(0.0)
    rep = reflectionless_defect(p, p, np.linspace(-1.0, 1.0, 5), 1e-3)
    assert np.all(rep.ok)
    assert np.max(rep.defect) < 1e-9
    assert np.all(rep.ac)


def test_constant_full_line_defect_decreases_on_ladder():
    # the tail closes every value, so the ladder goes on below eps = 1e-4
    p = constant_parameters(0.5)
    xs = np.linspace(0.8, 1.6, 5)
    reports = reflectionless_ladder(p, p, xs, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    maxima = [float(np.max(r.defect)) for r in reports]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    assert maxima[2] <= 1e-3
    assert maxima[-1] <= 1e-5
    for r in reports:
        assert np.all(r.ac)
        assert np.all(np.abs(r.s_plus) <= 1.0 + 1e-9)
        assert np.all(np.abs(r.s_minus) <= 1.0 + 1e-9)


def test_constant_full_line_defect_decreases_pointwise():
    # the trend holds at every a.c. grid point, not just in the maximum
    p = constant_parameters(0.5)
    xs = np.linspace(0.8, 1.6, 5)
    reports = reflectionless_ladder(p, p, xs)
    stacked = np.vstack([r.defect for r in reports])
    assert np.all(np.diff(stacked, axis=0) < 0)


def test_mismatched_halves_have_defect_plateau():
    left = constant_parameters(0.5)
    right = constant_parameters(0.8)
    xs = np.linspace(1.5, 2.0, 4)  # inside both a.c. bands
    rep = reflectionless_defect(left, right, xs, 1e-4)
    assert np.all(rep.ac)
    assert np.min(rep.defect) > 1e-1


def test_gap_points_are_not_ac():
    # inside the spectral gap both Schur values are unimodular
    p = constant_parameters(0.5)
    rep = reflectionless_defect(p, p, np.array([0.1]), 1e-4)
    assert not rep.ac[0]


# --- harmonic-measure comparison across lengths ----------------------------------------------

def test_bp_defect_free_system_is_zero():
    p = constant_parameters(0.0)
    rep = bp_defect(p, p, [(0.5, 1.0)], (0.3, 1.4), (1.0, 2.0), 0.25, 1e-3)
    assert np.allclose(rep.defects, 0.0)
    assert rep.hypothesis_violations == ()


def test_bp_defect_constant_system_small_and_non_increasing():
    p = constant_parameters(0.5)
    rep = bp_defect(p, p, [(0.8, 1.6)], (0.4, 2.0), (1.0, 2.0, 4.0, 8.0), 0.1, 1e-3)
    mags = np.abs(rep.defects)
    assert np.all(mags <= 1e-2)
    assert np.all(np.diff(mags) <= 1e-10)
    assert np.all(rep.n_excluded == 0)


def test_bp_defect_mismatched_halves_decays():
    left = constant_parameters(0.5)
    right = constant_parameters(0.8)
    rep = bp_defect(left, right, [(1.5, 2.0)], (0.4, 2.0),
                    (1.0, 2.0, 4.0, 8.0), 0.1, 1e-3)
    assert abs(rep.defects[-1]) < abs(rep.defects[0])


def test_bp_defect_is_finite_past_a_long_tail_crossing():
    # T(i, l) of these systems crosses a tail piece so long that its decaying
    # entry once rounded to 0, and s_+(i) stripped to 0 / 0
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = random_parameters(rng, a_cap=0.95, n_max=4)
        rep = bp_defect(p, p, [(0.8, 1.2)], (0.4, 2.0), (0.5, 1.0, 3.0), 0.1, 1e-3)
        assert np.all(np.isfinite(rep.defects))


def test_bp_plus_half_past_large_measure():
    # the forward flow of s_+(i) reported ('plus', 1e173) at l = 3 and
    # ('plus', inf) at l = 4.5 here; pulled back, s(i, l) is the tail's 0.6
    p = ArovParameters([1, 2, 3, 5], [100, 80, 120, 90], [0.5, 0.3 + 0.2j, -0.4j, 0.6],
                       tail="constant")
    rep = bp_defect(p, p, [(0.8, 1.2)], (0.4, 2.0), (1.0, 2.0, 3.0, 4.5), 0.1, 1e-3)
    assert rep.hypothesis_violations == ()
    assert np.all(np.isfinite(rep.defects))


@pytest.mark.parametrize("l", (3.6, 4.0, 5.0))
def test_bp_defect_past_mu_354(l):
    # T(i, l)'s decaying entry rounds to 0 past mu = 354: the forward flow
    # warned at l = 3.6 and raised DegenerateActionError from l = 4
    p = constant_parameters(0.5, m=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bp_defect(p, p, [(0.8, 1.2)], (0.4, 2.0), (l,), 0.1, 1e-3)
    assert rep.hypothesis_violations == () and np.all(np.isfinite(rep.defects))


def _long_head():
    rng = np.random.default_rng(3)
    a = 0.6 * np.exp(2j * np.pi * rng.random(20))
    return ArovParameters(np.linspace(0.5, 10.0, 20), np.ones(20), a, "constant")


@pytest.mark.parametrize("case", ["gap", "long_head", "mismatched", "circle"])
def test_bp_defect_matches_the_point_by_point_loop(case):
    if case == "gap":  # stripped values within 1e-8 of the circle in the gap stay inside
        p = constant_parameters(0.9)
        args = (p, p, [(-0.5, 0.5)], (0.3, 2.5), (0.5, 8.0, 12.0), 0.01, 1e-8)
    elif case == "long_head":  # a 20-interval head, probed inside it on two bands
        p = _long_head()
        args = (p, p, [(-2.0, -0.2), (0.2, 2.0)], (0.3, 2.5), (0.5, 3.0, 6.0), 0.05, 1e-3)
    elif case == "circle":  # a unimodular right half: every plus value on the circle
        args = (constant_parameters(0.5), constant_parameters(1.0), [(0.1, 1.0)],
                (0.3, 2.5), (0.5, 2.0), 0.1, 1e-3)
    else:
        args = (constant_parameters(0.5), constant_parameters(0.8),
                [(-3.0, -0.1), (0.1, 3.0)], (0.3, 2.5), (0.5, 2.0, 6.0), 0.05, 1e-5)
    rep = bp_defect(*args)
    defects, excluded, violations = bp_defect_loop(*args)
    assert np.max(np.abs(rep.defects - defects)) <= 1e-15
    assert np.array_equal(rep.n_excluded, excluded)
    assert rep.hypothesis_violations == violations
    assert excluded.any() == bool(violations) == (case == "circle")


def test_reflectionless_ladder_equals_one_grid_call_per_eps():
    rng = np.random.default_rng(8)
    left, right = constant_parameters(0.5), random_parameters(rng, tail=TAIL_PERIODIC)
    xs = np.linspace(0.8, 1.6, 9)
    for rep in reflectionless_ladder(left, right, xs, (1e-2, 1e-3, 1e-4)):
        zs = xs + 1j * rep.eps
        assert np.array_equal(rep.s_plus, schur_grid(zs, right)[0])
        assert np.array_equal(rep.s_minus, schur_minus_grid(zs, left)[0])

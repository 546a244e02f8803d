import numpy as np
import pytest

from arvcanon import (ArovParameters, BudgetError, DegenerateActionError,
                      LIMIT_CIRCLE, LIMIT_POINT, PreconditionError,
                      TAIL_FINITE, classify_limit, constant_parameters,
                      diameter_direct, herglotz_from_schur, schur_minus,
                      schur_plus, schur_stripped, strip_head, weyl_disk,
                      weyl_disk_at)
from arvcanon.mat2 import adjugate, mat2, mobius_right
from arvcanon.propagate import transfer, transfer_scaled
from arvcanon.riccati import riccati_fixed_point
from arvcanon.weyl import _disk_from_scaled, schur_grid

from helpers import random_contractive, random_parameters, random_upper_z


# --- disk geometry ----------------------------------------------------------------

def test_disk_of_identity_is_unit_disk():
    d = weyl_disk(np.eye(2, dtype=complex))
    assert d.center == 0.0
    assert abs(d.radius - 1.0) < 1e-15


def test_disk_of_lower_triangular_example():
    d = weyl_disk(mat2(2, 0, 1, 0.5))
    assert abs(d.center - (-0.5)) < 1e-14
    assert abs(d.radius - 0.25) < 1e-14
    assert abs(diameter_direct(mat2(2, 0, 1, 0.5)) - 0.5) < 1e-14


def test_disk_diameter_formula_on_random_contractive():
    rng = np.random.default_rng(40)
    for _ in range(30):
        t = random_contractive(rng)
        d = weyl_disk(t)
        assert abs(2.0 * d.radius - diameter_direct(t)) < 1e-10
        assert abs(d.center) + d.radius <= 1.0 + 1e-10


def test_disk_center_and_radius_at_i():
    rng = np.random.default_rng(41)
    p = random_parameters(rng)
    for l in (0.3 * p.length, p.length, 1.7 * p.length):
        d = weyl_disk_at(p, 1j, l)
        mu = p.mu(l)
        kappa = p.kappa_integral(l)
        assert abs(d.radius - np.exp(-2.0 * mu)) < 1e-10
        assert abs(d.center - kappa) < 1e-10


def test_disk_rejects_non_contractive():
    with pytest.raises(PreconditionError):
        weyl_disk(mat2(0, 1, -1, 0))
    with pytest.raises(PreconditionError):
        weyl_disk(2.0 * np.eye(2, dtype=complex))


def test_disk_nesting_along_length():
    rng = np.random.default_rng(42)
    p = random_parameters(rng)
    z = random_upper_z(rng)
    disks = [weyl_disk_at(p, z, l) for l in np.linspace(0.1, 2.5 * p.length, 12)]
    for d1, d2 in zip(disks, disks[1:]):
        assert d2.nested_in(d1, slack=1e-10)


def test_locally_uniform_shrinkage_on_compact_grid():
    rng = np.random.default_rng(43)
    p = random_parameters(rng, a_cap=0.8)
    zs = [complex(x, y) for x in (-1.0, 0.0, 1.0) for y in (0.5, 1.0)]
    prev = np.inf
    for l in np.linspace(0.5, 3.0 * p.length, 8):
        worst = max(weyl_disk_at(p, z, l).radius for z in zs)
        assert worst <= prev + 1e-12
        prev = worst


# --- limit classification ---------------------------------------------------------

def test_classify_constant_extend_limit_point():
    assert classify_limit(constant_parameters(0.3)) == LIMIT_POINT


def test_classify_finite_is_limit_circle_with_exact_radius():
    p = ArovParameters([1.0], [3.2], [0.1], tail=TAIL_FINITE)
    assert classify_limit(p) == LIMIT_CIRCLE
    d = weyl_disk_at(p, 1j, 1.0)
    assert abs(d.radius - np.exp(-6.4)) < 1e-12


def test_classify_zero_tail_density_limit_circle():
    p = ArovParameters([1.0, 2.0], [1.0, 0.0], [0.1, 0.0])
    assert classify_limit(p) == LIMIT_CIRCLE


# --- Schur functions ---------------------------------------------------------------

def test_schur_plus_vanishes_for_free_coefficients():
    p = constant_parameters(0.0)
    for z in (1j, 2j, 0.5 + 0.7j, -1.2 + 0.4j):
        sv = schur_plus(z, p)
        assert abs(sv.value) < 1e-9
        assert sv.residual_radius < 1e-9


def test_schur_plus_at_i_equals_coefficient():
    for a in (0.3, 0.6, 0.9j, 0.2 - 0.5j):
        sv = schur_plus(1j, constant_parameters(a))
        assert abs(sv.value - a) < 1e-9


def test_schur_plus_matches_riccati_fixed_point():
    for a in (0.3, 0.6, 0.9j):
        for z in (1j, 2j, 1 + 1j):
            sv = schur_plus(z, constant_parameters(a), tol=1e-10)
            assert abs(sv.value - riccati_fixed_point(z, a)) < 1e-7


def test_schur_plus_fixed_value_at_2i():
    sv = schur_plus(2j, constant_parameters(0.6), tol=1e-10)
    assert abs(sv.value - (4.0 - np.sqrt(11.68)) / 1.2) < 1e-9


def test_schur_plus_unimodular_constant_shortcut():
    a = np.exp(0.7j)
    sv = schur_plus(2j, constant_parameters(a))
    assert sv.value == a
    assert sv.residual_radius == 0.0


def test_schur_plus_periodic_tail():
    # evaluation runs through the pattern-power path; a one-interval pattern
    # must agree with the constant-extension system
    per = ArovParameters([1.0], [1.0], [0.45], tail="periodic")
    const = constant_parameters(0.45)
    for z in (1j, 0.6 + 0.8j):
        sv_p = schur_plus(z, per, tol=1e-10)
        sv_c = schur_plus(z, const, tol=1e-10)
        assert abs(sv_p.value - sv_c.value) < 1e-9
    # a genuinely two-piece pattern still has nested, shrinking disks
    per2 = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.6j], tail="periodic")
    sv = schur_plus(2j, per2, tol=1e-10)
    assert abs(sv.value) <= 1.0
    assert sv.residual_radius < 1e-10


def test_schur_plus_preconditions():
    with pytest.raises(PreconditionError):
        schur_plus(1.0 + 0j, constant_parameters(0.3))
    with pytest.raises(PreconditionError):
        schur_plus(1j, constant_parameters(0.3, tail=TAIL_FINITE))


def test_schur_plus_budget_error_carries_disk():
    p = constant_parameters(0.0, m=1.0)
    with pytest.raises(BudgetError) as info:
        schur_plus(0.01j, p, tol=1e-12, l_max=2.0)
    assert info.value.last_disk is not None
    assert info.value.l_stop == 2.0


def test_schur_plus_probe_independence():
    # the projective limit (w, 1) adj(A) is the same for every probe w
    rng = np.random.default_rng(44)
    p = random_parameters(rng, a_cap=0.8)
    z = 0.4 + 0.9j
    sv = schur_plus(z, p, tol=1e-10)
    m, _ = transfer_scaled(z, p, 60.0)
    for w in (0.0, 0.5, -0.5j):
        probe = mobius_right(w, adjugate(m)).as_complex()
        assert abs(probe - sv.value) < 1e-8


def test_schur_stripped_identity_and_stationarity():
    assert schur_stripped(0.3 + 0.1j, np.eye(2)) == 0.3 + 0.1j
    p = constant_parameters(0.45)
    z = 0.7 + 1.3j
    s = schur_plus(z, p, tol=1e-11).value
    for l in (0.5, 1.5, 4.0):
        assert abs(schur_stripped(s, transfer(z, p, l)) - s) < 1e-8


def test_schur_stripped_matches_disk_limit_of_tail_system():
    rng = np.random.default_rng(45)
    p = random_parameters(rng, a_cap=0.8)
    z = -0.3 + 1.1j
    l0 = 0.6 * p.length
    s = schur_plus(z, p, tol=1e-11).value
    stripped = schur_stripped(s, transfer(z, p, l0))
    direct = schur_plus(z, strip_head(p, l0), tol=1e-11).value
    assert abs(stripped - direct) < 1e-8


def test_schur_minus_vanishes_at_i():
    rng = np.random.default_rng(46)
    p_left = random_parameters(rng)
    sv = schur_minus(1j, p_left)
    assert abs(sv.value) < 1e-12


def test_schur_minus_constant_coefficient_value():
    a = 0.4 + 0.2j
    sv = schur_minus(2j, constant_parameters(a), tol=1e-10)
    expected = (1.0 / 3.0) * riccati_fixed_point(2j, np.conj(a))
    assert abs(sv.value - expected) < 1e-7


def test_schur_minus_free_is_zero():
    sv = schur_minus(0.3 + 0.8j, constant_parameters(0.0))
    assert abs(sv.value) < 1e-9


# --- Cayley transform ---------------------------------------------------------------

def test_herglotz_values():
    assert herglotz_from_schur(0.0) == 1j
    assert herglotz_from_schur(-1.0) == 0.0
    assert abs(herglotz_from_schur(0.6) - 4j) < 1e-15


def test_herglotz_maps_disk_to_upper_half_plane():
    rng = np.random.default_rng(47)
    for _ in range(50):
        s = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        assert herglotz_from_schur(s).imag >= -1e-12


def test_herglotz_pole():
    with pytest.raises(DegenerateActionError):
        herglotz_from_schur(1.0)


# --- scaled-disk internals ------------------------------------------------------------

def test_scaled_disk_matches_plain_disk():
    rng = np.random.default_rng(48)
    t = random_contractive(rng)
    plain = weyl_disk(t)
    scaled = _disk_from_scaled(t / 7.0, np.log(7.0))
    assert abs(plain.center - scaled.center) < 1e-12
    assert abs(plain.radius - scaled.radius) < 1e-12


def _doubling_oracle(p, z, tol=1e-9):
    """Disk shrinkage written out: the doubling ladder l = 1, 2, 4, ... of a
    constant-tail system, each transfer matrix an ordered scipy expm product
    carried along the head, stopping at the first radius below tol."""
    from scipy.linalg import expm

    def g(k):  # (i z A - B) j times the density, A, B of the coefficient a
        a = p.a[k]
        A = np.array([[1.0, -np.conj(a)], [-a, 1.0]])
        B = np.array([[0.0, np.conj(a)], [-a, 0.0]])
        return p.m[k] * (1j * z * A - B) @ np.diag([-1.0, 1.0])

    knots, k, pos = p.knots, 0, 0.0
    head, head_c, l, prev = np.eye(2, dtype=complex), 0.0, 1.0, None
    while True:
        while pos < min(l, p.length):  # carry the head product up to l
            hi = min(knots[k + 1], l)
            head = head @ expm(g(k) * (hi - pos))
            scale = np.max(np.abs(head))
            head, head_c, pos = head / scale, head_c + np.log(scale), hi
            k += hi == knots[k + 1]
        t = head @ expm(g(p.n_intervals - 1) * max(l - p.length, 0.0))
        disk = _disk_from_scaled(t / np.max(np.abs(t)), head_c + np.log(np.max(np.abs(t))))
        assert prev is None or disk.nested_in(prev)
        if disk.radius < tol:
            return disk, l
        prev, l = disk, 2.0 * l


@pytest.mark.parametrize("n", (3, 1500))
def test_schur_grid_matches_doubling_oracle(n):
    # mixed length budgets (1e4 / Im z); with 1500 intervals of the head
    # some points stop inside it and others reach the tail, across passes
    rng = np.random.default_rng(49)
    grid = np.cumsum(rng.uniform(0.02, 0.05, n)) if n > 3 else [0.4, 1.0, 1.3]
    p = ArovParameters(grid, rng.uniform(0.5, 1.2, n),
                       0.8 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n)))
    zs = np.array([0.3 + 0.05j, 1.1 + 0.5j, -0.7 + 0.05j, 0.2 + 1.5j, 0.4 + 4.0j])
    values, radii, l_stop, ok = schur_grid(zs, p)
    assert ok.all()
    for i, z in enumerate(zs):
        disk, l = _doubling_oracle(p, z)
        assert l_stop[i] == l
        assert abs(values[i] - disk.center) < 1e-11
        assert radii[i] == pytest.approx(disk.radius, rel=1e-6)
        assert schur_plus(z, p).value == values[i]

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arvcanon import (ArovParameters, DegenerateActionError, DomainError,
                      InputError, LIMIT_CIRCLE, LIMIT_POINT, PreconditionError,
                      TAIL_CONSTANT, TAIL_FINITE, TAIL_PERIODIC, classify_limit,
                      constant_parameters, herglotz_from_schur,
                      schroedinger_coefficients, schur_minus, schur_plus,
                      strip_head, weyl_disk, weyl_disk_at)
from arvcanon.mat2 import adjugate, mat2, mobius_right
from arvcanon.propagate import transfer, transfer_scaled
from arvcanon.riccati import riccati_fixed_point
from arvcanon.weyl import SCHUR_TOL, _disk_from_scaled, schur_grid, stripped_grid

from helpers import (diameter_direct, doubling_oracle, random_contractive,
                     random_parameters, random_upper_z, schur_stripped)


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
        assert d2.nested_in(d1)


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
            sv = schur_plus(z, constant_parameters(a))
            assert abs(sv.value - riccati_fixed_point(z, a)) < 1e-7


def test_schur_plus_fixed_value_at_2i():
    sv = schur_plus(2j, constant_parameters(0.6))
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
        sv_p = schur_plus(z, per)
        sv_c = schur_plus(z, const)
        assert abs(sv_p.value - sv_c.value) < 1e-9
    # a genuinely two-piece pattern still has nested, shrinking disks
    per2 = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.6j], tail="periodic")
    sv = schur_plus(2j, per2)
    assert abs(sv.value) <= 1.0
    assert sv.residual_radius < 1e-10


def test_schur_plus_preconditions():
    with pytest.raises(PreconditionError):
        schur_plus(1.0 + 0j, constant_parameters(0.3))
    with pytest.raises(PreconditionError):
        schur_plus(1j, constant_parameters(0.3, tail=TAIL_FINITE))


def test_schur_plus_probe_independence():
    # the projective limit (w, 1) adj(A) is the same for every probe w
    rng = np.random.default_rng(44)
    p = random_parameters(rng, a_cap=0.8)
    z = 0.4 + 0.9j
    sv = schur_plus(z, p)
    m, _ = transfer_scaled(z, p, 60.0)
    for w in (0.0, 0.5, -0.5j):
        probe = mobius_right(w, adjugate(m))
        assert abs(probe - sv.value) < 1e-8


def test_schur_stripped_identity_and_stationarity():
    assert schur_stripped(0.3 + 0.1j, np.eye(2)) == 0.3 + 0.1j
    p = constant_parameters(0.45)
    z = 0.7 + 1.3j
    s = schur_plus(z, p).value
    for l in (0.5, 1.5, 4.0):
        assert abs(schur_stripped(s, transfer(z, p, l)) - s) < 1e-8


def test_schur_stripped_matches_disk_limit_of_tail_system():
    rng = np.random.default_rng(45)
    p = random_parameters(rng, a_cap=0.8)
    z = -0.3 + 1.1j
    l0 = 0.6 * p.length
    s = schur_plus(z, p).value
    stripped = schur_stripped(s, transfer(z, p, l0))
    direct = schur_plus(z, strip_head(p, l0)).value
    assert abs(stripped - direct) < 1e-8


def test_schur_minus_vanishes_at_i():
    rng = np.random.default_rng(46)
    p_left = random_parameters(rng)
    sv = schur_minus(1j, p_left)
    assert abs(sv.value) < 1e-12


def test_schur_minus_constant_coefficient_value():
    a = 0.4 + 0.2j
    sv = schur_minus(2j, constant_parameters(a))
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


def _check_against_doubling_oracle(zs, p):
    # a point that stops inside the head keeps its disk; one still open at L
    # is closed by the tail and lies in the oracle's last disk
    values, radii, l_stop = schur_grid(zs, p)
    for i, z in enumerate(zs):
        center, radius, l = doubling_oracle(p, z, SCHUR_TOL)
        if radii[i] > 0.0:
            assert l_stop[i] == l < p.length
            assert abs(values[i] - center) < 1e-11
            assert radii[i] == pytest.approx(radius, rel=1e-6)
        else:
            assert l_stop[i] == p.length <= l
            assert abs(values[i] - center) <= radius + 1e-12
        assert schur_plus(z, p).value == values[i]
    return radii


def _oracle_head(n):
    rng = np.random.default_rng(49)
    grid = np.cumsum(rng.uniform(0.02, 0.05, n)) if n > 3 else [0.4, 1.0, 1.3]
    return ArovParameters(grid, rng.uniform(0.5, 1.2, n),
                          0.8 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n)))


_ORACLE_ZS = np.array([0.3 + 0.05j, 1.1 + 0.5j, -0.7 + 0.05j, 0.2 + 1.5j, 0.4 + 4.0j])


@pytest.mark.parametrize("n", (3, 1500))
def test_schur_grid_matches_doubling_oracle(n):
    # with 1500 intervals of the head some points stop inside it and others
    # are closed by the tail, across passes
    radii = _check_against_doubling_oracle(_ORACLE_ZS, _oracle_head(n))
    if n > 3:
        assert (radii > 0.0).any() and (radii == 0.0).any()


def test_schur_grid_is_certified_at_round_off():
    # a value stopped inside the head agrees with the tail's value pulled
    # back to l = 0, which no disk radius limits; a radius of 1e-9 left
    # gaps of 4e-13 here
    p = _oracle_head(1500)
    zs = np.append(_ORACLE_ZS, [0.5 + 1j, -1.0 + 0.3j])
    values, radii, _ = schur_grid(zs, p)
    assert (radii > 0.0).any()
    assert np.max(np.abs(values - stripped_grid(zs, p, [0.0])[:, 0])) <= 1e-14


def test_schur_grid_periodic_tail_matches_doubling_oracle():
    rng = np.random.default_rng(50)
    for n, length in ((3, 1.3), (40, 7.0)):
        grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * length / n
        p = ArovParameters(grid, rng.uniform(0.5, 1.2, n),
                           0.8 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n)),
                           TAIL_PERIODIC)
        _check_against_doubling_oracle(np.array([0.3 + 0.05j, 1.1 + 0.5j, 0.2 + 4.0j]), p)


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC))
def test_tail_closure_near_the_axis(tail):
    # one-interval systems, whose s+ is the stationarity root at every z, down
    # to Im z = 1e-8; at z = i the periodic monodromy has T12 = 0
    zs = np.array([1j, 0.5 + 1e-8j, 1.2 + 1e-8j, -0.9 + 1e-6j, 0.1 + 1e-4j, 2.0 + 1e-3j])
    for a in (0.0, 0.5, 0.3 - 0.6j, 0.95j):
        values, radii, l_stop = schur_grid(zs, ArovParameters([1.0], [1.0], [a], tail))
        assert np.all(radii == 0.0) and np.all(l_stop == 1.0)
        assert np.max(np.abs(values - riccati_fixed_point(zs, a))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC]),
       st.floats(-1.5, 1.5), st.floats(-8.0, 0.2), st.floats(0.0, 2.0))
def test_property_stripping_identity(seed, tail, re_z, log_im_z, mu):
    # s+ of the stripped system is s+ stripped by T(z, l); the stripped
    # measure stays at most 2, since s+ is the repelling direction of the
    # flow and round-off in s+ grows with the measure
    rng = np.random.default_rng(seed)
    p = random_parameters(rng, n_max=6, tail=tail)
    z = complex(re_z, 10.0 ** log_im_z)
    l = p.l_of_mu(mu)
    s = schur_plus(z, p).value
    assert abs(schur_plus(z, strip_head(p, l)).value
               - schur_stripped(s, transfer(z, p, l))) <= 1e-9


# --- stripped values by pull-back ---------------------------------------------------


def _heavy_head():
    # mu = 40 per unit length: forward from s+, round-off left the disk by
    # l = 0.8 at z = 0.3 + 0.2i
    rng = np.random.default_rng(3)
    return ArovParameters(np.linspace(0.2, 10, 50), np.full(50, 40.0),
                          0.6 * np.exp(2j * np.pi * rng.random(50)), TAIL_CONSTANT)


@pytest.mark.parametrize("case", ("constant", "periodic", "heavy"))
def test_stripped_grid_matches_the_schur_function_of_the_stripped_system(case):
    # lengths inside the head, at L and past several periods (or far into a
    # constant tail), against disk shrinkage on strip_head(p, l)
    if case == "heavy":
        p = _heavy_head()
    else:
        tail = TAIL_CONSTANT if case == "constant" else TAIL_PERIODIC
        p = random_parameters(np.random.default_rng(21), n_max=8, total_mu=6.0, tail=tail)
    L = p.length
    ls = L * np.array([0.0, 0.05, 0.13, 0.5, 0.95, 0.999, 1.0, 2.37, 5.0, 7.81])
    zs = np.array([1j, 0.3 + 0.2j, 0.4 + 0.3j, -1.1 + 0.05j, 0.7 + 1e-3j])
    s = stripped_grid(zs, p, ls)
    assert s.shape == (zs.size, ls.size)
    for i, z in enumerate(zs):
        for j, l in enumerate(ls):
            want = schur_plus(z, strip_head(p, l)).value
            assert abs(s[i, j] - want) <= 1e-12, (z, l)
    if p.tail == TAIL_CONSTANT:  # past L: the stationarity root itself
        assert np.array_equal(s[:, 6:], np.repeat(riccati_fixed_point(zs, p.a[-1])[:, None],
                                                  4, axis=1))


def test_stripped_grid_preconditions_and_shortcut():
    p = constant_parameters(0.5)
    with pytest.raises(PreconditionError):
        stripped_grid([0.5 + 0j], p, [1.0])
    with pytest.raises(PreconditionError):
        stripped_grid([1j], constant_parameters(0.5, tail=TAIL_FINITE), [0.5])
    with pytest.raises(InputError):
        stripped_grid([1j], schroedinger_coefficients([1.0], [1.0], TAIL_CONSTANT), [0.5])
    for tail in (TAIL_CONSTANT, TAIL_PERIODIC):
        for ls in ([-0.5], [np.nan], [np.inf]):
            with pytest.raises(DomainError):
                stripped_grid([1j], constant_parameters(0.5, tail=tail), ls)
    s = stripped_grid([1j, 0.3 + 0.1j], constant_parameters(1j, tail=TAIL_PERIODIC),
                      [0.0, 2.5])
    assert np.all(s == 1j) and s.shape == (2, 2)

import numpy as np
import pytest
from scipy.linalg import expm

from arvcanon import (ArovParameters, DomainError, GaugeError,
                      InconsistencyError, InputError, TAIL_FINITE, constant_parameters,
                      dirac_coefficients, schroedinger_coefficients)
from arvcanon.mat2 import J, adjugate, det2, j_defect, norm2
from arvcanon.propagate import (GAUGE_AROV, GAUGE_PDB, GAUGE_RAW,
                                TransferFamily, recover_parameters, to_arov_gauge,
                                to_pdb_gauge, transfer, transfer_between,
                                transfer_family, transfer_grid, transfer_scaled)

from helpers import (disk_generator, general_generator, peano_series,
                     random_parameters, random_upper_z)


# --- constant-coefficient propagator ---------------------------------------------

def test_free_coefficient_at_i_is_diagonal():
    t = transfer(1j, constant_parameters(0.0), 1.0)
    assert np.allclose(t, np.diag([np.e, 1.0 / np.e]), atol=1e-14)


def test_fixed_example_half_coefficient():
    t = transfer(1j, constant_parameters(0.5), 1.0)
    expected = np.array([[np.e, 0.0], [-2 * 0.5 * np.sinh(1.0), np.exp(-1.0)]])
    assert np.allclose(t, expected, atol=1e-12)
    # closed-form disk-center integral at z = i: kappa(l) = a (1 - exp(-2l))
    kappa = 0.5 * (1.0 - np.exp(-2.0))
    assert abs(-t[1, 0] / t[0, 0] - kappa) < 1e-14


def test_determinant_one_for_random_inputs():
    rng = np.random.default_rng(20)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        t = transfer(z, constant_parameters(a), rng.uniform(0, 2))
        assert abs(det2(t) - 1.0) < 1e-12


def test_matches_scipy_expm():
    rng = np.random.default_rng(21)
    for _ in range(30):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        d = rng.uniform(0, 2)
        assert np.allclose(
            transfer(z, constant_parameters(a), d), expm(disk_generator(z, a) * d),
            atol=1e-10
        )


def test_small_rate_branch_continuity():
    # rho^2 = a^2 - z^2 (1 - a^2) can vanish; the Taylor branch must join smoothly
    a = 0.5
    z = a / np.sqrt(1 - a * a)  # real z making rho = 0
    p = constant_parameters(a)
    t0 = transfer(z, p, 1.0)
    t1 = transfer(z + 1e-9, p, 1.0)
    assert np.max(np.abs(t0 - t1)) < 1e-6
    assert abs(det2(t0) - 1.0) < 1e-14


def test_scaled_propagator_matches_plain():
    p = constant_parameters(0.3)
    m, c = transfer_scaled(100j, p, 0.05)  # moderate: the plain form is finite
    ref = expm(disk_generator(100j, 0.3) * 0.05)
    assert np.max(np.abs(np.exp(c) * m - ref)) < 1e-12 * np.max(np.abs(ref))
    m2, c2 = transfer_scaled(100j, p, 10.0)  # huge: only the scaled form exists
    assert c2 > 700.0
    assert np.max(np.abs(m2)) < 10.0


# --- transfer over piecewise systems ----------------------------------------------

def test_transfer_at_zero_is_identity():
    p = constant_parameters(0.5)
    assert np.allclose(transfer(0.7 + 0.2j, p, 0.0), np.eye(2))


def test_single_interval_matches_propagator():
    p = constant_parameters(0.5, m=1.0, length=2.0)
    z = 0.3 + 0.9j
    assert np.allclose(transfer(z, p, 1.0), expm(disk_generator(z, 0.5)), atol=1e-14)


def test_cocycle_split():
    rng = np.random.default_rng(22)
    for _ in range(10):
        p = random_parameters(rng)
        z = random_upper_z(rng)
        l = rng.uniform(0.5, 1.5) * p.length
        l1 = rng.uniform(0.1, 0.9) * l
        lhs = transfer(z, p, l)
        rhs = transfer(z, p, l1) @ transfer_between(z, p, l1, l)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, norm2(lhs))


def test_peano_series_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_parameters(rng, n_max=6, total_mu=1.0)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.5))
        l = rng.uniform(0.2, 1.0) * p.length
        direct = transfer(z, p, l)
        k, d = p.span_arrays(l)
        series = peano_series(z, zip(p.a[k], d))
        assert np.max(np.abs(direct - series)) < 1e-8


def test_reflection_symmetry():
    rng = np.random.default_rng(24)
    for _ in range(15):
        p = random_parameters(rng)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        l = 0.8 * p.length
        lhs = transfer(np.conj(z), p, l).conj().T
        t = transfer(z, p, l)
        rhs = J @ (adjugate(t) / det2(t)) @ J
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, norm2(t))


def test_periodic_tail_matches_unrolled():
    p = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.2j], tail="periodic")
    unrolled = ArovParameters(
        np.arange(1, 7) * 0.5,
        [1.0, 0.5] * 3,
        [0.3, -0.2j] * 3,
        tail=TAIL_FINITE,
    )
    z = 0.2 + 0.7j
    for l in (1.7, 2.0, 2.9):
        assert np.allclose(transfer(z, p, l), transfer(z, unrolled, l), atol=1e-12)


def test_periodic_tail_uses_matrix_power_consistently():
    # the scaled pair (M, c) is only unique as exp(c) * M
    p = ArovParameters([1.0], [1.0], [0.4], tail="periodic")
    q = constant_parameters(0.4, m=1.0, length=1.0)
    z = 0.1 + 0.8j
    m1, c1 = transfer_scaled(z, p, 37.25)
    m2, c2 = transfer_scaled(z, q, 37.25)
    assert np.max(np.abs(np.exp(c1 - c2) * m1 - m2)) < 1e-9 * max(1.0, float(np.max(np.abs(m2))))


def test_decaying_entry_at_i_is_exp_minus_mu():
    # in Arov gauge T(i, l) is lower triangular with T22 = exp(-mu(l)); the
    # closed form once rounded that entry to 0 on every piece whose
    # exp(-2 Re x) fell below round-off
    rng = np.random.default_rng(7)
    ls = np.array([0.5, 1.0, 3.0, 6.0, 10.0, 20.0])
    for _ in range(60):
        p = random_parameters(rng, a_cap=0.95, n_max=4)
        mu = p.mu(ls)
        ok = mu < 300.0  # the scaled entry, about exp(-2 mu), is a normal double
        m, c = transfer_grid(p, [1j], ls[ok])
        assert np.max(np.abs(m[0, :, 1, 1] * np.exp(c[0] + mu[ok]) - 1.0)) < 1e-12

def test_finite_tail_raises_beyond_end():
    p = constant_parameters(0.4, length=1.0, tail=TAIL_FINITE)
    with pytest.raises(DomainError):
        transfer(1j, p, 1.5)


def test_scaled_transfer_no_overflow_at_large_y():
    p = constant_parameters(0.6, m=1.0, length=2.0)
    m, c = transfer_scaled(800j, p, 2.0)
    assert np.all(np.isfinite(m.view(float)))
    assert c > 700.0  # the plain interface would overflow here


def test_j_contractive_in_upper_half_plane():
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_parameters(rng)
        z = random_upper_z(rng)
        l1 = rng.uniform(0.0, 0.5) * p.length
        l2 = l1 + rng.uniform(0.1, 1.0) * p.length
        stripped = transfer_between(z, p, l1, l2)
        _, cls = j_defect(stripped)
        assert cls.is_contractive, (z, cls)


def test_j_unitary_on_real_axis():
    rng = np.random.default_rng(26)
    for _ in range(10):
        p = random_parameters(rng)
        x = rng.uniform(-2, 2)
        t = transfer(complex(x, 0.0), p, p.length)
        defect = J - t @ J @ t.conj().T
        assert norm2(defect) < 1e-11 * max(1.0, norm2(t) ** 2)


# --- general gauge ----------------------------------------------------------------

def test_dirac_transfer_at_i():
    c = dirac_coefficients(length=2.0, n_intervals=4)
    t = transfer(1j, c, 1.5)
    assert np.allclose(t, np.diag([np.exp(1.5), np.exp(-1.5)]), atol=1e-12)


def test_pdb_normalization_when_q_zero():
    c = dirac_coefficients(length=1.0)
    assert np.allclose(transfer(0.0, c, 1.0), np.eye(2), atol=1e-14)


def test_general_real_z_is_j_unitary():
    c = schroedinger_coefficients([0.7, -0.3, 1.1], [0.4, 0.9, 1.5])
    t = transfer(0.8, c, 1.5)
    assert norm2(J - t @ J @ t.conj().T) < 1e-12 * max(1.0, norm2(t) ** 2)


def test_general_transfer_matches_ode_integration():
    # independent oracle for the multi-interval product order
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(35)
    grid = np.cumsum(rng.uniform(0.2, 0.4, 4))
    c = schroedinger_coefficients(rng.normal(size=4) * 2.0, grid)
    z = 0.7 + 0.9j
    t_end = 0.9 * c.length

    def rhs(t, y):
        k = min(int(np.searchsorted(c.grid, t, side="right")), 3)
        g = general_generator(z, c.P[k], c.Q[k]) * c.n[k]
        m = y.reshape(2, 2, 2)
        d = (m[0] + 1j * m[1]) @ g
        return np.stack([d.real, d.imag]).ravel()

    y0 = np.stack([np.eye(2), np.zeros((2, 2))]).ravel()
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=1e-11, atol=1e-12, max_step=0.05)
    ref = sol.y[:, -1].reshape(2, 2, 2)
    ref = ref[0] + 1j * ref[1]
    assert np.max(np.abs(transfer(z, c, t_end) - ref)) < 1e-7


def test_general_scaled_matches_plain():
    c = schroedinger_coefficients([0.5], [1.0])
    m, logc = transfer_scaled(2j, c, 1.0)
    assert np.allclose(np.exp(logc) * m, transfer(2j, c, 1.0), atol=1e-12)


# --- families and gauges -----------------------------------------------------------

def _family(p, zs=None, with_knots=True):
    if zs is None:
        zs = [0j, 1j, 2j, 0.5 + 1j]
    ls = np.concatenate(([0.0], p.grid)) if with_knots else np.linspace(0, p.length, 7)
    return transfer_family(p, zs, ls)


def test_family_tags():
    rng = np.random.default_rng(27)
    p = random_parameters(rng)
    assert _family(p).gauge == GAUGE_AROV
    assert transfer_family(dirac_coefficients(), [0j, 1j], [0.0, 1.0]).gauge == GAUGE_PDB
    sch = schroedinger_coefficients([0.0], [1.0])
    assert transfer_family(sch, [0j, 1j], [0.0, 1.0]).gauge == GAUGE_RAW


def test_transfer_prefix_matches_pointwise():
    rng = np.random.default_rng(28)
    p = random_parameters(rng)
    ls = np.linspace(0.0, 1.5 * p.length, 9)
    z = 0.4 + 1.2j
    m, c = transfer_grid(p, [z], ls)
    block = np.exp(c[0])[:, None, None] * m[0]
    for k, l in enumerate(ls):
        assert np.allclose(block[k], transfer(z, p, l), atol=1e-11)


def test_to_arov_gauge_is_identity_on_arov_families():
    rng = np.random.default_rng(29)
    p = random_parameters(rng)
    fam = _family(p)
    out, us = to_arov_gauge(fam)
    assert np.max(np.abs(us - np.eye(2))) < 1e-10
    assert np.max(np.abs(out.values - fam.values)) < 1e-10


def test_to_arov_gauge_schroedinger_has_unimodular_coefficient():
    # The constant-potential system has zero exponential type, so the type
    # formula forces |a(l)| = 1 a.e. in disk gauge (the phase rotates; the
    # modulus is the translation-invariant part).  Grid averaging pulls the
    # recovered values slightly inside the circle, never outside.
    h = 0.05
    grid = np.arange(h, 2.0 + h / 2, h)
    sch = schroedinger_coefficients([0.0] * grid.size, grid)
    fam = transfer_family(sch, [0j, 1j, 2j], np.concatenate(([0.0], grid)))
    arov, us = to_arov_gauge(fam)
    rec = recover_parameters(arov)
    mods = np.abs(rec.params.a)
    assert np.all(mods <= 1.0)
    assert np.all(mods >= 0.995)
    assert np.all(rec.params.m > 0)
    # the defining relation regenerates the z = i column exactly at the knots
    iz = arov.z_index(1j)
    m, c = transfer_grid(rec.params, [1j], np.concatenate(([0.0], grid)))
    regen = np.exp(c[0])[:, None, None] * m[0]
    assert np.max(np.abs(regen - arov.values[iz])) < 1e-10


def test_gauge_round_trip_identity():
    rng = np.random.default_rng(30)
    p = random_parameters(rng)
    fam = _family(p)
    pdb = to_pdb_gauge(fam)
    assert np.max(np.abs(pdb.values[pdb.z_index(0j)] - np.eye(2))) < 1e-12
    back, _ = to_arov_gauge(pdb)
    assert np.max(np.abs(back.values - fam.values)) < 1e-10


def test_recovery_round_trip_exact_grid():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = random_parameters(rng, n_max=10)
        fam = _family(p)
        rec = recover_parameters(fam)
        assert np.max(np.abs(rec.params.m - p.m)) < 1e-9
        assert np.max(np.abs(rec.params.a - p.a)) < 1e-9
        assert rec.zero_mass.size == 0


def test_recovery_flags_zero_mass_intervals():
    p = ArovParameters([1.0, 2.0, 3.0], [1.0, 0.0, 0.5], [0.3, 0.7, -0.2])
    fam = _family(p)
    rec = recover_parameters(fam)
    assert list(rec.zero_mass) == [1]
    assert rec.params.a[1] == 0.0
    assert abs(rec.params.a[0] - 0.3) < 1e-12
    assert abs(rec.params.a[2] + 0.2) < 1e-12


def test_recovery_free_coefficient_gives_zero_kappa():
    p = constant_parameters(0.0, length=2.0)
    fam = transfer_family(p, [1j], [0.0, 1.0, 2.0])
    rec = recover_parameters(fam)
    assert np.max(np.abs(rec.kappa)) < 1e-14
    assert np.max(np.abs(rec.params.a)) < 1e-14


def test_recovery_kappa_increment_bound():
    rng = np.random.default_rng(32)
    for _ in range(5):
        p = random_parameters(rng)
        fam = _family(p)
        rec = recover_parameters(fam)
        decay = np.exp(-2.0 * rec.mu)
        lhs = np.abs(np.diff(rec.kappa))
        rhs = -np.diff(decay)
        assert np.all(lhs <= rhs + 1e-12)


def test_recovery_rejects_raw_gauge():
    sch = schroedinger_coefficients([0.0], [1.0])
    fam = transfer_family(sch, [1j], [0.0, 0.5, 1.0])
    with pytest.raises(GaugeError):
        recover_parameters(fam)


def test_recovery_rejects_corrupt_diagonal():
    values = np.stack([np.stack([np.eye(2, dtype=complex),
                                 np.diag([-1.0 + 0j, -1.0 + 0j])])])
    fam = TransferFamily([1j], [0.0, 1.0], values, GAUGE_AROV)
    with pytest.raises(GaugeError):
        recover_parameters(fam)


def test_recovery_inconsistency_error_on_forged_family():
    # kappa increment too large for the mu increment: not j-monotonic
    def arov_value(mu, kappa):
        return np.array([[np.exp(mu), 0.0],
                         [-np.exp(mu) * kappa, np.exp(-mu)]], dtype=complex)

    values = np.stack([np.stack([arov_value(0.0, 0.0), arov_value(0.1, 0.9)])])
    fam = TransferFamily([1j], [0.0, 1.0], values, GAUGE_AROV)
    with pytest.raises(InconsistencyError):
        recover_parameters(fam)


def test_det_error_column_small():
    rng = np.random.default_rng(33)
    p = random_parameters(rng)
    fam = _family(p, with_knots=False)
    assert float(np.max(fam.det_errors())) < 1e-11


def test_det_error_is_relative_to_the_largest_entry():
    # entries near 2e8: the absolute |det - 1| of correct values is the
    # round-off of their products, far above 1e-10
    p = ArovParameters([1.0, 2.0], [7.0, 6.0], [0.6, 0.5j])
    fam = transfer_family(p, [1j, 0.3 + 0.2j, 3.0 + 1j], np.linspace(0.0, 3.0, 7))
    assert np.max(np.abs(fam.values)) > 1e8
    assert float(np.max(fam.validate().det_errors())) < 1e-13
    values = fam.values.copy()
    values[1, -1, 0, 0] *= 1.0 + 1e-8
    assert TransferFamily(fam.zs, fam.ls, values, fam.gauge).det_errors()[1, -1] > 1e-9


def test_family_validate_accepts_real_families_and_rejects_forgeries():
    rng = np.random.default_rng(34)
    p = random_parameters(rng)
    fam = transfer_family(p, [0j, 0.5 + 0j, 1j, 0.3 + 0.9j],
                          np.linspace(0.0, p.length, 5))
    fam.validate()
    sch = schroedinger_coefficients([0.4, -0.2], [0.5, 1.0])
    transfer_family(sch, [0j, 1j, 2j], [0.0, 0.5, 1.0]).validate()
    # forged: a non-monotonic family (inverted segment)
    values = fam.values.copy()
    values[:, -1] = values[:, 0]
    bad = TransferFamily(fam.zs, fam.ls, values, GAUGE_RAW)
    with pytest.raises(InconsistencyError):
        bad.validate()
    # forged: wrong determinant
    values = fam.values.copy()
    values[0, -1] *= 1.5
    with pytest.raises(InconsistencyError):
        TransferFamily(fam.zs, fam.ls, values, GAUGE_RAW).validate()
    # forged: claims the triangular tag without the structure
    pdb = to_pdb_gauge(fam)
    with pytest.raises(GaugeError):
        TransferFamily(pdb.zs, pdb.ls, pdb.values, GAUGE_AROV).validate()


def test_recovery_without_lengths_is_an_input_error():
    fam = TransferFamily([1j], [], np.empty((1, 0, 2, 2)), GAUGE_AROV)
    with pytest.raises(InputError):
        recover_parameters(fam)

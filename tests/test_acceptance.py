"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or when run
directly: ``python3 tests/test_acceptance.py``).  Expected values come from
closed forms or from the independent oracles in ``helpers``; nothing here is
tuned to the implementation under test.
"""

import numpy as np

from arvcanon import (constant_parameters, dirac_coefficients, reflect,
                      reparametrize, schroedinger_coefficients, schur_minus,
                      schur_plus)
from arvcanon.mat2 import J, det2, herm_eigs, norm2
from arvcanon.propagate import (recover_parameters, to_arov_gauge, to_pdb_gauge,
                                transfer, transfer_between, transfer_family)
from arvcanon.riccati import (a_to_c, blaschke_matrix, boundary_limit, c_to_a,
                              integrate_riccati)
from arvcanon.spectral import (exponential_type_integral,
                               exponential_type_numeric, gamma_metric,
                               harmonic_measure, reflectionless_defect,
                               type_report)
from arvcanon.weyl import weyl_disk, weyl_disk_at, diameter_direct

from helpers import (doubling_oracle, random_contractive, random_parameters,
                     random_su11, rk4_riccati)


def _report(num, desc, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}: {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


def _random_z(rng):
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5))


def test_criterion_01_unimodularity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        p = random_parameters(rng, n_max=20, total_mu=2.5)
        zs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
              for _ in range(10)]
        ls = np.linspace(0.0, 1.2 * p.length, 10)
        for z in zs:
            for l in ls:
                worst = max(worst, abs(det2(transfer(z, p, l)) - 1.0))
    _report(1, "determinant preservation", worst <= 1e-10,
            f"max |det - 1| = {worst:.3e} (tol 1e-10)")


def test_criterion_02_j_monotonicity():
    rng = np.random.default_rng(102)
    worst_slack = np.inf
    for _ in range(200):
        p = random_parameters(rng, n_max=12, total_mu=2.5)
        z = _random_z(rng)
        l1 = rng.uniform(0.0, 0.8) * p.length
        l2 = l1 + rng.uniform(0.05, 1.0) * p.length
        t = transfer_between(z, p, l1, l2)
        defect = J - t @ J @ t.conj().T
        lo, _ = herm_eigs(0.5 * (defect + defect.conj().T))
        worst_slack = min(worst_slack, lo)
    worst_real = 0.0
    for _ in range(50):
        p = random_parameters(rng, n_max=12, total_mu=2.5)
        x = rng.uniform(-2.0, 2.0)
        t = transfer_between(complex(x, 0.0), p, 0.2 * p.length, p.length)
        worst_real = max(worst_real, norm2(J - t @ J @ t.conj().T))
    ok = worst_slack >= -1e-10 and worst_real <= 1e-9
    _report(2, "j-monotonicity of stripped matrices", ok,
            f"min eigenvalue slack = {worst_slack:.3e} (>= -1e-10), "
            f"max real-axis defect = {worst_real:.3e} (<= 1e-9)")


def test_criterion_03_arov_structure_at_i():
    rng = np.random.default_rng(103)
    worst_upper = 0.0
    worst_mu = 0.0
    worst_kappa = 0.0
    for _ in range(25):
        p = random_parameters(rng, n_max=15, total_mu=2.5)
        for l in rng.uniform(0.0, 1.3 * p.length, 8):
            t = transfer(1j, p, l)
            worst_upper = max(worst_upper, abs(t[0, 1]))
            worst_mu = max(worst_mu, abs(np.log(t[0, 0].real) - p.mu(l)))
            kappa = -t[1, 0] / t[0, 0]
            worst_kappa = max(worst_kappa, abs(kappa - p.kappa_integral(l)))
    ok = worst_upper <= 1e-12 and worst_mu <= 1e-10 and worst_kappa <= 1e-10
    _report(3, "triangular structure and (mu, kappa) integrals at z=i", ok,
            f"max |A12| = {worst_upper:.3e} (<= 1e-12), "
            f"max mu error = {worst_mu:.3e}, max kappa error = {worst_kappa:.3e} (<= 1e-10)")


def test_criterion_04_parameter_recovery():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        p = random_parameters(rng, n_max=20, total_mu=2.2)
        fam = transfer_family(p, [1j], np.concatenate(([0.0], p.grid)))
        rec = recover_parameters(fam)
        worst = max(worst,
                    float(np.max(np.abs(rec.params.m - p.m))),
                    float(np.max(np.abs(rec.params.a - p.a))))
    _report(4, "parameter recovery round trip", worst <= 1e-9,
            f"max recovered (m, a) error = {worst:.3e} (tol 1e-9)")


def test_criterion_05_weyl_disk_formulas():
    rng = np.random.default_rng(105)
    worst_center = 0.0
    worst_radius = 0.0
    for _ in range(20):
        p = random_parameters(rng, n_max=10, total_mu=2.5)
        for l in rng.uniform(0.0, 1.2 * p.length, 6):
            d = weyl_disk_at(p, 1j, l)
            worst_center = max(worst_center, abs(d.center - p.kappa_integral(l)))
            worst_radius = max(worst_radius, abs(d.radius - np.exp(-2.0 * p.mu(l))))
    worst_diam = 0.0
    for _ in range(100):
        t = random_contractive(rng)
        d = weyl_disk(t)
        worst_diam = max(worst_diam, abs(2.0 * d.radius - diameter_direct(t)))
    worst_nest = np.inf
    for _ in range(20):
        p = random_parameters(rng, n_max=8, total_mu=2.0)
        z = _random_z(rng)
        prev = None
        for l in np.linspace(0.1, 2.0 * p.length, 9):
            d = weyl_disk_at(p, z, l)
            if prev is not None:
                worst_nest = min(worst_nest,
                                 prev.radius - d.radius - abs(d.center - prev.center))
            prev = d
    ok = max(worst_center, worst_radius, worst_diam) <= 1e-10 and worst_nest >= -1e-10
    _report(5, "Weyl disk center/radius/diameter and nesting", ok,
            f"center err {worst_center:.3e}, radius err {worst_radius:.3e}, "
            f"diameter err {worst_diam:.3e} (<= 1e-10), nesting slack {worst_nest:.3e} (>= -1e-10)")


def test_criterion_06_schur_cross_validation():
    # the library closes s+ with the tail's stationarity root; the oracle
    # shrinks Weyl disks along the whole line
    worst_fp = 0.0
    worst_i = 0.0
    for a in (0.3, 0.6, 0.9j):
        p = constant_parameters(a)
        for z in (1j, 2j, 1 + 1j):
            center, _, _ = doubling_oracle(p, z, tol=1e-10)
            worst_fp = max(worst_fp, abs(schur_plus(z, p, tol=1e-10).value - center))
        worst_i = max(worst_i, abs(schur_plus(1j, p, tol=1e-10).value - a))
    ok = worst_fp <= 1e-7 and worst_i <= 1e-9
    _report(6, "tail closure equals the disk-shrinkage limit", ok,
            f"max |closure - disk limit| = {worst_fp:.3e} (<= 1e-7), "
            f"max |s+(i) - a| = {worst_i:.3e} (<= 1e-9)")


def test_criterion_07_riccati_stripping_agreement():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        p = random_parameters(rng, n_max=8,
                              total_mu=float(rng.uniform(1.0, 5.0)), a_cap=0.9)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.5))
        s0 = schur_plus(z, p, tol=1e-11).value
        state = integrate_riccati(z, s0, p, p.length)
        ref = rk4_riccati(z, s0, p, p.length)
        worst = max(worst, abs(state.s - ref.s))
    state = integrate_riccati(1j, 0.5, constant_parameters(0.0), 5.0)
    ref = rk4_riccati(1j, 0.5, constant_parameters(0.0), 5.0)
    escape_rel = abs(state.mu - ref.mu) / ref.mu
    ok = (worst <= 1e-7 and state.status == ref.status == "escaped"
          and escape_rel <= 0.01)
    _report(7, "exact flow matches RK4; escape certificate", ok,
            f"max |flow - RK4| = {worst:.3e} (<= 1e-7), "
            f"escape time rel err = {escape_rel:.3e} (<= 1e-2)")


def test_criterion_08_boundary_asymptotics():
    p = constant_parameters(0.6)
    bl = boundary_limit(lambda z: schur_plus(z, p).value)
    err_limit = abs(bl.estimate - 1.0 / 3.0)
    rng = np.random.default_rng(108)
    worst_inv = 0.0
    for _ in range(200):
        w = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        worst_inv = max(worst_inv, abs(c_to_a(a_to_c(w)) - w),
                        abs(a_to_c(c_to_a(w)) - w))
    worst_sqrt = 0.0
    for _ in range(50):
        a = rng.uniform(0, 0.99) * np.exp(2j * np.pi * rng.uniform())
        v_half = blaschke_matrix(a_to_c(a))
        worst_sqrt = max(worst_sqrt,
                         float(np.max(np.abs(v_half @ v_half - blaschke_matrix(a)))))
    ok = err_limit <= 1e-3 and worst_inv <= 1e-12 and worst_sqrt <= 1e-10
    _report(8, "ray limit recovers the boundary coordinate", ok,
            f"|limit - 1/3| = {err_limit:.3e} (<= 1e-3), inverse err = {worst_inv:.3e} "
            f"(<= 1e-12), sqrt identity err = {worst_sqrt:.3e} (<= 1e-10)")


def test_criterion_09_exponential_type():
    rng = np.random.default_rng(109)
    worst_gap = 0.0
    for _ in range(20):
        p = random_parameters(rng, n_max=8, total_mu=float(rng.uniform(0.5, 3.0)))
        l = min(p.length, 3.0)
        rep = type_report(p, l)
        worst_gap = max(worst_gap, rep.rel_gap)
    dirac = dirac_coefficients(length=2.0)
    dirac_int = exponential_type_integral(dirac, 2.0)
    dirac_num = exponential_type_numeric(dirac, 2.0)
    sch = schroedinger_coefficients([0.0], [0.5])
    sch_int = exponential_type_integral(sch, 0.5)
    sch_num = exponential_type_numeric(sch, 0.5)
    ok = (worst_gap <= 0.01 and abs(dirac_int - 2.0) < 1e-14
          and abs(dirac_num - 2.0) <= 1e-10 and sch_int == 0.0
          and sch_num <= 1e-2)
    _report(9, "type formula: integral vs measured growth", ok,
            f"max rel gap = {worst_gap:.3e} (<= 1e-2), Dirac sigma = {dirac_num:.12f} "
            f"(= 2), degenerate-P sigma: integral {sch_int}, numeric {sch_num:.3e} (<= 1e-2)")


def test_criterion_10_reflection_and_reflectionless():
    rng = np.random.default_rng(110)
    involution_ok = True
    s_minus_worst = 0.0
    for _ in range(20):
        p = random_parameters(rng, n_max=8)
        q = reflect(reflect(p))
        involution_ok &= (np.array_equal(q.a, p.a) and np.array_equal(q.m, p.m)
                          and np.array_equal(q.grid, p.grid))
        s_minus_worst = max(s_minus_worst, abs(schur_minus(1j, p).value))
    p_half = constant_parameters(0.5)
    xs = np.linspace(0.8, 1.6, 7)
    matched = reflectionless_defect(p_half, p_half, xs, 1e-4)
    matched_max = float(np.max(matched.defect[matched.ac]))
    control = reflectionless_defect(constant_parameters(0.5),
                                    constant_parameters(0.8),
                                    np.linspace(1.5, 2.0, 5), 1e-4)
    control_min = float(np.min(control.defect[control.ac]))
    ok = (involution_ok and s_minus_worst <= 1e-10 and matched_max <= 1e-3
          and control_min > 1e-1)
    _report(10, "reflection involution and reflectionless defect", ok,
            f"s-(i) max = {s_minus_worst:.3e} (<= 1e-10), matched defect max = "
            f"{matched_max:.3e} (<= 1e-3), mismatched defect min = {control_min:.3e} (> 1e-1)")


def test_criterion_11_harmonic_measure_suite():
    rng = np.random.default_rng(111)
    worst_center = 0.0
    worst_conj = 0.0
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(-np.pi, np.pi, 2))
        worst_center = max(worst_center,
                           abs(harmonic_measure(0.0, t1, t2) - (t2 - t1) / (2 * np.pi)))
        w = rng.uniform(0, 0.98) * np.exp(2j * np.pi * rng.uniform())
        worst_conj = max(worst_conj,
                         abs(harmonic_measure(w, -t2, -t1)
                             - harmonic_measure(np.conj(w), t1, t2)))
    bound_ok = True
    for _ in range(500):
        w = rng.uniform(0, 0.97) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.97) * np.exp(2j * np.pi * rng.uniform())
        t1, t2 = np.sort(rng.uniform(-np.pi, np.pi, 2))
        diff = abs(harmonic_measure(w, t1, t2) - harmonic_measure(z, t1, t2))
        bound_ok &= diff <= gamma_metric(w, z) + 1e-10
    worst_mob = 0.0
    for _ in range(100):
        w = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        u = random_su11(rng)

        def act(s):
            return (u[0, 0] * s + u[1, 0]) / (u[0, 1] * s + u[1, 1])

        worst_mob = max(worst_mob,
                        abs(gamma_metric(act(w), act(z)) - gamma_metric(w, z)))
    ok = (worst_center <= 1e-12 and worst_conj <= 1e-12 and bound_ok
          and worst_mob <= 1e-10)
    _report(11, "harmonic measure identities and gamma bound", ok,
            f"center err {worst_center:.3e}, conj err {worst_conj:.3e} (<= 1e-12), "
            f"gamma bound holds = {bound_ok}, invariance err {worst_mob:.3e} (<= 1e-10)")


def test_criterion_12_gauge_and_reparametrization_invariance():
    rng = np.random.default_rng(112)
    worst_gauge = 0.0
    for _ in range(5):
        p = random_parameters(rng, n_max=8, total_mu=2.0)
        zs = [0j, 1j, 2j, complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.2))]
        ls = np.linspace(0.0, p.length, 6)
        fam = transfer_family(p, zs, ls)
        round1, _ = to_arov_gauge(to_pdb_gauge(fam))
        for iz, z in enumerate(zs):
            if complex(z).imag <= 0:
                continue
            for k in range(1, ls.size):
                d0 = weyl_disk(fam.values[iz, k], assume_contractive=True)
                d1 = weyl_disk(round1.values[iz, k], assume_contractive=True)
                worst_gauge = max(worst_gauge, abs(d0.center - d1.center),
                                  abs(d0.radius - d1.radius))
    worst_reparam = 0.0
    for _ in range(5):
        p = random_parameters(rng, n_max=6, total_mu=2.0, a_cap=0.85)
        breaks = np.concatenate(([0.0], np.sort(rng.uniform(0.2, 2.0, 3))))
        values = np.concatenate(([0.0], np.sort(rng.uniform(0.2, 1.0, 3)) * p.length))
        q = reparametrize(p, breaks, values)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.4, 1.2))
        sp = schur_plus(z, p, tol=1e-11).value
        sq = schur_plus(z, q, tol=1e-11).value
        worst_reparam = max(worst_reparam, abs(sp - sq))
        for lq in rng.uniform(0.1, breaks[-1], 4):
            lp = float(np.interp(lq, breaks, values))
            dq = weyl_disk_at(q, z, lq)
            dp = weyl_disk_at(p, z, lp)
            worst_reparam = max(worst_reparam, abs(dq.center - dp.center),
                                abs(dq.radius - dp.radius))
    ok = worst_gauge <= 1e-9 and worst_reparam <= 1e-9
    _report(12, "observables invariant under gauge and reparametrization", ok,
            f"gauge round-trip disk err = {worst_gauge:.3e}, "
            f"reparametrization err = {worst_reparam:.3e} (<= 1e-9)")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(exc)
    sys.exit(1 if failures else 0)

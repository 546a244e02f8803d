"""Weyl disks: nesting, shrinkage, and the limit point / limit circle split.

At z = i the disk of a disk-gauge system has center kappa(l) and radius
exp(-2 mu(l)) in closed form, so the disk iteration can be checked against
exact values.  Whether the disks shrink to a point is decided by the total
measure mass alone.
"""

import numpy as np

import arvcanon as av

print("=== disk shrinkage at z = i, constant a = 0.5 ===")
p = av.constant_parameters(0.5)
print(f"{'l':>5} {'center':>12} {'radius':>12} {'exact kappa':>12} {'exp(-2l)':>12}")
for l in (0.0, 0.5, 1.0, 2.0, 4.0):
    d = av.weyl_disk_at(p, 1j, l)
    kappa = p.kappa_integral(l)
    print(f"{l:5.1f} {d.center.real:12.8f} {d.radius:12.8f} "
          f"{kappa.real:12.8f} {np.exp(-2 * l):12.8f}")

print("\n=== nesting at a generic spectral point ===")
z = 0.7 + 0.4j
prev = None
for l in (0.5, 1.0, 2.0, 4.0, 8.0):
    d = av.weyl_disk_at(p, z, l)
    nested = "-" if prev is None else str(d.nested_in(prev))
    print(f"l = {l:4.1f}  center = {d.center: .6f}  radius = {d.radius:.3e}  "
          f"nested in previous: {nested}")
    prev = d

print("\n=== limit point vs limit circle ===")
finite = av.ArovParameters([1.0], [3.2], [0.1], tail=av.TAIL_FINITE)
print(f"constant density, infinite mass : {av.classify_limit(p)}")
print(f"finite mass 3.2                 : {av.classify_limit(finite)}")
d = av.weyl_disk_at(finite, 1j, 1.0)
print(f"limiting disk radius at z = i   : {d.radius:.6e} (= exp(-6.4) = {np.exp(-6.4):.6e})")

print("\n=== the shrink limit is the Schur function ===")
print("(schur_plus closes the value with the tail's stationarity root)")
for z in (1j, 2j, 1 + 1j):
    d = av.weyl_disk_at(p, z, 16.0)
    sv = av.schur_plus(z, p)
    fp = av.riccati_fixed_point(z, 0.5)
    print(f"z = {z}:  disk at l = 16 {d.center: .8f} (radius {d.radius:.1e})  "
          f"s+ {sv.value: .8f}  stationarity root {fp: .8f}")

print("\nCayley transform to the upper half-plane (Herglotz function):")
s = av.schur_plus(1j, p).value
print(f"m(i) = i (1+s)/(1-s) = {av.herglotz_from_schur(s):.6f}")

"""The stripping flow of Schur values.

Along coefficient stripping the Schur value follows a quadratic flow in the
measure variable.  The true Schur function is its bounded trajectory; any
other initial value exits the closed unit disk after finitely much measure,
which makes the flow a certificate of wrong initial data.  The flow is solved
exactly by the Moebius action of the transfer matrix, so the escape point
matches its closed form to round-off.  At +i*infinity the flow's fixed point
tends to the boundary coordinate c(a), giving a practical way to read the
leading coefficient off sampled Schur values.
"""

import numpy as np

import arvcanon as av
from arvcanon.riccati import ESCAPE_SLACK, a_to_c, boundary_limit, c_to_a
from arvcanon.weyl import schur_grid

print("=== stationarity of the true Schur value ===")
p = av.constant_parameters(0.45)
z = 0.7 + 1.3j
s0 = av.schur_plus(z, p).value
print(f"s+(z) = {s0:.8f}")
for l in (1.0, 3.0):
    state = av.integrate_riccati(z, s0, p, l)
    print(f"flow to l = {l}: s = {state.s:.8f}  (drift {abs(state.s - s0):.1e})  {state.status}")

print("\n=== a wrong initial value escapes ===")
free = av.constant_parameters(0.0)
for s_start in (0.5, 0.9, 0.99):
    state = av.integrate_riccati(1j, s_start, free, 10.0)
    predicted = -np.log(s_start) / 2.0
    print(f"s0 = {s_start}: escaped at mu = {state.mu:.4f} "
          f"(closed form -log(s0)/2 = {predicted:.4f})")

print("\n=== the escape point against the closed form ===")
# at z = i with a = 0 the flow is s(mu) = s0 exp(2 mu), so |s| reaches the
# escape threshold 1 + ESCAPE_SLACK at mu = (log(1 + ESCAPE_SLACK) - log|s0|) / 2
for s_start in (0.5, 0.3, 0.9, 0.2j):
    state = av.integrate_riccati(1j, s_start, free, 8.0)
    exact = (np.log1p(ESCAPE_SLACK) - np.log(abs(s_start))) / 2.0
    print(f"s0 = {s_start}: mu = {state.mu:.15f}, closed form {exact:.15f}, "
          f"|s| - 1 - slack = {abs(state.s) - 1.0 - ESCAPE_SLACK:.1e}")

rng = np.random.default_rng(2)
grid = np.cumsum(rng.uniform(0.2, 0.5, 6))
p2 = av.ArovParameters(grid, rng.uniform(0.4, 1.0, 6),
                       rng.uniform(0, 0.8, 6) * np.exp(2j * np.pi * rng.uniform(size=6)))
z = 0.3 + 0.9j
s_wrong = av.schur_plus(z, p2).value + 0.05
print(f"\na start 0.05 off s+ on a 6-interval system, z = {z}:")
for state in av.riccati_trajectory(z, s_wrong, p2, np.arange(0.0, 20.0, 2.0)):
    print(f"  l = {state.l:9.6f}  |s| = {abs(state.s):.9f}  {state.status}")

print("\n=== boundary coordinate from ray samples ===")
p6 = av.constant_parameters(0.6)
bl = boundary_limit(lambda w: schur_grid(w, p6)[0])
print(f"samples along z = iy: {[f'{s:.6f}' for s in bl.samples]}")
print(f"extrapolated limit  : {bl.estimate:.8f}  (c(0.6) = {a_to_c(0.6):.8f})")
print(f"coefficient back    : {c_to_a(bl.estimate):.8f}")
print(f"spread {bl.spread:.1e}, converged: {bl.converged}")

print("\nafter stripping past a coefficient jump the ray sees the new block:")
p_jump = av.ArovParameters([1.0, 3.0], [1.0, 1.0], [0.2, 0.7])
tail = av.strip_head(p_jump, 1.5)
bl2 = boundary_limit(lambda w: schur_grid(w, tail)[0])
print(f"limit = {bl2.estimate:.6f}, c(0.7) = {a_to_c(0.7):.6f}")

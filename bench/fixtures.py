"""Seeded input generator for the benchmark workloads.

Every coefficient file and grid spec the workloads pass to the program is
made here from the workload seed; the program sees only these files and argv.
The systems are kept as plain numpy arrays as well, so the output checks in
``oracle.py`` can compute from them without going through the package.

The seed varies every coefficient value.  Sizes, tail policies, spectral
grids and the tail coefficients that set how far the Weyl-disk iteration
must run are fixed per workload, so that the work in one round, and with it
the rates, depends on the seed as little as possible.

Run directly to write one workload's inputs into a directory:

    python3 bench/fixtures.py --workload near_axis --seed 3 --out /tmp/fx
"""

import argparse
import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Disk:
    """Disk-gauge system: right endpoints, densities, coefficients, tail."""

    grid: np.ndarray
    m: np.ndarray
    a: np.ndarray
    tail: str

    @property
    def length(self):
        return float(self.grid[-1])

    def to_dict(self):
        return {"grid": self.grid.tolist(), "m": self.m.tolist(),
                "a": [[float(v.real), float(v.imag)] for v in self.a],
                "tail": self.tail}


@dataclass
class General:
    """General-gauge system (n, P, Q) with a tail policy."""

    grid: np.ndarray
    n: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    tail: str

    @property
    def length(self):
        return float(self.grid[-1])

    def to_dict(self):
        def stack(ms):
            return [[[[float(e.real), float(e.imag)] for e in row] for row in mat]
                    for mat in ms]
        return {"grid": self.grid.tolist(), "n": self.n.tolist(),
                "P": stack(self.P), "Q": stack(self.Q), "tail": self.tail}


@dataclass
class FullLine:
    """Two-sided system; the left half is stored mirrored."""

    left: Disk
    right: Disk

    def to_dict(self):
        return {"left": self.left.to_dict(), "right": self.right.to_dict()}


@dataclass
class Fixtures:
    """Generated inputs of one workload: systems by name, their file paths,
    and named grid specs."""

    workdir: str
    systems: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)

    def add(self, name, system):
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(system.to_dict(), fh)
        self.systems[name] = system
        self.paths[name] = path
        return system


def random_disk(rng, n, total_mu, tail, a_cap=0.9, width=None,
                tail_a=None, tail_m=None, length=10.0, flat_m=False):
    """Random disk-gauge system: n intervals of equal width, total measure
    total_mu, seeded densities and coefficients.

    Equal widths and (with flat_m) equal densities keep the pieces of every
    span, and the measure the Riccati flow integrates, the same for every
    seed.  The stored length is exactly ``length`` (or n * width); periodic
    systems use a power of two, because ``ArovParameters.pieces`` loops
    forever or raises on spans past the second period for many other
    lengths.  With tail_a / tail_m the last interval is pinned, which pins
    the constant tail and with it the cost of the Weyl-disk iteration past
    the head.  Arrays are built contiguous: the package reads ``a`` through a
    float view, which numpy refuses on a non-contiguous complex array.
    """
    grid = (length / n if width is None else width) * np.arange(1, n + 1)
    if width is None:
        grid[-1] = length
        width = length / n
    m = np.ones(n) if flat_m else rng.uniform(0.5, 1.5, n)
    a = rng.uniform(0.0, a_cap, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if tail_a is not None:
        a[-1] = tail_a
    m *= total_mu / float(np.sum(m) * width)
    if tail_m is not None:
        m[-1] = tail_m
    return Disk(np.ascontiguousarray(grid, dtype=float),
                np.ascontiguousarray(m, dtype=float),
                np.ascontiguousarray(a, dtype=complex), tail)


def perturbed_pattern(rng, base_a, base_m, width, rel=0.02):
    """Periodic pattern near a fixed base: every value moves by a seeded
    relative amount up to rel, so band edges move little between seeds.
    With rng None the base pattern itself."""
    n = len(base_a)
    a = np.asarray(base_a, dtype=complex)
    m = np.asarray(base_m, dtype=float)
    if rng is not None:
        a = a * (1.0 + rel * rng.uniform(-1, 1, n)) * np.exp(1j * rel * rng.uniform(-1, 1, n))
        m = m * (1.0 + rel * rng.uniform(-1, 1, n))
    grid = width * np.arange(1, n + 1)
    return Disk(np.ascontiguousarray(grid), np.ascontiguousarray(m),
                np.ascontiguousarray(a), "periodic")


def mirrored(p, conjugate=False):
    """Left half continuing a periodic right half across 0: the pattern
    read backwards (stored mirrored).  conjugate=True gives the control
    that is not reflectionless."""
    widths = np.diff(np.concatenate(([0.0], p.grid)))[::-1]
    a = p.a[::-1].copy()
    if conjugate:
        a = np.conj(a)
    return Disk(np.ascontiguousarray(np.cumsum(widths)),
                np.ascontiguousarray(p.m[::-1]), np.ascontiguousarray(a),
                p.tail)


def constant_half(a):
    return Disk(np.array([1.0]), np.array([1.0]), np.array([complex(a)]),
                "constant")


def schroedinger(rng, n, length, tail="constant"):
    """Half-line Schroedinger system in general gauge with a random
    piecewise-constant potential q: P = [[1,1],[1,1]]/2,
    Q = (i/2) [[q-1, q+1], [q+1, q-1]], n = 1."""
    grid = (length / n) * np.arange(1, n + 1)
    q = rng.uniform(-1.0, 1.0, n)
    P = np.empty((n, 2, 2), dtype=complex)
    P[:] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    Q = np.empty((n, 2, 2), dtype=complex)
    for k, qk in enumerate(q):
        Q[k] = 0.5j * np.array([[qk - 1.0, qk + 1.0], [qk + 1.0, qk - 1.0]])
    return General(np.ascontiguousarray(grid), np.ones(n), P, Q, tail)


def random_general(rng, n, length, tail="constant"):
    """Random general-gauge system with positive definite P, so its
    exponential type sum sqrt(det P) n w is positive:
    P = [[p, q], [conj q, p]] with p > |q|, Q = [[i al, b], [-conj b, i al]]
    (both satisfy trace(j P) = trace(j Q) = 0)."""
    grid = (length / n) * np.arange(1, n + 1)
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.0, 0.9, n) * p * np.exp(2j * np.pi * rng.uniform(size=n))
    al = rng.uniform(-1.0, 1.0, n)
    b = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    P = np.empty((n, 2, 2), dtype=complex)
    Q = np.empty((n, 2, 2), dtype=complex)
    P[:, 0, 0] = P[:, 1, 1] = p
    P[:, 0, 1], P[:, 1, 0] = q, np.conj(q)
    Q[:, 0, 0] = Q[:, 1, 1] = 1j * al
    Q[:, 0, 1], Q[:, 1, 0] = b, -np.conj(b)
    return General(np.ascontiguousarray(grid), rng.uniform(0.5, 1.5, n), P, Q, tail)


def band_interval(p, lo, hi, samples=120):
    """Widest x-interval inside [lo, hi] where the periodic pattern's
    discriminant |tr T(x, L)| stays below 2 (a.c. band), from the
    benchmark's own propagator."""
    from oracle import scaled_product, segments  # local: oracle imports scipy

    xs = np.linspace(lo, hi, samples)
    inside = []
    for x in xs:
        m, c = scaled_product(complex(x, 0.0), segments(p, p.length))
        inside.append(abs(np.trace(m)) * np.exp(c) < 2.0 - 1e-3)
    best, start = (0, 0), None
    for i, flag in enumerate(inside + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    if best[1] - best[0] < 8:
        raise RuntimeError("no a.c. band found for the periodic fixture")
    return float(xs[best[0]]), float(xs[best[1] - 1])


def xrange_spec(lo, hi, count):
    """'start:stop:step' spec with count points strictly inside [lo, hi]."""
    margin = 0.2 * (hi - lo)
    a, b = lo + margin, hi - margin
    step = round((b - a) / (count - 1), 6)
    a = round(a, 6)
    return f"{a}:{a + step * (count - 1) + step / 2:.6f}:{step}", a, step


def long_systems(rng, fx):
    """Disk-gauge systems of 10^3-10^4 intervals, a Schroedinger system of
    a few hundred, and a longer periodic reflectionless pair."""
    fx.add("long_const", random_disk(rng, 10_000, 60.0, "constant"))
    fx.add("long_periodic", random_disk(rng, 1_000, 12.0, "periodic", length=8.0))
    # uniform knots on a 0.01 grid, so the length grid 0:L:0.01 hits every
    # knot exactly; total measure 2 keeps recover_parameters from cancelling
    fx.add("long_gauge", random_disk(rng, 1_000, 2.0, "constant", width=0.01))
    fx.add("long_head", random_disk(rng, 1_000, 3.0, "constant", flat_m=True,
                                    tail_a=0.3 + 0.2j, tail_m=1.0))
    fx.add("schroedinger", schroedinger(rng, 300, 6.0))
    fx.add("long_general", random_general(rng, 300, 6.0))
    base = np.resize([0.6, -0.3j, 0.4 + 0.3j, -0.5], 100)
    right = perturbed_pattern(rng, base, np.ones(100), 1.0 / 64.0)
    fx.add("long_refl", FullLine(mirrored(right), right))
    # x grids come from the band of the unperturbed pattern, the same for
    # every seed; the checks read the a.c. flags of the perturbed one
    fx.grids["long_refl_band"] = band_interval(
        perturbed_pattern(None, base, np.ones(100), 1.0 / 64.0), 0.6, 3.0)


def near_axis(rng, fx):
    """Short disk-gauge systems with constant and periodic tails, two-sided
    periodic and constant pairs with their controls."""
    fx.add("short_const", random_disk(rng, 100, 5.0, "constant", flat_m=True,
                                      tail_a=0.5, tail_m=1.0))
    fx.add("short_periodic", perturbed_pattern(
        rng, [0.6, -0.4 + 0.2j, 0.3j, 0.5], [1.0, 0.8, 1.2, 1.0], 0.5, rel=0.05))
    fx.add("small_const", random_disk(rng, 50, 3.0, "constant"))
    fx.add("small_periodic", random_disk(rng, 20, 2.0, "periodic", length=8.0))
    fx.add("small_gauge", random_disk(rng, 40, 1.0, "constant", width=0.05))
    fx.add("small_schroedinger", schroedinger(rng, 40, 2.0))
    fx.add("small_general", random_general(rng, 40, 2.0))
    base = ([0.5, -0.3j, 0.4], [1.0, 1.0, 1.0], 0.5)
    right = perturbed_pattern(rng, *base)
    fx.add("refl_periodic", FullLine(mirrored(right), right))
    fx.add("refl_periodic_conj", FullLine(mirrored(right, conjugate=True), right))
    fx.grids["refl_band"] = band_interval(perturbed_pattern(None, *base), 0.3, 3.0)
    # fixed, seed-independent pairs (criterion-10 systems)
    fx.add("const_matched", FullLine(constant_half(0.5), constant_half(0.5)))
    fx.add("const_mismatched", FullLine(constant_half(0.5), constant_half(0.8)))
    fx.add("const_half", constant_half(0.5))


GENERATORS = {"long_systems": long_systems, "near_axis": near_axis}


def generate(workload, seed, workdir):
    """Write the inputs of one workload for one seed into workdir."""
    os.makedirs(workdir, exist_ok=True)
    fx = Fixtures(workdir)
    GENERATORS[workload](np.random.default_rng([seed, len(workload)]), fx)
    return fx


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    fx = generate(ns.workload, ns.seed, ns.out)
    for name, path in sorted(fx.paths.items()):
        print(name, path)


if __name__ == "__main__":
    main()

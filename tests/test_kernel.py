"""The propagation kernel against an independent oracle: per-piece
``scipy.linalg.expm`` products over a piece list enumerated here, apart from
the package's piece builder, in both gauges and under every tail policy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from arvcanon import (ArovParameters, DomainError, GeneralCoefficients,
                      InputError, TAIL_CONSTANT, TAIL_FINITE, TAIL_PERIODIC,
                      schroedinger_coefficients)
from arvcanon import propagate as prop
from arvcanon.riccati import riccati_trajectory
from arvcanon.weyl import disks_grid

SIGNATURE = np.diag([-1.0, 1.0]).astype(complex)


def _disk_system(rng, n, tail):
    grid = np.cumsum(rng.uniform(0.13, 0.37, n))  # lengths not exact in binary
    m = rng.uniform(0.3, 1.5, n)
    a = rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return ArovParameters(grid, m, a, tail)


def _general_system(rng, n, tail):
    # P = [[p, b], [conj b, p]] >= 0 and Q = [[i r, c], [-conj c, i r]]
    grid = np.cumsum(rng.uniform(0.13, 0.37, n))
    p = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(0.0, 0.9, n) * p * np.exp(2j * np.pi * rng.uniform(size=n))
    r = rng.normal(size=n)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    P = np.stack([np.stack([p, b], -1), np.stack([np.conj(b), p], -1)], -2)
    Q = np.stack([np.stack([1j * r, c], -1), np.stack([-np.conj(c), 1j * r], -1)], -2)
    return GeneralCoefficients(grid, rng.uniform(0.5, 1.5, n), P, Q, tail)


def _generators(system, z):
    """(i z P - Q) j per stored interval, per unit mass."""
    if isinstance(system, ArovParameters):
        a = system.a
        P = np.stack([np.stack([np.ones_like(a), -np.conj(a)], -1),
                      np.stack([-a, np.ones_like(a)], -1)], -2)
        Q = np.stack([np.stack([np.zeros_like(a), np.conj(a)], -1),
                      np.stack([-a, np.zeros_like(a)], -1)], -2)
        density = system.m
    else:
        P, Q, density = system.P, system.Q, system.n
    return (1j * z * P - Q) @ SIGNATURE, density


def _oracle(system, z, l):
    """Ordered expm product over [0, l], the tail unrolled period by period;
    returns (M, log-scale) with the product normalised after every piece."""
    gens, density = _generators(system, z)
    knots = np.concatenate(([0.0], system.grid))
    L = knots[-1]
    pieces, start = [], 0.0
    while start < l:
        for k in range(system.n_intervals):
            lo, hi = start + knots[k], min(start + knots[k + 1], l)
            if hi > lo:
                pieces.append((k, hi - lo))
        start += L
        if system.tail == TAIL_CONSTANT and l > L:
            pieces.append((system.n_intervals - 1, l - L))
            break
    m, logc = np.eye(2, dtype=complex), 0.0
    for k, w in pieces:
        m = m @ expm(gens[k] * density[k] * w)
        s = np.max(np.abs(m))
        m, logc = m / s, logc + np.log(s)
    return m, logc


def _lengths(system, periods):
    """Knots, interior points, and points past the stored grid."""
    L = system.length
    inner = 0.5 * (system.knots[:-1] + system.knots[1:])
    ls = np.concatenate((system.knots, inner, [0.37 * L]))
    if periods:
        ls = np.concatenate((ls, L * np.array([1.0, 1.29, 2.0, 2.61, periods])))
    return np.sort(ls)


CASES = [(build, tail, periods)
         for build in (_disk_system, _general_system)
         for tail, periods in ((TAIL_FINITE, 0), (TAIL_CONSTANT, 3.4),
                               (TAIL_PERIODIC, 3.73), (TAIL_PERIODIC, 11.2))]


@pytest.mark.parametrize("build, tail, periods", CASES)
def test_kernel_matches_expm_product(build, tail, periods):
    rng = np.random.default_rng(7)
    system = build(rng, 6, tail)
    zs = np.array([0.4 + 0.9j, -1.3 + 0.05j, 0.8 + 0j, 0.3 - 0.6j, 2.5j])
    ls = _lengths(system, periods)
    m, c = prop.transfer_grid(system, zs, ls)
    assert m.shape == (zs.size, ls.size, 2, 2) and c.shape == (zs.size, ls.size)
    for i, z in enumerate(zs):
        for j, l in enumerate(ls):
            ref, ref_c = _oracle(system, z, l)
            got = np.exp(c[i, j] - ref_c) * m[i, j]
            assert np.max(np.abs(got - ref)) < 1e-10, (z, l)


def test_kernel_unsorted_and_repeated_lengths():
    rng = np.random.default_rng(8)
    system = _disk_system(rng, 5, TAIL_PERIODIC)
    ls = np.array([3.1, 0.0, 1.2, 3.1, 0.4]) * system.length
    m, c = prop.transfer_grid(system, [0.2 + 0.7j], ls)
    for j, l in enumerate(ls):
        ref, ref_c = _oracle(system, 0.2 + 0.7j, l)
        assert np.max(np.abs(np.exp(c[0, j] - ref_c) * m[0, j] - ref)) < 1e-10


def test_kernel_across_blocks_and_chunks(monkeypatch):
    # more pieces than one block, cuts inside blocks and on their edges,
    # and more spectral points than one chunk
    rng = np.random.default_rng(9)
    system = _disk_system(rng, 1300, TAIL_CONSTANT)
    zs = np.linspace(-1.0 + 0.2j, 1.0 + 0.9j, 7)
    ls = np.sort(np.concatenate((system.knots[[0, 511, 512, 513, 1024, 1300]],
                                 [0.5 * system.length, 1.1 * system.length],
                                 0.5 * (system.knots[508:514] + system.knots[509:515]))))
    m, c = prop.transfer_grid(system, zs, ls)
    for i in (0, 6):
        for j, l in enumerate(ls):
            ref, ref_c = _oracle(system, zs[i], l)
            assert np.max(np.abs(np.exp(c[i, j] - ref_c) * m[i, j] - ref)) < 1e-9
    monkeypatch.setattr(prop, "_CELLS", 1)
    monkeypatch.setattr(prop, "_BLOCK", 100)
    m2, c2 = prop.transfer_grid(system, zs, ls)
    assert np.max(np.abs(np.exp(c2 - c)[..., None, None] * m2 - m)) < 1e-12


def test_kernel_log_scale_past_overflow():
    # entries near exp(1300): only the scaled pair is representable
    system = ArovParameters([0.7, 1.3], [1.0, 1.1], [0.6, -0.3j], TAIL_CONSTANT)
    z = 800j
    m, c = prop.transfer_grid(system, [z], [1.0, 2.1])
    assert c[0, 1] > 700.0
    assert np.all(np.isfinite(m))
    for j, l in enumerate((1.0, 2.1)):
        ref, ref_c = _oracle(system, z, l)
        assert abs(c[0, j] + np.log(np.max(np.abs(m[0, j]))) - ref_c) < 1e-10
        scaled = m[0, j] / np.max(np.abs(m[0, j]))
        assert np.max(np.abs(scaled - ref)) < 1e-10
    with pytest.raises(InputError):
        prop.transfer(z, system, 2.1)


def test_kernel_general_periodic_tail_matches_unrolled():
    base = schroedinger_coefficients([0.3, -1.2, 0.8], [0.31, 0.77, 1.1],
                                     tail=TAIL_PERIODIC)
    reps = 4
    unrolled = GeneralCoefficients(
        np.concatenate([base.grid + r * base.length for r in range(reps)]),
        np.tile(base.n, reps), np.tile(base.P, (reps, 1, 1)),
        np.tile(base.Q, (reps, 1, 1)), TAIL_FINITE)
    ls = np.array([0.5, 1.1, 2.2, 3.3, 4.0, 4.4])
    for z in (0.7 + 0.4j, 1.5 + 0j):
        assert np.allclose(prop.transfer_family(base, [z], ls).values,
                           prop.transfer_family(unrolled, [z], ls).values,
                           rtol=1e-11, atol=1e-11)


def test_kernel_near_vanishing_growth_rate():
    # rho^2 = |a|^2 - z^2 (1 - |a|^2) crosses 0 at real z = |a| / sqrt(1 - |a|^2):
    # sinh(x)/rho must stay accurate as x -> 0, not only finite
    a = 0.5
    system = ArovParameters([1.0], [1.0], [a], TAIL_FINITE)
    z0 = a / np.sqrt(1.0 - a * a)
    for z in (z0, z0 + 1e-13, z0 - 1e-10, z0 + 1e-7j):
        m, c = prop.transfer_grid(system, [z], [0.7])
        ref, ref_c = _oracle(system, z, 0.7)
        assert np.max(np.abs(np.exp(c[0, 0] - ref_c) * m[0, 0] - ref)) < 1e-13


def test_kernel_periodic_fold_for_non_binary_periods():
    for L in np.linspace(0.7, 1.3, 61):
        system = ArovParameters([0.4 * L, L], [1.0, 0.6], [0.3, -0.2j], TAIL_PERIODIC)
        ls = np.array([7.3, 3.0 * L, 5.0 * L + 1e-15])
        m, c = prop.transfer_grid(system, [0.3 + 0.8j], ls)
        for j, l in enumerate(ls):
            ref, ref_c = _oracle(system, 0.3 + 0.8j, l)
            assert np.max(np.abs(np.exp(c[0, j] - ref_c) * m[0, j] - ref)) < 1e-10


@pytest.mark.parametrize("build", (_disk_system, _general_system))
@pytest.mark.parametrize("tail, spans", [
    (TAIL_CONSTANT, ((1.0, 1.0), (1.0, 1.7), (1.3, 2.9), (0.5, 1.4))),
    (TAIL_PERIODIC, ((1.0, 1.0), (1.0, 1.7), (2.3, 2.9), (1.6, 4.2))),
    (TAIL_FINITE, ((1.0, 1.0), (0.3, 1.0)))])
def test_stripped_segment_inside_the_tail(build, tail, spans):
    # spans in units of the stored length L, several starting at or past L
    system = build(np.random.default_rng(12), 5, tail)
    z = 0.6 + 0.7j
    for lo, hi in (system.length * np.array(s) for s in spans):
        ref_lo, c_lo = _oracle(system, z, lo)
        ref_hi, c_hi = _oracle(system, z, hi)
        ref = np.exp(c_hi - c_lo) * np.linalg.solve(ref_lo, ref_hi)
        got = prop.transfer_between(z, system, lo, hi)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref)), (lo, hi)


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE))
def test_pieces_of_an_empty_span_at_the_end_of_the_grid(tail):
    system = _disk_system(np.random.default_rng(13), 4, tail)
    L = system.length
    assert not np.any(system.span_arrays(L, L)[1])
    if tail != TAIL_FINITE:
        assert not np.any(system.span_arrays(2.5 * L, 2.5 * L)[1])
        assert system.span_arrays(2.5 * L, 1.5 * L)[1].sum() == \
            pytest.approx(system.mu(2.5 * L) - system.mu(1.5 * L), rel=1e-12)


def test_kernel_working_memory_is_bounded():
    # blocks of pieces and chunks of spectral points: the peak does not grow
    # with the number of pieces or of spectral points
    import tracemalloc

    system = _disk_system(np.random.default_rng(11), 10_000, TAIL_CONSTANT)
    ls = np.linspace(0.0, 1.2 * system.length, 21)

    def peak(nz):
        tracemalloc.start()
        prop.transfer_grid(system, np.linspace(0.5 + 0.3j, 1.0 + 0.9j, nz), ls)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    assert peak(1) < 2**20
    assert peak(48) < 1.5 * peak(12)


@pytest.mark.parametrize("build", (_disk_system, _general_system))
@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE))
def test_kernel_empty_length_grid(build, tail):
    system = build(np.random.default_rng(14), 4, tail)
    m, c = prop.transfer_grid(system, [1j, 0.5 + 0.2j, 2.0], [])
    assert m.shape == (3, 0, 2, 2) and c.shape == (3, 0)
    if build is _disk_system:
        assert riccati_trajectory(1j, 0.3, system, []) == []


def test_kernel_rejects_bad_lengths():
    system = _disk_system(np.random.default_rng(10), 3, TAIL_FINITE)
    for ls in ([-0.1], [np.nan], [np.inf], [2.0 * system.length]):
        with pytest.raises(DomainError):
            prop.transfer_grid(system, [1j], ls)


# --- properties -------------------------------------------------------------------

systems = st.builds(
    lambda seed, n, tail: _disk_system(np.random.default_rng(seed), n, tail),
    st.integers(0, 2**32 - 1), st.integers(1, 8),
    st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC]),
)
upper = st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.01, 2.0))


@settings(max_examples=60, deadline=None)
@given(systems, st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6))
def test_property_unit_determinant(system, z, fractions):
    m, c = prop.transfer_grid(system, [z], np.array(fractions) * system.length)
    det = m[0, :, 0, 0] * m[0, :, 1, 1] - m[0, :, 0, 1] * m[0, :, 1, 0]
    # det(exp(c) M) = 1 up to round-off relative to the size of the entries
    scale = np.max(np.abs(m[0]), axis=(1, 2)) ** 2
    assert np.all(np.abs(det - np.exp(-2.0 * c[0])) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(systems, upper, st.lists(st.floats(0.0, 6.0), min_size=2, max_size=8))
def test_property_disks_nest_along_length(system, z, fractions):
    ls = np.sort(np.array(fractions) * system.length)
    centers, radii = disks_grid(system, [z], ls)
    drift = np.abs(np.diff(centers[0]))
    assert np.all(drift <= radii[0, :-1] - radii[0, 1:] + 1e-10)

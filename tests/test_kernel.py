"""The propagation kernel against an independent oracle: per-piece
``scipy.linalg.expm`` products over a piece list that the test helpers
enumerate apart from the package's piece builder, in both gauges, under
every tail policy and from any start length."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from arvcanon import (ArovParameters, DomainError, GeneralCoefficients,
                      InputError, TAIL_CONSTANT, TAIL_FINITE, TAIL_PERIODIC,
                      schroedinger_coefficients)
from arvcanon import propagate as prop
from arvcanon.riccati import riccati_trajectory
from arvcanon.weyl import disks_grid, stripped_grid

from helpers import expm_transfer, generators, reference_kernel, stream_mass


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
            ref, ref_c = expm_transfer(system, z, l)
            got = np.exp(c[i, j] - ref_c) * m[i, j]
            assert np.max(np.abs(got - ref)) < 1e-10, (z, l)


def test_kernel_unsorted_and_repeated_lengths():
    rng = np.random.default_rng(8)
    system = _disk_system(rng, 5, TAIL_PERIODIC)
    ls = np.array([3.1, 0.0, 1.2, 3.1, 0.4]) * system.length
    m, c = prop.transfer_grid(system, [0.2 + 0.7j], ls)
    for j, l in enumerate(ls):
        ref, ref_c = expm_transfer(system, 0.2 + 0.7j, l)
        assert np.max(np.abs(np.exp(c[0, j] - ref_c) * m[0, j] - ref)) < 1e-10


def _oracle_at(system, z, ls):
    """expm_transfer at ascending lengths of a finite- or constant-tail
    system, from one pass over the stored pieces: the product through the
    last knot below each length, times the propagator of the rest."""
    gens, density = generators(system, z)
    knots, n = system.knots, system.n_intervals
    m, logc, at, out = np.eye(2, dtype=complex), 0.0, [], []
    for k in range(n + 1):
        at.append((m, logc))
        if k < n:
            m = m @ expm(gens[k] * density[k] * (knots[k + 1] - knots[k]))
            s = np.max(np.abs(m))
            m, logc = m / s, logc + np.log(s)
    for l in ls:
        k = min(int(np.searchsorted(knots, l, side="right")) - 1, n)
        m, logc = at[k]
        if l > knots[k]:
            m = m @ expm(gens[min(k, n - 1)] * density[min(k, n - 1)] * (l - knots[k]))
            s = np.max(np.abs(m))
            m, logc = m / s, logc + np.log(s)
        out.append((m, logc))
    return out


def test_kernel_across_blocks_and_chunks(monkeypatch):
    # more pieces than one block; cuts on block edges, on the edges of the
    # pairwise product levels (powers of two and their neighbours), at 0,
    # repeated, and inside intervals; more spectral points than one chunk
    rng = np.random.default_rng(9)
    b = prop._BLOCK
    system = _disk_system(rng, b + 276, TAIL_CONSTANT)
    zs = np.linspace(-1.0 + 0.2j, 1.0 + 0.9j, 7)
    edges = [0, 0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 99, 100, 101, 127, 128, 129, 255, 256,
             257, 300, 511, 512, 513, 1000, 1023, 1024, 1025, b - 1, b, b, b + 1, b + 76,
             b + 127, b + 128, b + 129, b + 276]
    ls = np.sort(np.concatenate((system.knots[edges],
                                 [0.5 * system.length, 1.1 * system.length],
                                 0.5 * (system.knots[508:514] + system.knots[509:515]))))
    m, c = prop.transfer_grid(system, zs, ls)
    for i in (0, 6):
        for j, (ref, ref_c) in enumerate(_oracle_at(system, zs[i], ls)):
            assert np.max(np.abs(np.exp(c[i, j] - ref_c) * m[i, j] - ref)) < 1e-9
    # blocks of 100 pieces, each reduced by five levels to three nodes (odd
    # counts on the way), one spectral point a chunk
    monkeypatch.setattr(prop, "_CELLS", 1)
    monkeypatch.setattr(prop, "_BLOCK", 100)
    monkeypatch.setattr(prop, "_TOP", 3)
    m2, c2 = prop.transfer_grid(system, zs, ls)
    assert np.max(np.abs(np.exp(c2 - c)[..., None, None] * m2 - m)) < 1e-12


@pytest.mark.parametrize("nz", (1, 7, 100))
def test_kernel_gives_a_point_alone_the_bits_it_gets_in_a_grid(nz):
    # over a head of more than three blocks: the association order of the
    # products does not depend on how many spectral points share the call
    system = _disk_system(np.random.default_rng(15), 3 * prop._BLOCK + 300, TAIL_CONSTANT)
    zs = np.linspace(-1.5 + 0.05j, 1.5 + 2.0j, nz)
    ls = np.concatenate((system.knots[[0, 1, 700, prop._BLOCK, 2 * prop._BLOCK + 5]],
                         np.linspace(0.1, 1.2, 9) * system.length))
    m, c = prop.transfer_grid(system, zs, ls)
    for i in range(0, nz, 11):
        alone, alone_c = prop.transfer_grid(system, zs[i:i + 1], ls)
        assert alone.tobytes() == m[i:i + 1].tobytes() and alone_c.tobytes() == c[i:i + 1].tobytes()


def test_kernel_log_scale_past_overflow():
    # entries near exp(1300): only the scaled pair is representable
    system = ArovParameters([0.7, 1.3], [1.0, 1.1], [0.6, -0.3j], TAIL_CONSTANT)
    z = 800j
    m, c = prop.transfer_grid(system, [z], [1.0, 2.1])
    assert c[0, 1] > 700.0
    assert np.all(np.isfinite(m))
    for j, l in enumerate((1.0, 2.1)):
        ref, ref_c = expm_transfer(system, z, l)
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
        ref, ref_c = expm_transfer(system, z, 0.7)
        assert np.max(np.abs(np.exp(c[0, 0] - ref_c) * m[0, 0] - ref)) < 1e-13


def test_principal_square_root_has_no_negative_real_part():
    # _expm takes rho = sqrt(g11^2 + g12 g21) as numpy returns it, with no
    # sign flip: that needs numpy's complex square root to be the principal
    # branch, whose real part is never negative and never -0, also on the
    # cut (either sign of a zero imaginary part) and for subnormal and huge
    # arguments
    big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
    parts = np.array([0.0, tiny, 2.2e-308, 1e-150, 0.3, 1.0, 7.5, 1e150, 1e300, big])
    parts = np.concatenate((parts, -parts))
    w = np.empty((parts.size, parts.size), dtype=complex)
    w.real, w.imag = parts[:, None], parts[None, :]
    rng = np.random.default_rng(17)
    w = np.concatenate((w.ravel(), (rng.normal(size=4000) + 1j * rng.normal(size=4000))
                        * 10.0 ** rng.uniform(-300.0, 300.0, 4000)))
    assert not np.any(np.signbit(np.sqrt(w).real))


def test_kernel_periodic_fold_for_non_binary_periods():
    for L in np.linspace(0.7, 1.3, 61):
        system = ArovParameters([0.4 * L, L], [1.0, 0.6], [0.3, -0.2j], TAIL_PERIODIC)
        ls = np.array([7.3, 3.0 * L, 5.0 * L + 1e-15])
        m, c = prop.transfer_grid(system, [0.3 + 0.8j], ls)
        for j, l in enumerate(ls):
            ref, ref_c = expm_transfer(system, 0.3 + 0.8j, l)
            assert np.max(np.abs(np.exp(c[0, j] - ref_c) * m[0, j] - ref)) < 1e-10


@pytest.mark.parametrize("periods", [1, 2, 5, 12])
def test_periodic_tail_squares_only_the_powers_it_uses(monkeypatch, periods):
    # P^q is the product of the powers P^(2^j) of q's set bits: q.bit_length() - 1
    # squares, none past the top bit (a square of the period's power is the
    # kernel's only product of a stack by itself)
    squares, mul = [], prop._mul
    monkeypatch.setattr(prop, "_mul", lambda x, y: squares.append(x is y) or mul(x, y))
    system = ArovParameters([0.4, 1.0], [1.0, 0.6], [0.3, -0.2j], TAIL_PERIODIC)
    prop.transfer_grid(system, [0.3 + 0.8j, 1j], [periods + 0.5])
    assert sum(squares) == periods.bit_length() - 1


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
        ref_lo, c_lo = expm_transfer(system, z, lo)
        ref_hi, c_hi = expm_transfer(system, z, hi)
        ref = np.exp(c_hi - c_lo) * np.linalg.solve(ref_lo, ref_hi)
        got = prop.transfer_between(z, system, lo, hi)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref)), (lo, hi)


@pytest.mark.parametrize("build", (_disk_system, _general_system))
@pytest.mark.parametrize("tail, starts, stops", [
    (TAIL_CONSTANT, (0.0, 0.4, 1.0, 1.7), (1.0, 1.3, 2.5)),
    (TAIL_PERIODIC, (0.0, 0.4, 1.0, 1.7, 13.25), (1.0, 2.0, 2.5, 3.9, 14.1, 29.6)),
    (TAIL_FINITE, (0.0, 0.4, 1.0), (1.0,))])
def test_kernel_from_a_start_length(build, tail, starts, stops):
    # starts below, at and past L, each to every stop not below it and to
    # the stored knots past it, in units of L: the expm product over [l_from, l]
    system = build(np.random.default_rng(17), 5, tail)
    L, z = system.length, 0.35 + 0.45j
    for l_from in L * np.array(starts):
        ls = np.concatenate((system.knots, L * np.array(stops), [l_from]))
        ls = ls[ls >= l_from]
        m, c = prop.transfer_grid(system, [z], ls, l_from)
        for j, l in enumerate(ls):
            ref, ref_c = expm_transfer(system, z, l, l_from)
            got = np.exp(c[0, j] - ref_c) * m[0, j]
            assert np.max(np.abs(got - ref)) < 1e-10, (l_from, l)


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC))
def test_kernel_gives_a_point_alone_its_grid_bits_from_a_start_length(tail):
    system = _disk_system(np.random.default_rng(16), 3 * prop._BLOCK + 300, tail)
    L = system.length
    l_from = float(system.knots[700]) + 0.1
    zs = np.linspace(-1.5 + 0.05j, 1.5 + 2.0j, 23)
    ls = l_from + L * np.array([0.0, 1e-3, 0.3, 0.9, 1.7, 4.25])
    m, c = prop.transfer_grid(system, zs, ls, l_from)
    for i in range(0, zs.size, 11):
        alone, alone_c = prop.transfer_grid(system, zs[i:i + 1], ls, l_from)
        assert alone.tobytes() == m[i:i + 1].tobytes() and alone_c.tobytes() == c[i:i + 1].tobytes()


def test_kernel_rejects_lengths_below_the_start():
    system = _disk_system(np.random.default_rng(10), 3, TAIL_PERIODIC)
    for l_from, ls in ((-0.5, [1.0]), (np.inf, [np.inf]), (np.nan, [1.0]), (2.0, [1.0, 3.0])):
        with pytest.raises(DomainError):
            prop.transfer_grid(system, [1j], ls, l_from)


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE))
def test_pieces_of_an_empty_span_at_the_end_of_the_grid(tail):
    system = _disk_system(np.random.default_rng(13), 4, tail)
    L = system.length
    assert stream_mass(system, L, L) == 0.0
    if tail != TAIL_FINITE:
        assert stream_mass(system, 2.5 * L, 2.5 * L) == 0.0
        assert stream_mass(system, 2.5 * L, 1.5 * L) == \
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


@pytest.mark.parametrize("build", (_disk_system, _general_system))
def test_kernel_refuses_points_whose_generator_square_overflows(build):
    system = build(np.random.default_rng(10), 3, TAIL_CONSTANT)
    L = system.length
    for call in (prop.transfer_grid, prop.transfer_to_end):
        with pytest.raises(DomainError, match="too large"):
            call(system, [1j, 1e200 + 1j], [0.5 * L])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, c = call(system, [1e150 + 1j], [0.5 * L])
        assert np.all(np.isfinite(m)) and np.all(np.isfinite(c))


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
@given(st.integers(0, 2**32 - 1), st.sampled_from([_disk_system, _general_system]),
       st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]),
       st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.0, 1.0)),
       st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       st.sampled_from([1.0, 3.0, 60.0]))
def test_property_transfer_grid_from_a_start_length(seed, build, tail, z, start, spans, reach):
    # l_from anywhere in [0, reach L] (past L, and across many periods), the
    # lengths anywhere past it: the expm product over [l_from, l], relative
    # to its largest entry
    system = build(np.random.default_rng(seed), 4, tail)
    top = system.length * (1.0 if tail == TAIL_FINITE else reach)
    l_from = start * top
    # l_from + (top - l_from) can round an ulp past top, past a finite tail
    ls = np.minimum(l_from + np.array(spans) * (top - l_from), top)
    m, c = prop.transfer_grid(system, [z], ls, l_from)
    for j, l in enumerate(ls):
        ref, ref_c = expm_transfer(system, z, l, l_from)
        got = np.exp(c[0, j] - ref_c) * m[0, j]
        assert np.max(np.abs(got - ref)) <= 1e-10, (l_from, l)


@settings(max_examples=60, deadline=None)
@given(systems, upper, st.lists(st.floats(0.0, 6.0), min_size=2, max_size=8))
def test_property_disks_nest_along_length(system, z, fractions):
    ls = np.sort(np.array(fractions) * system.length)
    centers, radii = disks_grid(system, [z], ls)
    drift = np.abs(np.diff(centers[0]))
    assert np.all(drift <= radii[0, :-1] - radii[0, 1:] + 1e-10)


# --- the suffix mode --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_disk_system, _general_system]),
       st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]),
       st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.0, 1.0)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), st.integers(0, 5))
def test_property_suffix_mode_matches_expm_product(seed, build, tail, z, fractions, knot):
    # T(z; l -> L) for l anywhere in [0, L], a knot among them, in both
    # gauges and under every tail: the expm product over [l, L] relative to
    # its largest entry, so the transposed generator table is checked in the
    # general gauge too
    system = build(np.random.default_rng(seed), 5, tail)
    L = system.length
    ls = np.append(np.array(fractions) * L, system.knots[knot])
    m, c = prop.transfer_to_end(system, [z], ls)
    assert m.shape == (1, ls.size, 2, 2) and c.shape == (1, ls.size)
    for j, l in enumerate(ls):
        ref, ref_c = expm_transfer(system, z, L, l)
        got = np.exp(c[0, j] - ref_c) * m[0, j]
        assert np.max(np.abs(got - ref)) <= 1e-10, l


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC))
def test_suffix_mode_gives_a_point_alone_the_bits_it_gets_in_a_grid(tail):
    # over a head of more than three blocks, and through the stripped values
    # pulled back on it
    system = _disk_system(np.random.default_rng(18), 3 * prop._BLOCK + 300, tail)
    L = system.length
    zs = np.linspace(-1.5 + 0.05j, 1.5 + 2.0j, 23)
    ls = np.concatenate((system.knots[[0, 1, 700, prop._BLOCK, 2 * prop._BLOCK + 5, -1]],
                         np.linspace(0.1, 0.9, 5) * L))
    m, c = prop.transfer_to_end(system, zs, ls)
    s = stripped_grid(zs, system, np.append(ls, [1.3 * L, 4.7 * L]))
    for i in range(0, zs.size, 11):
        alone, alone_c = prop.transfer_to_end(system, zs[i:i + 1], ls)
        assert alone.tobytes() == m[i:i + 1].tobytes() and alone_c.tobytes() == c[i:i + 1].tobytes()
        alone = stripped_grid(zs[i:i + 1], system, np.append(ls, [1.3 * L, 4.7 * L]))
        assert alone.tobytes() == s[i:i + 1].tobytes()


def test_suffix_mode_rejects_lengths_outside_the_head():
    system = _disk_system(np.random.default_rng(10), 3, TAIL_PERIODIC)
    for ls in ([-0.1], [np.nan], [np.inf], [1.5 * system.length]):
        with pytest.raises(DomainError):
            prop.transfer_to_end(system, [1j], ls)
    m, c = prop.transfer_to_end(system, [1j, 2.0], [])
    assert m.shape == (2, 0, 2, 2) and c.shape == (2, 0)


# --- the kernel's bits and working set --------------------------------------------


def _null_system(rng, gauge, n, tail):
    """A system of n intervals in the given gauge, about one interval in
    four of no mass (x = 0 at every z) and one in four with a generator that
    vanishes at z = 0 (disk gauge a = 0, general gauge r = b = c = 0), where
    x = 0 and both factors (rho +- g11) are 0."""
    grid = np.cumsum(rng.uniform(0.13, 0.37, n))
    density = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.3, 1.5, n))
    live = rng.random(n) >= 0.25
    phase = np.exp(2j * np.pi * rng.uniform(size=n))
    if gauge == "disk":
        return ArovParameters(grid, density, live * rng.uniform(0.0, 0.9, n) * phase, tail)
    p = rng.uniform(0.5, 1.5, n)
    b = live * rng.uniform(0.0, 0.9, n) * p * phase
    r, c = live * rng.normal(size=n), live * (rng.normal(size=n) + 1j * rng.normal(size=n))
    P = np.stack([np.stack([p, b], -1), np.stack([np.conj(b), p], -1)], -2)
    Q = np.stack([np.stack([1j * r, c], -1), np.stack([-np.conj(c), 1j * r], -1)], -2)
    return GeneralCoefficients(grid, density, P, Q, tail)


def _kernel_outputs(system, zs, ls, heads):
    return (*prop.transfer_grid(system, zs, ls), *prop.transfer_to_end(system, zs, heads))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["disk", "general"]),
       st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]),
       st.sampled_from([prop._TOP - 1, prop._TOP, prop._TOP + 1, prop._BLOCK - 1, prop._BLOCK,
                        prop._BLOCK + 1]) | st.integers(1, 40),
       st.integers(1, 150), st.booleans())
# z = 0 against generators that vanish there (big = 0), over one block and
# a block and a piece, in both gauges
@example(seed=1, gauge="disk", tail=TAIL_CONSTANT, n=prop._BLOCK + 1, nz=150, zero=True)
@example(seed=2, gauge="general", tail=TAIL_PERIODIC, n=prop._TOP, nz=1, zero=True)
# the constant tail's one piece at one point: a (1, 1) stack, where numpy
# rounds a complex product written over its own operand otherwise
@example(seed=241, gauge="disk", tail=TAIL_CONSTANT, n=1023, nz=1, zero=False)
def test_kernel_bits_equal_the_reference_forms(seed, gauge, tail, n, nz, zero):
    # the kernel, writing into buffers it already holds and dropping each
    # temporary after its last use, gives the bytes of the reference forms
    # (a new array per intermediate) in transfer_grid and transfer_to_end:
    # spectral points on and off the real axis (both signs of
    # Re(rho conj(g11))), knots as heads so the stream is n pieces wide,
    # lengths inside intervals and, past L, into the tail
    rng = np.random.default_rng(seed)
    system = _null_system(rng, gauge, n, tail)
    L = system.length
    zs = rng.uniform(-2.0, 2.0, nz) + 1j * rng.choice([-1.0, 0.0, 1.0], nz) * rng.uniform(0, 2, nz)
    if zero:
        zs[rng.integers(nz)] = 0.0
    heads = np.concatenate((system.knots[rng.integers(0, n + 1, 4)], [L],
                            rng.uniform(0.0, L, 2)))
    reach = np.array([] if tail == TAIL_FINITE else [1.0, 1.7, 6.3]) * L
    ls = np.concatenate((heads, reach))
    got = _kernel_outputs(system, zs, ls, heads)
    with reference_kernel():
        want = _kernel_outputs(system, zs, ls, heads)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_kernel_reference_examples_reach_every_branch():
    # a _null_system meets both branches of the factors (rho +- g11) and
    # big = 0 at z = 0, read off the generator entries the kernel is given,
    # and there too the kernel gives the reference forms' bytes
    for gauge in ("disk", "general"):
        system = _null_system(np.random.default_rng(3), gauge, 40, TAIL_CONSTANT)
        p, alpha, r, gamma = (g[:, None] for g in system.generator_table)
        z = np.array([0.0, 0.7 + 0.4j, -1.2 - 0.3j, 1.5])
        g11 = -1j * (z * p - r)
        rho = np.sqrt(g11 * g11 + (-1j * z * np.conj(alpha) - np.conj(gamma))
                      * (1j * z * alpha - gamma))
        flip = (rho * np.conj(g11)).real < 0.0
        big = np.where(flip, rho - g11, rho + g11)
        assert flip.any() and (~flip).any() and (big == 0.0).any()
        ls = np.append(system.knots[::7], 2.5 * system.length)
        got = _kernel_outputs(system, z, ls, system.knots[::7])
        with reference_kernel():
            want = _kernel_outputs(system, z, ls, system.knots[::7])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_kernel_chunk_working_memory_is_below_the_reference_forms():
    # one chunk of _CELLS (z, piece) cells, its propagators and the products
    # read off them: scanned whole (64 points x 64 pieces) and through levels
    # of pairwise products (4 x 1024, and 2 x 2048, the widest chunk of a
    # 2048-piece block).  The output stack is 64 bytes a cell; the reference
    # forms peak at 4.6 to 5.0 such stacks (1,213 to 1,306 kB at 4,096
    # cells), the kernel at 3.0 to 3.2
    import tracemalloc

    system = _disk_system(np.random.default_rng(12), prop._BLOCK, TAIL_CONSTANT)
    gen = system.generator_table

    def peak(nz):
        n = prop._CELLS // nz
        k = np.arange(n)
        d = system.density[k] * system.widths[k]
        zs = np.linspace(-2.0 + 0.1j, 2.0 + 2.0j, nz)
        tracemalloc.start()
        prop._prefixes(*prop._propagators(zs, gen, k, d), np.array([1, n // 3, n]))
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    for nz in (64, 4, 2):
        with reference_kernel():
            reference = peak(nz)
        got = peak(nz)
        assert got < 0.8 * reference
        assert got < 3.5 * 64 * prop._CELLS

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arvcanon import (ArovParameters, CoefficientError, DomainError, ParseError,
                      PreconditionError, TAIL_CONSTANT, TAIL_FINITE,
                      TAIL_PERIODIC, constant_parameters, dirac_coefficients,
                      load_parameters, reflect, save_parameters,
                      schroedinger_coefficients, strip_head)
from arvcanon import decimals
from arvcanon.coefficients import (GeneralCoefficients, _load_json, parameters_from_dict,
                                    write_json)
from arvcanon.decimals import _BLOCK
from arvcanon.mat2 import J, herm_eigs, mat2
from arvcanon.propagate import transfer

from helpers import (ab_from_a, coefficient_texts, random_general as _random_general,
                     random_parameters, reference_piece_arrays, reparametrize, stream_mass,
                     unrolled_pieces)


# --- ArovParameters invariants ------------------------------------------------

def test_rejects_negative_density():
    with pytest.raises(CoefficientError, match="negative"):
        ArovParameters([1.0], [-0.5], [0.0])


def test_general_rejects_non_finite_density():
    # a NaN density wrote NaN transfer matrices and exited 0
    c = dirac_coefficients()
    for bad in (np.nan, np.inf):
        with pytest.raises(CoefficientError, match="non-finite"):
            GeneralCoefficients(c.grid, [bad], c.P, c.Q)


def test_rejects_coefficient_outside_disk():
    with pytest.raises(CoefficientError, match=r"\|a\|"):
        ArovParameters([1.0], [1.0], [1.0 + 1e-6])


def test_rejects_bad_grid():
    with pytest.raises(CoefficientError):
        ArovParameters([1.0, 0.5], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(CoefficientError):
        ArovParameters([0.0], [1.0], [0.0])


def test_rejects_unknown_tail():
    with pytest.raises(CoefficientError):
        ArovParameters([1.0], [1.0], [0.0], tail="bouncy")


def test_boundary_coefficient_allowed():
    p = ArovParameters([1.0], [1.0], [1.0])
    assert abs(p.a[0]) == 1.0


def test_mu_piecewise_linear_and_tails():
    p = ArovParameters([1.0, 2.0], [2.0, 0.5], [0.0, 0.0], tail=TAIL_CONSTANT)
    assert p.mu(0.0) == 0.0
    assert p.mu(0.5) == 1.0
    assert p.mu(1.0) == 2.0
    assert p.mu(2.0) == 2.5
    assert p.mu(4.0) == 2.5 + 0.5 * 2.0
    assert p.mu(np.array([0.0, 0.5, 1.0, 2.0, 4.0])).tolist() == [0.0, 1.0, 2.0, 2.5, 3.5]
    per = ArovParameters([1.0, 2.0], [2.0, 0.5], [0.0, 0.0], tail=TAIL_PERIODIC)
    assert per.mu(5.0) == 2 * 2.5 + 2.0
    assert per.mu(np.array([1.0, 2.0, 5.0])).tolist() == [2.0, 2.5, 7.0]
    fin = ArovParameters([1.0, 2.0], [2.0, 0.5], [0.0, 0.0], tail=TAIL_FINITE)
    for l in (2.1, np.array([1.0, 2.1]), np.nan):
        with pytest.raises(DomainError):
            fin.mu(l)


def test_mu_monotone_on_random_systems():
    rng = np.random.default_rng(5)
    p = random_parameters(rng, zero_mass_interval=True)
    ls = np.linspace(0.0, 2.0 * p.length, 200)
    mus = [p.mu(l) for l in ls]
    assert all(b >= a for a, b in zip(mus, mus[1:]))


def test_l_of_mu_inverts_mu():
    rng = np.random.default_rng(6)
    p = random_parameters(rng)
    for mu in np.linspace(0.0, p.mu(3.0 * p.length), 17):
        assert abs(p.mu(p.l_of_mu(mu)) - mu) < 1e-12


@pytest.mark.parametrize("tail", (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE))
def test_l_of_mu_returns_a_float(tail):
    # past the end of a constant tail it once returned np.float64
    p = ArovParameters([1.0, 2.0], [1.0, 0.5], [0.3, 0.2j], tail)
    total = p.mu(p.length)
    beyond = () if tail == TAIL_FINITE else (1.5 * total, 3.2 * total)
    for mu in (0.0, 0.5 * total, total) + beyond:
        assert type(p.l_of_mu(mu)) is float


def test_pieces_cover_partial_intervals():
    p = ArovParameters([1.0, 2.0], [1.0, 2.0], [0.1, 0.2j])
    k, d, ends, at, q, t = p.piece_arrays([1.5])
    assert k.tolist() == [0, 1] and d.tolist() == [1.0, 1.0]
    assert ends[at].tolist() == [2] and q is None and t is None
    k, d, ends, at, _, _ = p.piece_arrays([1.5], 0.5)
    assert k.tolist() == [0, 1] and d.tolist() == [0.5, 1.0] and ends[at].tolist() == [2]


def test_pieces_skip_zero_mass():
    # a zero-mass interval is a piece of mass 0: it moves nothing
    p = ArovParameters([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [0.1, 0.5, 0.9])
    k, d, _, _, _, _ = p.piece_arrays([3.0])
    assert d.tolist() == [1.0, 0.0, 1.0]
    assert p.a[k[d > 0]].tolist() == [0.1 + 0j, 0.9 + 0j]


def test_pieces_fold_periodic_tail():
    p = ArovParameters([1.0], [1.0], [0.3], tail=TAIL_PERIODIC)
    k, d, ends, at, q, _ = p.piece_arrays([2.5])
    assert k.tolist() == [0, 0] and q.tolist() == [2]
    assert q[0] * d[:ends[-1]].sum() + d[:ends[at[0]]].sum() == 2.5
    # from l_from = 1.25 the stream is the period rotated to start at 0.25
    k, d, ends, at, q, _ = p.piece_arrays([2.5, 3.0], 1.25)
    assert d.tolist() == [0.25, 0.5, 0.25] and ends.tolist() == [0, 1, 2, 2, 3]
    assert at.tolist() == [1, 3] and q.tolist() == [1, 1]


def test_pieces_refuse_period_counts_past_int64():
    # the count of 2^63 periods or more wrapped to -2^63 in the int64 cast;
    # the largest count below it is kept exactly
    p = ArovParameters([1.0, 2.0], [1.0, 0.5], [0.5, 0.3j], tail=TAIL_PERIODIC)
    assert p.piece_arrays([2.0 * (2.0 ** 63 - 1024)])[4].tolist() == [2 ** 63 - 1024]
    for ls, l_from in (([2.0 ** 64], 0.0), ([1.0, 1e300], 0.0), ([3e300], 1e300)):
        with pytest.raises(DomainError, match="periods"):
            p.piece_arrays(ls, l_from)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]),
       st.sampled_from(["knot", "period", "inside"]), st.integers(0, 12), st.integers(0, 7),
       st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.lists(st.integers(0, 12), max_size=3))
def test_property_pieces_from_a_start_equal_the_reference(seed, tail, start, knot, periods, frac,
                                                          spans, on_knots):
    # the stream from a start on a knot, on a multiple of L or inside a
    # period, to lengths anywhere past it and on knots of later periods, is
    # bit for bit the reference's, whose rotation slices and concatenates
    p = random_parameters(np.random.default_rng(seed), tail=tail, zero_mass_interval=True)
    L, knots = p.length, p.knots
    if tail == TAIL_FINITE:
        periods = 0
    l_from = {"knot": periods * L + knots[min(knot, p.n_intervals)], "period": periods * L,
              "inside": (periods + frac) * L}[start]
    l_from = min(l_from, L) if tail == TAIL_FINITE else l_from
    top = L if tail == TAIL_FINITE else (periods + 3) * L
    ls = np.minimum(l_from + np.array(spans) * (top - l_from), top)
    later = (periods + 1) * L + knots[np.minimum(np.array(on_knots, dtype=int), p.n_intervals)]
    ls = np.concatenate((ls, later[later >= l_from] if tail != TAIL_FINITE else []))
    got, want = p.piece_arrays(ls, l_from), reference_piece_arrays(p, ls, l_from)
    for a, b in zip(got, want):
        assert (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape
                                               and a.tobytes() == b.tobytes())


# --- ab_from_a ------------------------------------------------------------------

def test_ab_zero_coefficient():
    pair = ab_from_a(0.0)
    assert np.allclose(pair.A, np.eye(2))
    assert np.allclose(pair.B, 0.0)


def test_ab_boundary_coefficient():
    pair = ab_from_a(1.0)
    assert np.allclose(pair.A, mat2(1, -1, -1, 1))
    assert np.allclose(pair.B, mat2(0, 1, -1, 0))
    lo, _ = herm_eigs(pair.A)
    assert abs(lo) < 1e-15  # rank one


def test_ab_sum_formula():
    pair = ab_from_a(0.3 + 0.4j)
    assert np.allclose(pair.a_plus_b, mat2(1, 0, -0.6 - 0.8j, 1))


def test_ab_trace_identities_exact():
    for a in (0.0, 0.5, 0.3 - 0.9j, 1j):
        pair = ab_from_a(a)
        assert np.trace(J @ pair.A) == 0
        assert np.trace(J @ pair.B) == 0
        assert np.trace(pair.B) == 0
        lo, _ = herm_eigs(pair.A)
        assert lo >= -1e-15


def test_ab_range_error():
    with pytest.raises(CoefficientError):
        ab_from_a(1.0 + 1e-6)


# --- reflect -------------------------------------------------------------------

def test_reflect_conjugates_coefficient():
    p = constant_parameters(0.3 + 0.4j)
    q = reflect(p)
    assert q.a[0] == 0.3 - 0.4j
    assert np.array_equal(q.m, p.m)
    assert np.array_equal(q.grid, p.grid)


def test_reflect_is_involution_bit_for_bit():
    rng = np.random.default_rng(7)
    p = random_parameters(rng)
    q = reflect(reflect(p))
    assert np.array_equal(q.a, p.a)
    assert np.array_equal(q.m, p.m)
    assert np.array_equal(q.grid, p.grid)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 3.0),
                          st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))),
                min_size=1, max_size=8),
       st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]))
def test_property_reflect_is_involution_bit_for_bit(intervals, tail):
    widths, m, a = (np.array(column) for column in zip(*intervals))
    p = ArovParameters(np.cumsum(widths), m, a.astype(complex), tail)
    q = reflect(reflect(p))
    for name in ("grid", "m", "a"):
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
    assert q.tail == p.tail


def test_reflect_fixes_real_coefficients():
    p = constant_parameters(0.7)
    q = reflect(p)
    assert np.array_equal(q.a, p.a)


# --- reparametrize ---------------------------------------------------------------

def test_reparametrize_identity():
    rng = np.random.default_rng(8)
    p = random_parameters(rng, n_max=5)
    q = reparametrize(p, [0.0, p.length], [0.0, p.length])
    z, l = 0.4 + 0.8j, 0.7 * p.length
    assert np.allclose(transfer(z, q, l), transfer(z, p, l), atol=1e-12)


def test_reparametrize_halved_map_doubles_grid():
    # g(new) = new/2 maps the doubled grid onto the original one
    p = constant_parameters(0.5, m=1.0, length=1.0)
    q = reparametrize(p, [0.0, 2.0], [0.0, 1.0])
    assert np.allclose(q.grid, [2.0])
    assert np.allclose(q.m, [0.5])
    # cumulative measure matches at mapped points
    for l in (0.5, 1.2, 2.0):
        assert abs(q.mu(l) - p.mu(l / 2.0)) < 1e-12


def test_reparametrize_transfer_invariance_random_map():
    rng = np.random.default_rng(9)
    p = random_parameters(rng, n_max=6, total_mu=1.5)
    breaks = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 2.0, 3))))
    values = np.concatenate(([0.0], np.sort(rng.uniform(0.1, p.length, 3))))
    q = reparametrize(p, breaks, values)

    def g(x):
        if x <= breaks[-1]:
            return float(np.interp(x, breaks, values))
        slope = (values[-1] - values[-2]) / (breaks[-1] - breaks[-2])
        return float(values[-1] + slope * (x - breaks[-1]))

    z = 0.3 + 1.1j
    for l in rng.uniform(0.0, 2.5, 5):
        assert np.max(np.abs(transfer(z, q, l) - transfer(z, p, g(l)))) < 1e-10


def test_reparametrize_preserves_mass():
    rng = np.random.default_rng(10)
    p = random_parameters(rng, n_max=8)
    q = reparametrize(p, [0.0, 1.0, 3.0], [0.0, 0.5 * p.length, p.length])
    total_p = p.mu(p.length)
    total_q = q.mu(q.length)
    assert abs(total_q - total_p) <= 1e-12 * max(1.0, total_p)


def test_reparametrize_to_lebesgue_measure():
    rng = np.random.default_rng(11)
    p = random_parameters(rng, n_max=6)
    q = reparametrize(p, p.mu_knots, p.knots)
    assert np.allclose(q.m, 1.0, atol=1e-12)


def test_reparametrize_rejects_non_monotone():
    p = constant_parameters(0.2)
    with pytest.raises(PreconditionError):
        reparametrize(p, [0.0, 1.0, 2.0], [0.0, 0.8, 0.5])


# --- general coefficients --------------------------------------------------------

def test_dirac_is_valid():
    dirac_coefficients(length=2.0, n_intervals=3)


def test_schroedinger_is_valid_for_any_real_potential():
    rng = np.random.default_rng(12)
    q = rng.normal(size=5) * 3.0
    schroedinger_coefficients(q, np.linspace(0.4, 2.0, 5))


def test_general_rejects_indefinite_p():
    c = dirac_coefficients(length=1.0)
    bad_p = c.P.copy()
    bad_p[0] = np.diag([1.0, -1.0])
    with pytest.raises(CoefficientError, match="positive semidefinite"):
        GeneralCoefficients(c.grid, c.n, bad_p, c.Q, c.tail)


def test_general_rejects_traceful_q():
    c = dirac_coefficients(length=1.0)
    bad_q = c.Q.copy()
    bad_q[0] = 1j * np.diag([1.0, -1.0])  # anti-Hermitian but trace(jQ) != 0
    with pytest.raises(CoefficientError, match="trace"):
        GeneralCoefficients(c.grid, c.n, c.P, bad_q, c.tail)


def test_general_rejects_non_antihermitian_q():
    c = dirac_coefficients(length=1.0)
    bad_q = c.Q.copy()
    bad_q[0] = np.eye(2)
    with pytest.raises(CoefficientError, match="anti-Hermitian"):
        GeneralCoefficients(c.grid, c.n, c.P, bad_q, c.tail)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(
    ["P11 != P22", "P not Hermitian", "P indefinite", "Q not anti-Hermitian",
     "trace(j Q) != 0", "negative n", "NaN in P", "NaN in Q"]))
def test_property_broken_general_systems_are_not_built(seed, case):
    # one broken invariant: the constructor and the dict parse raise the same
    # error naming it (a P11 != P22 system was built, its P22 dropped)
    rng = np.random.default_rng(seed)
    c = _random_general(rng, int(rng.integers(1, 6)), TAIL_FINITE)
    n, P, Q = c.n.copy(), c.P.copy(), c.Q.copy()
    k = int(rng.integers(c.n_intervals))
    i, j = rng.integers(2, size=2)
    if case == "P11 != P22":
        P[k, 0, 0] += rng.uniform(0.1, 1.0)
        pattern = rf"trace\(j P\[{k}\]\) = .* nonzero"
    elif case == "P not Hermitian":
        P[k, 0, 1] += rng.uniform(0.1, 1.0)
        pattern = rf"P\[{k}\] not Hermitian"
    elif case == "P indefinite":
        P[k, 0, 1] = P[k, 1, 0] = rng.uniform(1.1, 3.0) * P[k, 0, 0]
        pattern = rf"P\[{k}\] not positive semidefinite"
    elif case == "Q not anti-Hermitian":
        Q[k, 0, 1] += rng.uniform(0.1, 1.0)
        pattern = rf"Q\[{k}\] not anti-Hermitian"
    elif case == "trace(j Q) != 0":
        Q[k, 0, 0] += 1j * rng.uniform(0.1, 1.0)
        pattern = rf"trace\(j Q\[{k}\]\) = .* nonzero"
    elif case == "negative n":
        n[k] = -rng.uniform(0.1, 1.0)
        pattern = rf"density n\[{k}\] = .* is negative"
    else:
        (P if case == "NaN in P" else Q)[k, i, j] = np.nan
        pattern = rf"non-finite P/Q at interval {k}"
    with pytest.raises(CoefficientError, match=pattern) as built:
        GeneralCoefficients(c.grid, n, P, Q, c.tail)
    d = {**c.to_dict(), "n": n.tolist(), "P": np.stack((P.real, P.imag), -1).tolist(),
         "Q": np.stack((Q.real, Q.imag), -1).tolist()}
    with pytest.raises(CoefficientError) as parsed:
        parameters_from_dict(d)
    assert type(parsed.value) is type(built.value) and str(parsed.value) == str(built.value)


# --- strip_head -----------------------------------------------------------------

def test_strip_head_matches_segment_product():
    rng = np.random.default_rng(13)
    p = random_parameters(rng, n_max=7)
    from arvcanon.propagate import transfer_between
    l0 = 0.4 * p.length
    q = strip_head(p, l0)
    z = -0.2 + 0.9j
    for t in (0.3, 1.0, 2.2):
        assert np.allclose(
            transfer(z, q, t), transfer_between(z, p, l0, l0 + t), atol=1e-11
        )


def test_strip_head_rotates_periodic_pattern():
    from arvcanon.propagate import transfer, transfer_between
    p = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.2j], tail=TAIL_PERIODIC)
    z = 0.2 + 0.7j
    for l0 in (0.3, 0.5, 0.85, 1.3, 2.5):
        q = strip_head(p, l0)
        if l0 % 1.0 != 0.0:
            assert abs(q.length - 1.0) < 1e-12  # period preserved
        for t in (0.4, 1.0, 2.7):
            assert np.allclose(
                transfer(z, q, t), transfer_between(z, p, l0, l0 + t), atol=1e-11
            )


def test_strip_head_below_round_off_of_a_periodic_pattern():
    # moving a head narrower than the round-off of L to the end of the
    # pattern left a zero-width interval, which the constructor rejects
    p = ArovParameters([0.4, 1.0], [1.0, 0.6], [0.3, -0.2j], tail=TAIL_PERIODIC)
    for l0 in (1e-300, 1e-17):
        q = strip_head(p, l0)
        assert np.array_equal(q.grid, p.grid)
        assert np.array_equal(q.a, p.a)


def test_strip_head_composes():
    from arvcanon.propagate import transfer
    p = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.2j], tail=TAIL_PERIODIC)
    q1 = strip_head(strip_head(p, 0.3), 0.4)
    q2 = strip_head(p, 0.7)
    z = -0.4 + 1.1j
    for t in (0.5, 1.9):
        assert np.allclose(transfer(z, q1, t), transfer(z, q2, t), atol=1e-11)


def test_strip_head_keeps_the_intervals_just_past_l0():
    # a cut 1e-7 before a knot of a system 1e10 long: the two intervals
    # after it, one 1e-6 wide that carries mass 1, are the stored intervals
    # as the piece stream cuts them, not dropped below a threshold of L
    p = ArovParameters([5.0, 5.000001, 1e10], [1.0, 1e6, 1e-9], [0.3, 0.6j, 0.1], TAIL_CONSTANT)
    l0 = 5.0 - 1e-7
    q = strip_head(p, l0)
    assert q.grid.tolist() == [5.0 - l0, 5.000001 - l0, 1e10 - l0]
    assert q.m.tolist() == [1.0, 1e6, 1e-9]
    assert q.a.tolist() == [0.3, 0.6j, 0.1]
    assert q.tail == TAIL_CONSTANT
    from arvcanon.propagate import transfer_between
    z = 0.3 + 0.5j
    assert np.abs(transfer(z, q, 1.0) - transfer_between(z, p, l0, l0 + 1.0)).max() <= 1e-12


@pytest.mark.parametrize("tail", [TAIL_FINITE, TAIL_CONSTANT, TAIL_PERIODIC])
@pytest.mark.parametrize("gauge", ["schroedinger", "dirac"])
def test_strip_head_in_the_general_gauge(gauge, tail):
    # (n, P, Q) are cut by the index that cuts the grid, as (m, a) are: a
    # stripped general-gauge system raised AttributeError on p.m
    from arvcanon.propagate import transfer_between
    if gauge == "schroedinger":
        rng = np.random.default_rng(27)
        p = schroedinger_coefficients(rng.normal(size=5), [0.3, 0.5, 1.1, 1.4, 2.0], tail)
    else:
        c = dirac_coefficients(2.0, 3)
        p = GeneralCoefficients(c.grid, [1.0, 0.4, 2.5], c.P, c.Q, tail)
    z = 0.3 + 0.6j
    for l0 in (0.2, 0.5, 1.25, 2.0, 3.7):
        if tail == TAIL_FINITE and l0 >= p.length:
            continue
        q = strip_head(p, l0)
        assert type(q) is GeneralCoefficients and q.tail == tail
        stop = p.length - l0 if tail == TAIL_FINITE else 2.6
        for t in (0.15, 0.5 * stop, stop):
            want = transfer_between(z, p, l0, l0 + t)
            got = transfer(z, q, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (l0, t)


@pytest.mark.parametrize("tail", [TAIL_CONSTANT, TAIL_PERIODIC])
def test_mu_refuses_the_lengths_a_span_refuses(tail):
    p = ArovParameters([0.5, 1.0], [1.0, 0.5], [0.3, -0.2j], tail)
    for l in (np.nan, np.inf, np.array([1.0, np.nan]), -1.0):
        with pytest.raises(DomainError):
            p.mu(l)
    if tail == TAIL_PERIODIC:
        with pytest.raises(DomainError, match="periods"):
            p.mu(2.0 ** 64)


# --- JSON round trips -------------------------------------------------------------

def test_json_round_trip_arov(tmp_path):
    rng = np.random.default_rng(14)
    p = random_parameters(rng)
    path = tmp_path / "p.json"
    save_parameters(p, path)
    q = load_parameters(path)
    assert np.allclose(q.grid, p.grid)
    assert np.allclose(q.m, p.m)
    assert np.allclose(q.a, p.a)
    assert q.tail == p.tail


def test_json_round_trip_general(tmp_path):
    c = schroedinger_coefficients([1.5, -0.5], [0.7, 1.3])
    path = tmp_path / "c.json"
    save_parameters(c, path)
    d = load_parameters(path)
    assert np.allclose(d.P, c.P)
    assert np.allclose(d.Q, c.Q)


def test_json_round_trip_full_line(tmp_path):
    left = constant_parameters(0.2 + 0.1j)
    right = constant_parameters(0.5)
    path = tmp_path / "full.json"
    save_parameters((left, right), path)
    l2, r2 = load_parameters(path)
    assert np.allclose(l2.a, left.a)
    assert np.allclose(r2.a, right.a)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=6))
def test_json_writer_reads_as_indented_json_does(payload):
    # one key a line with the value on it: the same JSON as json.dumps gives
    # with an indent, written by the C encoder
    fh = io.StringIO()
    write_json(payload, fh)
    text = fh.getvalue()
    assert json.loads(text) == json.loads(json.dumps(payload, indent=1, sort_keys=True))
    if payload:
        assert len(text.splitlines()) == len(payload) + 2



#: numbers where the JSON text of a float is easy to get wrong: signed
#: zeros, subnormals, the normal range's ends, infinities, NaN and
#: integral values, some past 2^53
AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072009e-308,
                    2.2250738585072014e-308, -1e-308, 1.7976931348623157e308, -1e308,
                    np.inf, -np.inf, np.nan, 1.0, -3.0, 123456.0, 1e16, 2.0 ** 53 + 2,
                    12345678901234568.0, 1e17, -1e22, 0.1, 1e-5, 1e-4])


def _array(seed, shape, count):
    """A float array of the shape (n, *shape) holding about count numbers:
    awkward values, doubles of every exponent from random bits, integers."""
    rng = np.random.default_rng(seed)
    n = count // max(1, math.prod(shape))
    size = n * math.prod(shape)
    pick = rng.integers(0, 3, size)
    x = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(float)
    x[pick == 0] = rng.choice(AWKWARD, int(np.sum(pick == 0)))
    x[pick == 1] = rng.integers(-2 ** 60, 2 ** 60, int(np.sum(pick == 1)))
    return x.reshape((n, *shape))


def _same_floats(got, want):
    """Bit for bit, but any NaN for a NaN, as JSON has one NaN."""
    got = np.asarray(got, dtype=float).reshape(want.shape)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


counts = st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]) | st.integers(0, 40)
arrays = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (2,), (2, 2, 2)]), counts)


@settings(max_examples=40, deadline=None)
@given(st.lists(arrays, max_size=4), st.dictionaries(st.text(), json_values, max_size=3))
def test_json_writer_arrays_read_back_bit_for_bit(drawn, plain):
    # float arrays, alone, side by side, inside a nested dict and among
    # plain values, read back bit for bit through json.loads and through
    # load_parameters' JSON reader (_load_json, which takes any values, not
    # only a valid system); each number is the bytes of format(x, ".17g")
    # but for JSON's -0.0, NaN, Infinity and -Infinity
    xs = [_array(*a) for a in drawn]
    arrays = {f"x{i}": x for i, x in enumerate(xs)}
    if xs:
        arrays["nested"] = {"y": xs[-1]}
    payload = {**plain, **arrays}
    fh = io.StringIO()
    write_json(payload, fh)
    text = fh.getvalue()
    loaded, kept = json.loads(text), plain.keys() - arrays.keys()
    assert {k: loaded[k] for k in kept} == json.loads(json.dumps({k: plain[k] for k in kept}))
    for read in (loaded, _load_json(io.StringIO(text))):
        assert read.keys() == payload.keys()
        for i, x in enumerate(xs):
            assert _same_floats(read[f"x{i}"], x)
        if xs:
            assert _same_floats(read["nested"]["y"], xs[-1])
    if xs:
        fh = io.StringIO()
        write_json({"x": xs[0]}, fh)
        tokens = re.split(r"[][, ]+", fh.getvalue()[len('{\n "x": '):-len("\n}\n")])
        assert all(t in ("-0.0", "NaN", "Infinity", "-Infinity") or t == format(float(t), ".17g")
                   for t in tokens if t)


def test_json_writer_converts_a_payload_in_one_pass(monkeypatch):
    # every array of a payload goes through the converter together: at most
    # ceil(numbers / _BLOCK) calls, none of more than _BLOCK numbers
    calls, convert = [], decimals._number_words
    monkeypatch.setattr(decimals, "_number_words",
                        lambda block, *a: calls.append(block.size) or convert(block, *a))
    for sizes in ((283,), (1000, 1000, 2000, 2002, 1001), (_BLOCK,), (1, _BLOCK, 1), (7, 9)):
        calls.clear()
        payload = {f"x{i}": np.linspace(0.0, 1.0, n) for i, n in enumerate(sizes)}
        write_json({**payload, "tail": "finite", "nested": {"z": np.zeros((2, 2, 2, 2))}},
                   io.StringIO())
        total = sum(sizes) + 16
        assert len(calls) == -(-total // _BLOCK) and max(calls) <= _BLOCK
        assert sum(calls) == total

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["disk", "general", "full line"]),
       st.lists(st.tuples(st.floats(0.0, 1e6, allow_subnormal=True),
                          st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)), min_size=1, max_size=5))
def test_saved_parameters_load_bit_identical(tmp_path_factory, seed, kind, rows):
    # every number survives save_parameters and load_parameters bit for bit,
    # signed zeros and subnormals included
    rng = np.random.default_rng(seed)
    n = len(rows)
    m, re, im = (np.array(col) for col in zip(*rows))
    grid = np.cumsum(rng.uniform(0.05, 0.3, n))
    if kind == "general":
        systems = (GeneralCoefficients(grid, m, _random_general(rng, n, TAIL_FINITE).P,
                                       _random_general(rng, n, TAIL_FINITE).Q, TAIL_FINITE),)
    else:
        systems = (ArovParameters(grid, m, re + 1j * im, TAIL_PERIODIC),
                   random_parameters(rng, tail=TAIL_FINITE))[:1 + (kind == "full line")]
    path = tmp_path_factory.mktemp("saved") / "p.json"
    save_parameters(systems if kind == "full line" else systems[0], path)
    loaded = load_parameters(path)
    for got, want in zip(loaded if kind == "full line" else (loaded,), systems):
        assert type(got) is type(want) and got.tail == want.tail
        for name in ("grid", "m", "a", "n", "P", "Q"):
            if hasattr(want, name):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]),
       st.sampled_from(["disk", "general", "full line"]))
def test_property_json_round_trip_bit_for_bit(tmp_path_factory, seed, n, tail, kind):
    rng = np.random.default_rng(seed)
    if kind == "general":
        systems = (_random_general(rng, n, tail),)
    else:
        systems = tuple(random_parameters(rng, n_max=n, tail=tail)
                        for _ in range(2 if kind == "full line" else 1))
    path = tmp_path_factory.mktemp("json") / "p.json"
    save_parameters(systems if kind == "full line" else systems[0], path)
    loaded = load_parameters(path)
    for p, q in zip(systems, loaded if kind == "full line" else (loaded,)):
        assert type(q) is type(p) and q.tail == p.tail
        for key in ("grid", "m", "a") if kind != "general" else ("grid", "n", "P", "Q"):
            mine, theirs = getattr(p, key), getattr(q, key)
            assert theirs.dtype == mine.dtype and theirs.tobytes() == mine.tobytes()


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": [1.0],\n "m": [1.0,}\n')
    with pytest.raises(ParseError, match="line"):
        load_parameters(path)


def test_invalid_coefficients_named_in_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": [1.0, 2.0], "m": [1.0, -2.0],
                                "a": [[0.0, 0.0], [0.0, 0.0]], "tail": "constant"}))
    with pytest.raises(CoefficientError, match=r"m\[1\]"):
        load_parameters(path)


def test_missing_key_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": [1.0], "m": [1.0]}))
    with pytest.raises(ParseError, match="'a'"):
        load_parameters(path)


_IDENTITY = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_ZERO = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("payload, key", [
    ({"grid": ["abc"], "m": [1], "a": [0.5]}, "grid"),
    ({"grid": [1], "m": [1, "abc"], "a": [0.5]}, "m"),
    ({"grid": [1], "n": [{"x": 1}], "P": [_IDENTITY], "Q": [_ZERO]}, "n"),
])
def test_non_numeric_real_field_is_parse_error(tmp_path, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=key):
        load_parameters(path)


@pytest.mark.parametrize("tail", ["[1, 2]", "3", '{"x": "constant"}'])
def test_non_string_tail_is_coefficient_error(tmp_path, tail):
    # a numeric list read as an array made the tail check raise ValueError
    path = tmp_path / "bad.json"
    path.write_text('{"grid": [1, 2], "m": [1, 1], "a": [0.1, 0.2], "tail": %s}' % tail)
    with pytest.raises(CoefficientError, match="tail"):
        load_parameters(path)


def test_pieces_periodic_fold_ends_for_non_binary_periods():
    # folding by floor(l / L) * L rounded back a period when L is not exact
    # in binary, so the span never advanced (or raised on a negative span)
    for L in np.linspace(0.7, 1.3, 61):
        p = ArovParameters([0.4 * L, L], [1.0, 0.6], [0.3, -0.2j],
                           tail=TAIL_PERIODIC)
        assert abs(stream_mass(p, 7.3) - p.mu(7.3)) <= 1e-12
        assert abs(stream_mass(p, 7.3, 1.9) - (p.mu(7.3) - p.mu(1.9))) <= 1e-12


@pytest.mark.parametrize("text", [
    '{"grid": [0.5, 1, 2.25], "m": [1, 0.5, 2], "a": [[0.1, 0.2], 0.3, [0, -0.4]],'
    ' "tail": "periodic"}',
    '{"grid": [1.5], "m": [2], "a": [0.25]}',
    '{"grid": [1, 2], "m": [1, 1], "a": [[0.1, 0], [0.2, 0]], "grid": [0.5, 3]}',
    '{"left": {"grid": [1], "m": [1], "a": [[0.5, 0.1]]}, "right": {"grid": [1, 2],'
    ' "m": [1, 3], "a": [[0.5, 0], [0, 0.5]], "tail": "finite"}}',
    '{"grid": [0.4, 1], "n": [1, 2], "tail": "constant",'
    ' "P": [[[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]], [[1, 0.5], [0.5, 1]]],'
    ' "Q": [[[[0, 1], 0], [0, [0, 1]]], [[0, 0], [0, 0]]]}',
])
def test_load_parameters_matches_plain_json(tmp_path, text):
    # numbers parsed into one buffer must rebuild exactly what json gives,
    # mixed number / pair forms and a duplicate key included
    path = tmp_path / "p.json"
    path.write_text(text)
    plain = json.loads(text)
    want = ((parameters_from_dict(plain["left"]), parameters_from_dict(plain["right"]))
            if "left" in plain else (parameters_from_dict(plain),))
    got = load_parameters(str(path))
    got = got if isinstance(got, tuple) else (got,)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g.tail == w.tail
        for name in ("grid", "m", "a", "n", "P", "Q"):
            if hasattr(w, name):
                assert np.array_equal(getattr(g, name), getattr(w, name)), name


_P = [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]
_Q = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("d", [
    {"grid": ["1.5"], "m": [True], "a": [[False, "0.25"]]},
    {"grid": ["1.5"], "m": [1], "a": [0.25]},
    {"grid": [1.5], "m": [True], "a": [0.25]},
    {"grid": [1.5], "m": [1], "a": ["0.25"]},
    {"grid": [1.5], "m": [1], "a": [True]},
    {"grid": [1.5], "m": [1], "a": [[0.25, False]]},
    {"grid": [1.5, 2], "m": [1, None], "a": [0.25, 0.5]},
    {"grid": [1], "n": ["1"], "P": [_P], "Q": [_Q]},
    {"grid": [1], "n": [1], "P": [[[[1, 0], [0.5, 0]], [[0.5, 0], [True, 0]]]], "Q": [_Q]},
    {"grid": [1], "n": [1], "P": [_P], "Q": [[[[0, 0], ["0", 0]], [[0, 0], [0, 0]]]]},
])
def test_strings_booleans_and_null_are_not_numbers(tmp_path, d):
    # they were read as numbers: "1.5" as 1.5, true as 1, null as nan
    with pytest.raises(ParseError, match="number"):
        parameters_from_dict(d)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParseError, match="number"):
        load_parameters(path)


_BIG = 10 ** 400


@pytest.mark.parametrize("d, key", [
    ({"grid": [1], "m": [_BIG], "a": [0.5]}, "m"),
    ({"grid": [_BIG], "m": [1], "a": [0.5]}, "grid"),
    ({"grid": [1], "m": [1], "a": [_BIG]}, "a"),
    ({"grid": [1], "m": [1], "a": [[0.5, -_BIG]]}, "a"),
    ({"grid": [1, 2], "m": [1, 1], "a": [0.5, [_BIG, 0]]}, "a"),
    ({"grid": [1], "n": [_BIG], "P": [_P], "Q": [_Q]}, "n"),
    ({"grid": [1], "n": [1], "P": [[_P[0], [[0.5, 0], [_BIG, 0]]]], "Q": [_Q]}, "P"),
], ids=["m", "grid", "a number", "a pair", "a pair beside a number", "n", "P"])
def test_integers_past_the_float_range_are_coefficient_errors(d, key):
    # json.load reads a 400-digit integer as a Python int, which no float
    # holds: the same refusal as the infinity load_parameters reads it as
    with pytest.raises(CoefficientError, match=f"^{key} has non-finite entries"):
        parameters_from_dict(d)


def test_kappa_integral_folds_periodic_tails():
    # the closed-form disk-center integral sums q periods as a geometric sum:
    # the unrolled sum to 1e-13, in memory that does not grow with q
    import tracemalloc

    rng = np.random.default_rng(63)
    n = 20
    p = ArovParameters(np.cumsum(rng.uniform(0.13, 0.37, n)), rng.uniform(0.0, 0.05, n),
                       rng.uniform(0.0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n)),
                       TAIL_PERIODIC)
    L = p.length

    def unrolled(l):
        k, d = unrolled_pieces(p, l)
        decay = np.exp(-2.0 * np.concatenate(([0.0], np.cumsum(d))))
        return complex(np.sum(p.a[k] * -np.diff(decay)))

    for l in (0.0, 0.4 * L, L, 2.0 * L, 3.3 * L, 71.6 * L, 2000.25 * L):
        assert abs(p.kappa_integral(l) - unrolled(l)) <= 1e-13, l

    def peak(l):
        tracemalloc.start()
        p.kappa_integral(l)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    assert peak(1e5 * L) < peak(10.5 * L) + 4096


# --- coefficient files: valid and mutated texts ----------------------------------

def _plain_load(text):
    """load_parameters written with json.loads: the behaviour to match."""
    data = json.loads(text)
    if isinstance(data, dict) and ("left" in data or "right" in data):
        if not {"left", "right"} <= data.keys():
            raise ParseError("full-line file needs both halves")
        return parameters_from_dict(data["left"]), parameters_from_dict(data["right"])
    return parameters_from_dict(data)


@settings(max_examples=400, deadline=None)
@given(coefficient_texts())
def test_fuzzed_files_parse_as_plain_json_does(tmp_path_factory, text):
    # bit-identical arrays, or the same error class (a JSON syntax error is a
    # ParseError naming line and column)
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_text(text)
    try:
        want = _plain_load(text)
    except json.JSONDecodeError as exc:
        where = f"at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        with pytest.raises(ParseError, match=re.escape(where)):
            load_parameters(path)
        return
    except Exception as exc:
        with pytest.raises(type(exc)):
            load_parameters(path)
        return
    got = load_parameters(path)
    want, got = (want, got) if isinstance(want, tuple) else ((want,), (got,))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g.tail == w.tail
        for name in ("grid", "m", "a", "n", "P", "Q"):
            if hasattr(w, name):
                mine, theirs = getattr(g, name), getattr(w, name)
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
                assert mine.tobytes() == theirs.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(coefficient_texts(), st.integers(1, 80))
@example('{"grid": [1, , 2], "m": [1, 1], "a": [0.5, 0.5]}', 1)  # a chunk of no element
def test_numbers_read_in_chunks_of_any_size(text, chunk):
    # the numbers, the lists read as arrays and a malformed text's error
    # come out the same however the lists are cut into chunks for orjson
    from arvcanon import coefficients

    def read():
        try:
            return _load_json(io.StringIO(text))
        except ValueError as exc:
            return exc

    whole = read()
    saved, coefficients._CHUNK = coefficients._CHUNK, chunk
    try:
        cut = read()
    finally:
        coefficients._CHUNK = saved
    if isinstance(whole, ValueError):
        assert type(cut) is type(whole) and str(cut) == str(whole)
        return
    assert _document_numbers(cut).tobytes() == _document_numbers(whole).tobytes()
    assert _array_shapes(cut) == _array_shapes(whole)


def _float_tokens(rng, n):
    """n JSON number tokens that float() reads as finite: repr and .17g text
    of random doubles of every exponent, subnormals among them; exact
    halfway points between adjacent doubles written with 17, 20, 25 and 45
    digits, each also nudged one unit in the 40th digit; 1 to 40-digit
    mantissas with exponents -360 to 330; the largest double."""
    from decimal import Context, Decimal

    exact = Context(prec=1200)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    bits[: n // 8] &= np.uint64(2**63 + 2**52 - 1)  # exponent field 0: zero and subnormals
    doubles = bits.view(float)
    doubles = doubles[np.isfinite(doubles)].tolist()
    tokens = [repr(x) for x in doubles] + [format(x, ".17g") for x in doubles]
    for x in doubles[: n // 4]:
        x = abs(x)
        if x == np.finfo(float).max:
            continue
        half = exact.divide(exact.add(Decimal(x), Decimal(np.nextafter(x, np.inf))), 2)
        for digits in (17, 20, 25, 45):
            text = format(half, f".{digits - 1}e")
            tokens.append(text)
            unit = Decimal(f"1e{int(text.split('e')[1]) - 39}")
            for nudge in (unit, -unit):
                tokens.append(format(exact.add(Decimal(text), nudge), f".{max(digits, 40) - 1}e"))
    for _ in range(n):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 41)))))
        digits = digits.lstrip("0") or "0"
        point = int(rng.integers(1, len(digits) + 1))
        mantissa = digits[:point] + (f".{digits[point:]}" if digits[point:] else "")
        exponent = int(rng.integers(-360, 331))
        sign = rng.choice(["", "-"])
        mark = rng.choice(["e", "E", "e+", "E+"]) if exponent >= 0 else rng.choice(["e", "E"])
        tokens.append(f"{sign}{mantissa}{mark}{exponent}" if exponent else f"{sign}{mantissa}")
    tokens.append("1.7976931348623157e308")
    return [t for t in tokens if math.isfinite(float(t))]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1]))
@example(10932, None)  # each draws the integer token -0
@example(46660, None)
@example(919052, None)
@example(934, None)
def test_numbers_read_bit_for_bit_as_float_does(seed, indent):
    # the oracle is Python's float(), independent of the reader: every
    # finite token, in the nested lists of a coefficient-like file, reads
    # as float(token) does, an integer token as JSON reads it, through int
    # (so -0 is +0.0), and orjson reads them all (a list it refuses comes
    # back as a plain list, not an array)
    rng = np.random.default_rng(seed)
    tokens = _float_tokens(rng, 400)
    rng.shuffle(tokens)
    pairs = ", ".join(f"[{a}, {b}]" for a, b in zip(tokens[0::2], tokens[1::2]))
    sep = "\n " if indent else " "
    text = f'{{"grid": [{sep}{pairs}{sep}], "tail": "constant"}}'
    want = np.array([float(int(t)) if t.lstrip("-").isdigit() else float(t)
                     for t in tokens[: len(tokens) // 2 * 2]])
    grid = _load_json(io.StringIO(text))["grid"]
    assert isinstance(grid, np.ndarray) and grid.shape == (want.size // 2, 2)
    assert grid.tobytes() == want.tobytes()


def _document_numbers(node):
    """The numbers of a parsed JSON document in document order, as floats,
    the entries of its arrays included (literals dropped)."""
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from walk(v)
        elif isinstance(node, (list, np.ndarray)):
            for v in node:
                yield from walk(v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield float(node)

    return np.array(list(walk(node)), dtype=float)


def _plain_numbers(node):
    """The numbers of a loaded document outside its arrays: those json.loads
    read."""
    if isinstance(node, dict):
        return [x for v in node.values() for x in _plain_numbers(v)]
    if isinstance(node, list):
        return [x for v in node for x in _plain_numbers(v)]
    return [node] if isinstance(node, float) else []


def _array_shapes(node):
    """The shapes of a loaded document's arrays, in document order."""
    if isinstance(node, np.ndarray):
        return [node.shape]
    if isinstance(node, (dict, list)):
        return [s for v in (node.values() if isinstance(node, dict) else node)
                for s in _array_shapes(v)]
    return []


@pytest.mark.parametrize("text, fallback", [
    ('[NaN, 0.5, -Infinity, Infinity]', True),
    ('{"m": [1e999, -1e999, 2.5e-3], "a": [0.25]}', True),
    ('[1.7976931348623159e308, 1.7976931348623157e308, -0]', True),
    ('[-0, [-0, -0.0], -0e0, 0]', True),
    ('[-0, [-0, -0.0], -0e0, 0, null]', True),
    (f'[{2**64}, {2**64 - 1}, {2**63}, -{2**63 + 1}, {2**70 + 12345}, {10**30 + 1}]', False),
    (f'[{2**64}, {2**64 - 1}, {2**63}, -{2**63 + 1}, {2**70 + 12345}, NaN]', True),
    ('[true, 1.5, [false, 2], null, 3e-5]', True),
    ('{"grid": [1, [], 2], "m": [[[]], 0.75]}', True),
    ('[]', False),
    ('{"grid": [], "x": "1, 2, NaN", "m": [0.5]}', False),
])
def test_numbers_equal_json_on_both_paths(text, fallback):
    # literals, lists orjson refuses (a number beyond the float range),
    # lists that are not rectangular (an empty list between numbers,
    # numbers mixed with pairs) and the tokens json spells differently from
    # a float (integer -0, integers past 2^64) load as json.loads reads
    # them; the texts with a literal, a refused or a ragged list are those
    # of which json.loads reads some numbers (a literal: the whole text),
    # the others are read into arrays by orjson
    loaded = _load_json(io.StringIO(text))
    refused = bool(_plain_numbers(loaded))
    assert refused == fallback
    got = _document_numbers(loaded)
    assert got.tobytes() == _document_numbers(json.loads(text)).tobytes()


@pytest.mark.parametrize("text", [
    '{"grid": [1], "m": [-0], "a": [[-0.0, 0.5]]}',
    '{"grid": [1, 2], "m": [0, -0.0], "a": [-0, [0.5, -0.0]], "tail": "finite"}',
    '{"grid": [1], "m": [1], "a": [[-0.0, 0.25]], "grid": [2], "x": "-0, 3"}',
])
def test_signed_zeros_parse_as_plain_json(tmp_path, text):
    # JSON's integer -0 is +0.0, the float -0.0 keeps its sign, and a pair
    # [-0.0, y] is complex(-0.0, y)
    path = tmp_path / "p.json"
    path.write_text(text)
    got, want = load_parameters(path), _plain_load(text)
    for name in ("grid", "m", "a"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _long_disk_text(m0, extra=""):
    """A disk-gauge file of several _CHUNK stretches of repr-written
    numbers, m0 the token of its first density and extra text put before
    its closing brace."""
    rng = np.random.default_rng(29)
    n = 2000
    text = json.dumps({"grid": np.cumsum(rng.uniform(0.05, 0.3, n)).tolist(),
                       "m": rng.uniform(0.2, 1.2, n - 1).tolist(),
                       "a": rng.uniform(-0.5, 0.5, (n, 2)).tolist()})
    return text.replace('"m": [', f'"m": [{m0}, ', 1)[:-1] + extra + "}"


@pytest.mark.parametrize("m0, extra, want", [
    ("1" * 400, "", (CoefficientError, "non-finite")),
    ("0.5", ', "note": null', None),
    ("true", "", (ParseError, "m: expected a real number")),
], ids=["400-digit integer", "null beside the arrays", "true in m"])
def test_texts_the_numbers_refuse_load_through_json(tmp_path, m0, extra, want):
    # json.loads reads m of each text, not orjson (the whole text where it
    # holds a literal): an integer past the float range reads as infinity,
    # a null beside the arrays leaves them bit for bit as the orjson path
    # reads them, and a boolean is not a number
    from arvcanon import coefficients

    text = _long_disk_text(m0, extra)
    assert len(text) > 4 * coefficients._CHUNK
    assert isinstance(_load_json(io.StringIO(text))["m"], list)
    path = tmp_path / "p.json"
    path.write_text(text)
    if want is not None:
        with pytest.raises(want[0], match=want[1]):
            load_parameters(path)
        return
    got = load_parameters(path)
    path.write_text(_long_disk_text(m0))
    plain = load_parameters(path)
    for name in ("grid", "m", "a"):
        assert getattr(got, name).tobytes() == getattr(plain, name).tobytes(), name


def _as_lists(node):
    """A loaded document with its arrays as lists, to compare with json.loads."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: _as_lists(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_lists(v) for v in node]
    return node


@pytest.mark.parametrize("text, shapes", [
    ('{"m": 5, "x": [1], "m": [2]}', [(1,), (1,)]),
    ('["x", [1, 2], [3, 4]]', []),
    ('{"grid": [1, 2], "m": [1, 1], "a": [0.5, [0, 0.3]]}', [(2,), (2,)]),
    ('[{}]', []),
    ('{"x": [[]], "y": [ ], "z": [[1, 2], [3]], "w": [[1], [2]] }', [(2, 1)]),
], ids=["duplicate keys around a list", "two lists in one stretch", "numbers mixed with pairs",
        "an object in a list", "empty and ragged lists"])
def test_lists_that_are_not_arrays_load_as_json_does(text, shapes):
    # what is not a full, rectangular list of numbers comes back as the
    # plain lists json.loads gives, the arrays in their places, the last of
    # duplicate keys winning
    got, want = _load_json(io.StringIO(text)), json.loads(text)
    assert _as_lists(got) == want
    assert _document_numbers(got).tobytes() == _document_numbers(want).tobytes()
    assert _array_shapes(got) == shapes


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 14])
def test_deep_lists_read_in_chunks_with_spaces_before_commas(monkeypatch, chunk):
    # a general-gauge file's P and Q (depth 4), written with whitespace
    # between a closing bracket and its comma, are cut only between
    # matrices and read as arrays bit for bit
    from arvcanon import coefficients

    text = json.dumps(_random_general(np.random.default_rng(4), 9, TAIL_FINITE).to_dict())
    spaced = text.replace("],", "] \n ,")
    monkeypatch.setattr(coefficients, "_CHUNK", chunk)
    got, want = _load_json(io.StringIO(spaced)), json.loads(text)
    assert got["P"].shape == got["Q"].shape == (9, 2, 2, 2)
    for key in ("grid", "n", "P", "Q"):
        assert got[key].tobytes() == np.array(want[key], dtype=float).tobytes(), key


@pytest.mark.parametrize("bad", [True, None, "1.5", 1 + 2j], ids=["True", "None", "string", "complex"])
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_number_check_rejects_non_numbers_at_any_depth(bad, depth):
    # the one-pass type check passes only plain floats and ints; the walk
    # it falls back to still finds a non-number at any depth
    from arvcanon.coefficients import _require_numbers

    def nest(x):
        values = [0.5, x, 2]
        for _ in range(depth - 1):
            values = [[1.0, 2.0, 3.0], values]
        return values

    _require_numbers(nest(1.5), "x")
    with pytest.raises(ParseError, match=f"^x: expected a real number, got {re.escape(repr(bad))}$"):
        _require_numbers(nest(bad), "x")

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arvcanon import (ArovParameters, CoefficientError, DomainError, ParseError,
                      PreconditionError, TAIL_CONSTANT, TAIL_FINITE,
                      TAIL_PERIODIC, ab_from_a, constant_parameters,
                      dirac_coefficients, load_parameters, reflect,
                      reparametrize, save_parameters, schroedinger_coefficients,
                      strip_head, validate_general)
from arvcanon.coefficients import GeneralCoefficients, parameters_from_dict
from arvcanon.mat2 import J, herm_eigs, mat2
from arvcanon.propagate import transfer

from helpers import random_parameters


# --- ArovParameters invariants ------------------------------------------------

def test_rejects_negative_density():
    with pytest.raises(CoefficientError, match="negative"):
        ArovParameters([1.0], [-0.5], [0.0])


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


def test_pieces_cover_partial_intervals():
    p = ArovParameters([1.0, 2.0], [1.0, 2.0], [0.1, 0.2j])
    pieces = p.pieces(1.5)
    assert pieces == [(0.1 + 0j, 1.0), (0.2j, 1.0)]
    pieces = p.pieces(1.5, 0.5)
    assert pieces == [(0.1 + 0j, 0.5), (0.2j, 1.0)]


def test_pieces_skip_zero_mass():
    p = ArovParameters([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [0.1, 0.5, 0.9])
    assert [a for a, _ in p.pieces(3.0)] == [0.1 + 0j, 0.9 + 0j]


def test_pieces_fold_periodic_tail():
    p = ArovParameters([1.0], [1.0], [0.3], tail=TAIL_PERIODIC)
    pieces = p.pieces(2.5)
    assert len(pieces) == 3
    assert sum(d for _, d in pieces) == 2.5


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
    validate_general(dirac_coefficients(length=2.0, n_intervals=3))


def test_schroedinger_is_valid_for_any_real_potential():
    rng = np.random.default_rng(12)
    q = rng.normal(size=5) * 3.0
    validate_general(schroedinger_coefficients(q, np.linspace(0.4, 2.0, 5)))


def test_general_rejects_indefinite_p():
    c = dirac_coefficients(length=1.0)
    bad_p = c.P.copy()
    bad_p[0] = np.diag([1.0, -1.0])
    bad = GeneralCoefficients(c.grid, c.n, bad_p, c.Q, c.tail)
    with pytest.raises(CoefficientError, match="positive semidefinite"):
        validate_general(bad)


def test_general_rejects_traceful_q():
    c = dirac_coefficients(length=1.0)
    bad_q = c.Q.copy()
    bad_q[0] = 1j * np.diag([1.0, -1.0])  # anti-Hermitian but trace(jQ) != 0
    bad = GeneralCoefficients(c.grid, c.n, c.P, bad_q, c.tail)
    with pytest.raises(CoefficientError, match="trace"):
        validate_general(bad)


def test_general_rejects_non_antihermitian_q():
    c = dirac_coefficients(length=1.0)
    bad_q = c.Q.copy()
    bad_q[0] = np.eye(2)
    bad = GeneralCoefficients(c.grid, c.n, c.P, bad_q, c.tail)
    with pytest.raises(CoefficientError, match="anti-Hermitian"):
        validate_general(bad)


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


def _random_general(rng, n, tail):
    # P = [[p, b], [conj b, p]] >= 0 and Q = [[i r, c], [-conj c, i r]]
    p = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(0.0, 0.9, n) * p * np.exp(2j * np.pi * rng.uniform(size=n))
    r, c = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
    P = np.stack([np.stack([p, b], -1), np.stack([np.conj(b), p], -1)], -2)
    Q = np.stack([np.stack([1j * r, c], -1), np.stack([-np.conj(c), 1j * r], -1)], -2)
    return GeneralCoefficients(np.cumsum(rng.uniform(0.05, 0.3, n)),
                               rng.uniform(0.0, 1.5, n), P, Q, tail)


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


def test_pieces_periodic_fold_ends_for_non_binary_periods():
    # folding by floor(l / L) * L rounded back a period when L is not exact
    # in binary, so the span never advanced (or raised on a negative span)
    for L in np.linspace(0.7, 1.3, 61):
        p = ArovParameters([0.4 * L, L], [1.0, 0.6], [0.3, -0.2j],
                           tail=TAIL_PERIODIC)
        pieces = p.pieces(7.3)
        assert abs(sum(d for _, d in pieces) - p.mu(7.3)) <= 1e-12


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

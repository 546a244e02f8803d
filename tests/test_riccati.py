import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arvcanon import (ArovParameters, DegenerateActionError, DomainError, InputError,
                      PreconditionError, TAIL_CONSTANT, TAIL_PERIODIC, constant_parameters,
                      integrate_riccati, riccati_fixed_point, riccati_trajectory, schur_plus,
                      strip_head)
from arvcanon.riccati import (DEFAULT_RAY_RADII, ESCAPE_SLACK, STATUS_ESCAPED, STATUS_OK,
                              a_to_c, boundary_limit, c_to_a, richardson_extrapolate)
from arvcanon.weyl import schur_grid
from arvcanon import propagate as prop
from arvcanon.propagate import transfer

from helpers import (blaschke_matrix, escape_oracle, random_parameters, riccati_rhs,
                     rk4_riccati, schur_stripped)


# --- right-hand side ---------------------------------------------------------------

def test_rhs_free_coefficient_is_linear():
    for s in (0.1, -0.3 + 0.2j, 0.9j):
        assert abs(riccati_rhs(s, 1j, 0.0) - 2.0 * s) < 1e-15


def test_rhs_vanishes_at_fixed_point_zi():
    assert abs(riccati_rhs(0.6, 1j, 0.6)) < 1e-15


def test_rhs_matches_finite_difference_of_stripping():
    rng = np.random.default_rng(50)
    for _ in range(8):
        p = random_parameters(rng, n_max=1, a_cap=0.8)  # single interval
        a = complex(p.a[0])
        z = complex(rng.uniform(-1, 1), rng.uniform(0.4, 1.2))
        s0 = schur_plus(z, p).value
        m = float(p.m[0])
        h = 1e-5

        def stripped_at(l):
            return schur_stripped(s0, transfer(z, p, l))

        l0 = 0.3 * p.length
        deriv_l = (stripped_at(l0 + h) - stripped_at(l0 - h)) / (2.0 * h)
        deriv_mu = deriv_l / m
        s_here = stripped_at(l0)
        assert abs(deriv_mu - riccati_rhs(s_here, z, a)) < 1e-6


# --- fixed points ------------------------------------------------------------------

def test_fixed_point_free():
    assert riccati_fixed_point(1j, 0.0) == 0.0
    assert riccati_fixed_point(0.5 + 2j, 0.0) == 0.0


def test_fixed_point_at_i_is_coefficient():
    for a in (0.3, -0.2 + 0.7j, 0.95j):
        assert abs(riccati_fixed_point(1j, a) - a) < 1e-14


def test_fixed_point_quadratic_example():
    assert abs(riccati_fixed_point(2j, 0.6) - (4.0 - np.sqrt(11.68)) / 1.2) < 1e-14


def test_fixed_point_residual_small():
    rng = np.random.default_rng(51)
    for _ in range(40):
        a = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        s = riccati_fixed_point(z, a)
        assert abs(s) <= 1.0 + 1e-9
        assert abs(riccati_rhs(s, z, a)) < 1e-10


def test_fixed_point_needs_upper_half_plane():
    with pytest.raises(PreconditionError):
        riccati_fixed_point(1.0 + 0j, 0.3)


# --- trajectories ------------------------------------------------------------------

def test_zero_initial_value_stays_zero():
    state = integrate_riccati(1j, 0.0, constant_parameters(0.0), 3.0)
    assert state.status == STATUS_OK
    assert abs(state.s) < 1e-14


def test_escape_time_for_free_coefficient():
    # any nonzero start escapes at mu = -log|s0| / 2
    for s0 in (0.5, 0.3, 0.9, 0.2j):
        state = integrate_riccati(1j, s0, constant_parameters(0.0), 8.0)
        assert state.status == STATUS_ESCAPED
        assert not state.valid
        target = -np.log(abs(s0)) / 2.0
        assert abs(state.mu - target) / target < 0.01
        assert abs(state.l - state.mu) < 1e-12  # unit density: l and mu agree


def test_escape_point_is_exact_for_free_coefficient():
    # s(mu) = s0 exp(2 mu) at z = i, a = 0: |s| reaches 1 + ESCAPE_SLACK at
    # mu = (log(1 + ESCAPE_SLACK) - log|s0|) / 2
    for s0 in (0.5, 0.3, 0.9, 0.2j):
        state = integrate_riccati(1j, s0, constant_parameters(0.0), 8.0)
        target = (np.log1p(ESCAPE_SLACK) - np.log(abs(s0))) / 2.0
        assert state.status == STATUS_ESCAPED
        assert abs(state.mu - target) <= 1e-9 * target
        assert abs(abs(state.s) - (1.0 + ESCAPE_SLACK)) <= 1e-12


def test_true_schur_value_is_stationary():
    p = constant_parameters(0.35 - 0.25j)
    z = 0.8 + 1.1j
    s0 = schur_plus(z, p).value
    state = integrate_riccati(z, s0, p, 4.0)
    assert state.status == STATUS_OK
    assert abs(state.s - s0) < 1e-8


def test_trajectory_matches_rk4_on_random_systems():
    rng = np.random.default_rng(52)
    for _ in range(8):
        p = random_parameters(rng, total_mu=float(rng.uniform(2.0, 5.0)))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.5))
        s0 = schur_plus(z, p).value
        state = integrate_riccati(z, s0, p, p.length)
        ref = rk4_riccati(z, s0, p, p.length)
        assert state.status == ref.status == STATUS_OK
        assert abs(state.s - ref.s) < 1e-7


def test_trajectory_rows_agree_with_single_lengths():
    p = constant_parameters(0.5)
    z, s0, ls = 0.3 + 0.5j, 0.5 + 0.2j, np.arange(0.0, 10.0, 0.25)
    states = riccati_trajectory(z, s0, p, ls)
    assert [state.status for state in states[:-1]] == [STATUS_OK] * (len(states) - 1)
    assert states[-1].status == STATUS_ESCAPED
    assert ls[len(states) - 2] < states[-1].l <= ls[len(states) - 1]
    for l, state in zip(ls, states):
        single = integrate_riccati(z, s0, p, l)
        assert single.status == state.status
        assert abs(single.s - state.s) <= 1e-12
        assert abs(single.mu - state.mu) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC]),
       st.floats(0.2, 1.5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_escape_point_matches_expm_oracle(seed, tail, im_z, radius, turn):
    # s0 anywhere in the disk at least 0.1 from the Schur value escapes within
    # measure 8; the oracle finds the point by brentq on scipy expm
    # propagators, apart from the kernel and its bisection
    rng = np.random.default_rng(seed)
    p = random_parameters(rng, n_max=6, tail=tail)
    z = complex(rng.uniform(-1.0, 1.0), im_z)
    s0 = np.sqrt(radius) * np.exp(2j * np.pi * turn)
    assume(abs(s0 - schur_plus(z, p).value) >= 0.1)
    l = p.l_of_mu(8.0)
    state = integrate_riccati(z, s0, p, l)
    assert state.status == STATUS_ESCAPED
    mu, s = escape_oracle(z, s0, p, l)
    assert abs(state.mu - mu) <= 1e-9
    assert abs(state.s - s) <= 1e-9
    assert abs(state.l - p.l_of_mu(mu)) <= 1e-9


def test_escaped_trajectory_takes_four_propagator_calls(monkeypatch):
    # the trajectory's kernel call and its constant tail, the bracket's
    # products, and one table for every round of the escape bisection
    calls, propagators = [], prop._propagators

    def counted(*args):
        calls.append(args)
        return propagators(*args)

    monkeypatch.setattr(prop, "_propagators", counted)
    states = riccati_trajectory(0.3 + 0.5j, 0.5 + 0.2j, constant_parameters(0.5),
                                np.arange(0.0, 10.0, 0.25))
    assert states[-1].status == STATUS_ESCAPED
    assert len(calls) <= 4


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_escape_after_hundreds_of_periods_matches_expm_oracle(seed):
    # a periodic system of mass 0.01 a period from s0 0.01 off the Schur
    # value: the escape comes after a few hundred periods, which the search
    # skips on the period's binary powers
    rng = np.random.default_rng(seed)
    p = random_parameters(rng, n_max=5, total_mu=0.01, tail=TAIL_PERIODIC)
    z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.0))
    s0 = schur_plus(z, p).value + 0.01 * np.exp(2j * np.pi * rng.uniform())
    l = p.l_of_mu(8.0)
    state = integrate_riccati(z, s0, p, l)
    assert state.status == STATUS_ESCAPED
    assert state.l > 100 * p.length
    mu, s = escape_oracle(z, s0, p, l)
    assert abs(state.mu - mu) <= 1e-9
    assert abs(state.s - s) <= 1e-9
    assert abs(state.l - p.l_of_mu(mu)) <= 1e-9
    # a bracket that ends just past the escape, in the same period: the
    # escape lies in the head after the bracket's whole periods
    turn = (np.floor(state.l / p.length) + 1.0) * p.length
    near = integrate_riccati(z, s0, p, state.l + 0.5 * min(0.01 * p.length, turn - state.l))
    assert abs(near.mu - mu) <= 1e-9
    assert abs(near.s - s) <= 1e-9


def test_escape_over_a_periodic_tail_unrolls_one_period(monkeypatch):
    # from s0 = 0.9 the flow escapes in the first period; a bracket of 10^4
    # periods hands the kernel no more pieces than one rotated period
    rng = np.random.default_rng(74)
    grid = np.cumsum(rng.uniform(0.1, 0.3, 5))
    p = ArovParameters(grid / grid[-1], rng.uniform(0.2, 1.2, 5),
                       0.6 * np.exp(2j * np.pi * rng.uniform(size=5)), TAIL_PERIODIC)
    pieces, products = [], prop.scaled_products

    def counted(zs, gen, k, d, ends):
        pieces.append(len(k))
        return products(zs, gen, k, d, ends)

    monkeypatch.setattr(prop, "scaled_products", counted)
    first = riccati_trajectory(0.3 + 0.5j, 0.9, p, [0.0, 1.0])[-1]
    for l in (100.0, 1e4):
        pieces.clear()
        state = riccati_trajectory(0.3 + 0.5j, 0.9, p, [0.0, l])[-1]
        assert state.status == STATUS_ESCAPED
        assert max(pieces) <= p.n_intervals + 1
        assert abs(state.mu - first.mu) <= 1e-12
        assert abs(state.s - first.s) <= 1e-12
    # from l = 0.3, inside the period, 0.01 off the Schur value: the flow
    # stays in the disk for whole periods, which are skipped on the powers of
    # the period rotated to start at 0.3, its 3 pieces
    p = ArovParameters([0.4, 1.0], [1.0, 0.6], [0.3, -0.2j], TAIL_PERIODIC)
    z = 0.3 + 0.5j
    s0 = schur_plus(z, p).value + 0.01
    for l in (100.0, 1e4):
        pieces.clear()
        state = riccati_trajectory(z, s0, p, [0.3, l])[-1]
        assert state.status == STATUS_ESCAPED
        assert state.l > 3.0 * p.length
        assert max(pieces) <= p.n_intervals + 1
        mu, s = escape_oracle(z, s0, p, l)
        assert abs(state.mu - mu) <= 1e-9
        assert abs(state.s - s) <= 1e-9


def test_trajectory_refuses_a_row_that_underflows():
    # s0 = 0.5 is s+(i) of the constant system a = 0.5 exactly: the row
    # (s0, 1) T(i, l) cancels in its first entry and decays in its second
    # against T, below the smallest normal float past measure about 354 (a
    # subnormal at 360, 0 at 400), where s would read nan
    p = constant_parameters(0.5)
    assert riccati_fixed_point(1j, 0.5) == 0.5
    assert integrate_riccati(1j, 0.5, p, 300.0).status == STATUS_OK
    with pytest.raises(DegenerateActionError, match="at l = 360"):
        integrate_riccati(1j, 0.5, p, 360.0)
    with pytest.raises(DegenerateActionError, match="at l = 400"):
        riccati_trajectory(1j, 0.5, p, [0.0, 400.0, 800.0])


def test_trajectory_rejects_descending_lengths():
    with pytest.raises(InputError):
        riccati_trajectory(1j, 0.0, constant_parameters(0.0), [1.0, 0.5])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC]),
       st.floats(0.2, 1.5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_flow_semigroup(seed, tail, im_z, mu1, mu2):
    # the flow over l1 + l2 is the flow over l1 followed by the flow of the
    # stripped system over l2; the spans are drawn by measure (at most 2 in
    # all), since s+ is the repelling direction of the flow and round-off in
    # s0 . T(z, l) grows exponentially with the measure
    rng = np.random.default_rng(seed)
    p = random_parameters(rng, n_max=6, tail=tail)
    z = complex(rng.uniform(-1.0, 1.0), im_z)
    s0 = schur_plus(z, p).value
    l1 = p.l_of_mu(mu1)
    l2 = p.l_of_mu(mu1 + mu2) - l1
    first, whole = riccati_trajectory(z, s0, p, [l1, l1 + l2])
    assume(whole.valid)
    rest = integrate_riccati(z, first.s, strip_head(p, l1), l2)
    assert rest.valid
    assert abs(rest.s - whole.s) <= 1e-10


def test_rejects_initial_value_outside_disk():
    with pytest.raises(InputError):
        integrate_riccati(1j, 1.5, constant_parameters(0.0), 1.0)


# --- the boundary bijection -----------------------------------------------------------

def test_a_to_c_examples():
    assert a_to_c(0.0) == 0.0
    assert abs(a_to_c(0.6) - 1.0 / 3.0) < 1e-15
    assert abs(c_to_a(1.0 / 3.0) - 0.6) < 1e-15


def test_boundary_fixed_points():
    for a in (1.0, -1j, np.exp(0.3j)):
        assert abs(a_to_c(a) - a) < 1e-12


def test_mutual_inverses_on_disk():
    rng = np.random.default_rng(53)
    for _ in range(200):
        w = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        assert abs(c_to_a(a_to_c(w)) - w) < 1e-12
        assert abs(a_to_c(c_to_a(w)) - w) < 1e-12


def test_range_errors():
    with pytest.raises(DomainError):
        a_to_c(1.1)
    with pytest.raises(DomainError):
        c_to_a(1.0 + 1e-6)


def test_blaschke_square_root_identity():
    rng = np.random.default_rng(54)
    for _ in range(30):
        a = rng.uniform(0, 0.999) * np.exp(2j * np.pi * rng.uniform())
        v_half = blaschke_matrix(a_to_c(a))
        assert np.max(np.abs(v_half @ v_half - blaschke_matrix(a))) < 1e-10


def test_blaschke_rejects_boundary():
    with pytest.raises(DomainError):
        blaschke_matrix(1.0)


# --- extrapolation ---------------------------------------------------------------------

def test_richardson_exact_on_polynomial_decay():
    ys = [100.0 * 2.0 ** k for k in range(5)]
    values = [3.0 + 2.0 / y - 5.0 / y ** 2 + 1.0 / y ** 3 for y in ys]
    estimate, spread = richardson_extrapolate(values, 2.0)
    assert abs(estimate - 3.0) < 1e-12
    assert spread < 1e-9


def test_boundary_limit_calls_its_evaluator_once_on_the_axis():
    calls = []

    def evaluator(w):
        calls.append(w)
        return np.zeros(w.shape)

    bl = boundary_limit(evaluator)
    assert len(calls) == 1
    assert calls[0].dtype == complex
    assert np.array_equal(calls[0], 1j * np.array(DEFAULT_RAY_RADII))
    assert bl.ys == DEFAULT_RAY_RADII
    assert bl.samples == (0j,) * len(DEFAULT_RAY_RADII)


@pytest.mark.parametrize("evaluator", [
    lambda w: schur_plus(w, constant_parameters(0.6)).value,  # the first point's value
    lambda w: 0.0,
    lambda w: np.zeros(w.size - 1),
    lambda w: np.where(w.imag > 1e3, np.nan, 0.0),
], ids=["schur_plus", "scalar", "short", "nan"])
def test_boundary_limit_rejects_what_is_not_one_value_per_ray_point(evaluator):
    with pytest.raises(InputError, match="one per ray point"):
        boundary_limit(evaluator)


def test_boundary_limit_of_zero_function():
    bl = boundary_limit(lambda w: np.zeros(w.shape))
    assert bl.estimate == 0.0
    assert bl.spread == 0.0
    assert bl.converged


def test_boundary_limit_recovers_c_for_constant_system():
    p = constant_parameters(0.6)
    bl = boundary_limit(lambda w: schur_grid(w, p)[0])
    assert abs(bl.estimate - 1.0 / 3.0) < 1e-3
    assert bl.converged
    assert abs(c_to_a(bl.estimate) - 0.6) < 1e-3


def test_boundary_limit_after_stripping_sees_second_block():
    # coefficient jumps at l = 1; strip to l0 = 1.5 inside the second block
    from arvcanon import ArovParameters, strip_head
    p = ArovParameters([1.0, 3.0], [1.0, 1.0], [0.2, 0.7])
    stripped = strip_head(p, 1.5)
    bl = boundary_limit(lambda w: schur_grid(w, stripped)[0])
    assert bl.converged
    assert abs(bl.estimate - a_to_c(0.7)) < 1e-3


def test_boundary_limit_flags_non_cauchy_samples():
    bl = boundary_limit(lambda w: 0.5 * np.exp(2j * np.log(abs(w))))
    assert not bl.converged


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(0.0, 1.0), st.floats(0.2, 3.0))
def test_property_boundary_limit_of_a_constant_system_is_c(radius, turn, m):
    a = radius * np.exp(2j * np.pi * turn)
    p = ArovParameters([1.0], [m], [a], TAIL_CONSTANT)
    bl = boundary_limit(lambda w: schur_grid(w, p)[0])
    assert abs(bl.estimate - a_to_c(a)) <= 1e-12
    assert bl.converged

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arvcanon import (DegenerateActionError, InputError, PreconditionError,
                      j_defect, mat2, mobius_right, su11_normalizer)
from arvcanon.mat2 import J, JKind, adjugate, det2, herm_eigs, mul2, norm2

from helpers import is_su11, random_contractive, random_su11


def test_j_defect_identity():
    defect, cls = j_defect(np.eye(2, dtype=complex))
    assert np.allclose(defect, 0.0)
    assert cls.kind is JKind.UNITARY


def test_j_defect_contractive_example():
    t = mat2(2, 1, 1, 1)
    defect, cls = j_defect(t)
    assert np.allclose(defect, mat2(2, 1, 1, 1))
    assert cls.kind is JKind.CONTRACTIVE
    assert cls.eigenvalues[0] > 0


def test_j_defect_diagonal_propagator():
    t = np.diag([np.e, 1.0 / np.e]).astype(complex)
    defect, cls = j_defect(t)
    assert np.allclose(defect, np.diag([np.e**2 - 1.0, 1.0 - np.e**-2]))
    assert cls.kind is JKind.CONTRACTIVE


def test_j_defect_expanding_and_indefinite():
    _, cls = j_defect(np.diag([1.0 / np.e, np.e]).astype(complex))
    assert cls.kind is JKind.EXPANDING
    _, cls = j_defect(0.5 * np.eye(2, dtype=complex))
    assert cls.kind is JKind.INDEFINITE


def test_j_defect_unitary_iff_defect_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = random_su11(rng)
        defect, cls = j_defect(u)
        assert cls.kind is JKind.UNITARY
        assert norm2(defect) <= 1e-10 * max(1.0, norm2(u) ** 2)


def test_j_defect_rejects_nonfinite():
    with pytest.raises(InputError):
        j_defect(mat2(np.nan, 0, 0, 1))


def test_herm_eigs_closed_form():
    h = mat2(2, 1 + 1j, 1 - 1j, -1)
    lo, hi = herm_eigs(h)
    ref = np.linalg.eigvalsh(h)
    assert abs(lo - ref[0]) < 1e-14
    assert abs(hi - ref[1]) < 1e-14


def test_mobius_identity():
    assert mobius_right(0.3, np.eye(2)) == 0.3


def test_mobius_lower_triangular():
    lam, h = 2.0, 0.7 + 0.1j
    m = mat2(lam, 0, h, 1.0 / lam)
    assert abs(mobius_right(0.0, m) - h * lam) < 1e-15


def test_mobius_composition_is_right_action():
    rng = np.random.default_rng(1)
    for _ in range(30):
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = mobius_right(mobius_right(w, m1), m2)
        rhs = mobius_right(w, m1 @ m2)
        assert abs(lhs - rhs) <= 1e-12


def test_mobius_infinity_handling():
    m = mat2(1, 0, 1, 0)
    assert np.isinf(mobius_right(0.0, m))


def test_mobius_degenerate_row():
    with pytest.raises(DegenerateActionError):
        mobius_right(1.0, mat2(1, 1, -1, -1))


def test_su11_normalizer_fixed_example():
    t = mat2(2, 1, 1, 1)
    u = su11_normalizer(t)
    assert np.allclose(u * np.sqrt(3), mat2(2, -1, -1, 2), atol=1e-14)
    tu = t @ u
    assert abs(tu[0, 1]) < 1e-14
    assert abs(tu[0, 0] - np.sqrt(3)) < 1e-14
    assert abs(det2(tu) - 1) < 1e-14


def test_su11_normalizer_identity_on_normalized_input():
    t = mat2(2.0, 0.0, 0.3 + 0.1j, 0.5)
    u = su11_normalizer(t)
    assert np.allclose(u, np.eye(2), atol=1e-14)


def test_su11_membership_and_lower_triangular_output():
    rng = np.random.default_rng(2)
    for _ in range(25):
        t = random_contractive(rng)
        u = su11_normalizer(t)
        assert is_su11(u, tol=1e-10)
        tu = t @ u
        scale = max(1.0, norm2(tu))
        assert abs(tu[0, 1]) <= 1e-12 * scale
        assert tu[0, 0].real > 0 and tu[1, 1].real > 0
        assert abs(tu[0, 0].imag) <= 1e-12 * scale


def test_su11_uniqueness_under_perturbation_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_contractive(rng)
        u1 = su11_normalizer(t)
        bump = 1.0 + 1e-13
        u2 = su11_normalizer(t * bump / bump)
        assert norm2(u1 - u2) <= 1e-10


def test_su11_rejects_non_contractive():
    with pytest.raises(PreconditionError):
        su11_normalizer(mat2(0, 1, -1, 0))


def test_su11_rejects_wrong_det():
    with pytest.raises(PreconditionError):
        su11_normalizer(2.0 * np.eye(2, dtype=complex))


def test_adjugate_is_inverse_for_unimodular():
    rng = np.random.default_rng(4)
    t = random_contractive(rng)
    assert np.allclose(t @ adjugate(t), np.eye(2), atol=1e-12)


def test_su11_normalizer_names_the_first_failing_matrix_of_a_stack():
    # the second matrix fails the j-check, the third the det check
    stack = np.array([mat2(2, 1, 1, 1), mat2(0, 1, -1, 0), 2.0 * np.eye(2)])
    with pytest.raises(PreconditionError, match="j-contractive matrix, got"):
        su11_normalizer(stack)


def _close(stack, slices):
    """Stack result against the slice-by-slice one, to 1e-13 of max(1, |x|)."""
    slices = np.array(slices)
    assert np.all(np.abs(stack - slices) <= 1e-13 * np.maximum(1.0, np.abs(slices)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_stack_helpers_equal_themselves_slice_by_slice(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    # j-contractive det-1 matrices U1 diag(e^t, e^-t) U2, their expanding
    # inverses, SU(1,1) elements and an indefinite one: no defect eigenvalue
    # lies near the edge of the round-off band, so the classes must agree
    r = rng.uniform(0.1, 2.0, n)
    d = np.zeros((n, 2, 2), dtype=complex)
    d[:, 0, 0], d[:, 1, 1] = np.exp(r), np.exp(-r)
    su = np.array([random_su11(rng) for _ in range(2 * n)])
    t = su[:n] @ d @ su[n:]
    mixed = np.concatenate([t, adjugate(t), su, [0.5 * np.eye(2)]])
    w = 0.9 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))

    for helper in (det2, adjugate, norm2):
        _close(helper(m), [helper(x) for x in m])
    h = m + m.conj().swapaxes(1, 2)
    _close(np.array(herm_eigs(h)).T, [herm_eigs(x) for x in h])
    _close(su11_normalizer(t), [su11_normalizer(x) for x in t])
    _close(mobius_right(w, t), [mobius_right(wi, x) for wi, x in zip(w, t)])
    _close(mobius_right(w[:, None], t[:, None]), [[mobius_right(wi, x)] for wi, x in zip(w, t)])

    defect, cls = j_defect(mixed)
    pairs = [j_defect(x) for x in mixed]
    _close(defect, [x for x, _ in pairs])
    _close(np.array(cls.eigenvalues).T, [c.eigenvalues for _, c in pairs])
    assert list(cls.kind) == [c.kind for _, c in pairs]
    assert list(cls.is_contractive) == [c.is_contractive for _, c in pairs]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (5,), (3, 4)]))
def test_mul2_is_the_matrix_product_broadcast_and_in_place(seed, shape):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    y = rng.normal(size=shape[-1:] + (2, 2)) + 1j * rng.normal(size=shape[-1:] + (2, 2))
    want = x @ y
    # each entry is two complex products and a sum, as in @: both are within
    # a few units of round-off of the exact product (numpy's complex loops
    # may fuse multiply-adds on some paths, so the bits are not compared)
    bound = 1e-15 * (np.abs(x) @ np.abs(y))
    got = mul2(x, y)
    assert got.shape == want.shape and np.all(np.abs(got - want) <= bound)
    one = x[(0,) * len(shape)]  # a lone matrix times a stack
    assert np.all(np.abs(mul2(one, y) - one @ y) <= 1e-15 * (np.abs(one) @ np.abs(y)))
    same = x.copy()  # the product written over x
    assert mul2(same, y, out=same) is same
    assert np.all(np.abs(same - want) <= bound)

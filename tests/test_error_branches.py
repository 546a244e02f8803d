"""Error branches of every module, each driven once: the refusal raises its
own class (and the command line exits with its code), not a neighbour's."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arvcanon import (ArovParameters, CoefficientError, DomainError, GeneralCoefficients,
                      InconsistencyError, InputError, ParseError, PreconditionError,
                      TAIL_CONSTANT, TAIL_FINITE, TransferFamily,
                      constant_parameters, dirac_coefficients, harmonic_measure,
                      load_parameters, parameters_from_dict, recover_parameters, reflect,
                      reflectionless_ladder, riccati_fixed_point, riccati_trajectory,
                      strip_head, to_pdb_gauge, transfer)
from arvcanon import cli, propagate as prop, weyl
from arvcanon.mat2 import as_mat2
from arvcanon.riccati import disk_root, richardson_extrapolate
from arvcanon.spectral import bp_defect, exponential_type_integral

SRC = str(Path(__file__).resolve().parents[1] / "src")

_P = constant_parameters(0.5)
_FINITE = ArovParameters([1.0, 2.0], [1.0, 0.5], [0.3, -0.2j], TAIL_FINITE)
_EYE = np.eye(2, dtype=complex)

REFUSALS = {  # name: (call, error class, message pattern)
    # cli
    "parse_z_bad_token": (lambda: cli._parse_z("1,x"), ParseError, "cannot parse"),
    "parse_zgrid_bad_iy": (lambda: cli.parse_zgrid("iy:1:x:3:log"), ParseError,
                           "bad imaginary-axis grid"),
    "parse_zgrid_unknown_form": (lambda: cli.parse_zgrid("1:2"), ParseError,
                                 "bad spectral grid"),
    # coefficients
    "empty_grid": (lambda: ArovParameters([], [], []), CoefficientError, "nonempty"),
    "m_wrong_length": (lambda: ArovParameters([1.0, 2.0], [1.0], [0.1, 0.2]),
                       CoefficientError, "m must have one entry"),
    "a_wrong_length": (lambda: ArovParameters([1.0], [1.0], [0.1, 0.2]),
                       CoefficientError, "a must have one entry"),
    "P_not_2x2_stack": (lambda: GeneralCoefficients([1.0], [1.0], np.zeros((1, 2)),
                                                    np.zeros((1, 2, 2))),
                        CoefficientError, "stacks of 2x2"),
    "dict_without_gauge_keys": (lambda: parameters_from_dict({"grid": [1.0]}), ParseError,
                                "neither"),
    "complex_ndarray_in_dict": (lambda: parameters_from_dict(
        {"grid": np.array([1.0 + 0j]), "m": [1.0], "a": [0.5]}), ParseError, "array of complex"),
    "reflect_general": (lambda: reflect(dirac_coefficients()), InputError, "disk-gauge"),
    "strip_head_negative": (lambda: strip_head(_P, -0.5), DomainError, "nonnegative"),
    "strip_head_past_finite": (lambda: strip_head(_FINITE, 2.5), DomainError, "finite system"),
    "l_of_mu_negative": (lambda: _P.l_of_mu(-1.0), DomainError, "nonnegative"),
    "l_of_mu_past_finite_mass": (lambda: _FINITE.l_of_mu(1.6), DomainError, "total mass"),
    # mat2
    "as_mat2_not_2x2": (lambda: as_mat2(np.zeros((3, 3))), InputError, "must be 2x2"),
    # propagate
    "unsupported_system": (lambda: transfer(1j, object(), 1.0), InputError, "unsupported"),
    "family_bad_shape": (lambda: TransferFamily([1j], [0.0, 1.0], _EYE[None, None]),
                         InputError, "values shaped"),
    "family_decreasing_ls": (lambda: TransferFamily([1j], [1.0, 0.0],
                                                    np.stack([_EYE, _EYE])[None]),
                             InputError, "nondecreasing"),
    "family_without_z": (lambda: TransferFamily([1j], [0.0], _EYE[None, None]).z_index(2j),
                         InputError, "no spectral point"),
    "pdb_singular_zero_column": (lambda: to_pdb_gauge(
        TransferFamily([0j], [0.0], np.zeros((1, 1, 2, 2)))), InputError, "singular"),
    "recover_non_increasing": (lambda: recover_parameters(
        TransferFamily([1j], [0.0, 1.0, 1.0], np.stack([_EYE] * 3)[None], "arov")),
        InputError, "strictly increasing"),
    # riccati
    "disk_root_no_root": (lambda: disk_root(np.array([1 + 0j]), np.array([0j]),
                                            np.array([-9 + 0j])),
                          InconsistencyError, "no root"),
    "fixed_point_large_a": (lambda: riccati_fixed_point(1j, 1.5), CoefficientError, "> 1"),
    "trajectory_general": (lambda: riccati_trajectory(1j, 0.0, dirac_coefficients(), [0.5]),
                           InputError, "disk-gauge"),
    "richardson_no_samples": (lambda: richardson_extrapolate([], 2.0), InputError, "no samples"),
    # spectral
    "type_integral_unsupported": (lambda: exponential_type_integral(object(), 1.0),
                                  InputError, "unsupported"),
    "eps_ladder_not_decreasing": (lambda: reflectionless_ladder(_P, _P, [0.0], (1e-3, 1e-2)),
                                  InputError, "strictly decreasing"),
    "eps_ladder_not_positive": (lambda: reflectionless_ladder(_P, _P, [0.0], (1e-3, -1e-2)),
                                DomainError, "positive"),
    "bp_no_intervals": (lambda: bp_defect(_P, _P, [], (0.3, 2.5), [0.0], 0.1, 1e-3),
                        InputError, "no band intervals"),
    # weyl
    "disks_on_the_axis": (lambda: weyl.disks_grid(_P, [0.5 + 0j], [1.0]),
                          PreconditionError, "Im z > 0"),
    "disk_of_non_contractive": (lambda: weyl._disk_arrays(
        np.array([[0.5, 1.0], [1.0, 4.0]], dtype=complex), 0.0),
        PreconditionError, "j-contractive"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_its_class(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error


def test_load_parameters_on_a_directory(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_parameters(tmp_path)


@pytest.mark.parametrize("zgrid", ["1,x", "iy:1:x:3:log", "1:2"])
def test_bad_spectral_specs_exit_2_from_the_module(tmp_path, zgrid):
    path = tmp_path / "p.json"
    path.write_text('{"grid": [1.0], "m": [1.0], "a": [0.5], "tail": "constant"}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get(
        "PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "arvcanon.cli", "transfer", "--input", str(path),
                           f"--zgrid={zgrid}", "--lgrid", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and "ParseError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_l_of_mu_on_a_knot_of_no_mass_is_its_leftmost_length():
    p = ArovParameters([1.0, 2.0, 3.0], [1.0, 0.0, 2.0], [0.1, 0.2, 0.3], TAIL_CONSTANT)
    assert p.l_of_mu(1.0) == 1.0
    assert p.l_of_mu(0.0) == 0.0
    assert p.l_of_mu(3.0) == 3.0


def test_l_of_mu_past_the_mass_of_a_massless_constant_tail():
    p = ArovParameters([1.0, 2.0], [1.0, 0.0], [0.1, 0.2], TAIL_CONSTANT)
    with pytest.raises(DomainError, match="total mass"):
        p.l_of_mu(1.5)


def test_recovery_projects_round_off_past_the_circle():
    # one interval of mass 1 whose coefficient reads 1 + 1e-10: within
    # RECOVERY_TOL, so it is put back on the circle
    a, e = 1.0 + 1e-10, np.e
    kappa = a * (1.0 - np.exp(-2.0))
    t = np.array([[e, 0.0], [-kappa * e, 1.0 / e]], dtype=complex)
    result = recover_parameters(TransferFamily([1j], [0.0, 1.0], np.stack([_EYE, t])[None],
                                               "arov"))
    assert abs(abs(result.params.a[0]) - 1.0) <= 1e-15
    assert 1.0 + 1e-11 < a < 1.0 + prop.RECOVERY_TOL


def test_richardson_of_one_sample_is_that_sample():
    assert richardson_extrapolate([0.25 + 0.5j], 2.0) == (0.25 + 0.5j, 0.0)


def test_arc_of_no_sweep_has_no_measure():
    w = np.array([0.0, 0.3 + 0.4j])
    assert np.array_equal(harmonic_measure(w, 1.0, 1.0), [0.0, 0.0])

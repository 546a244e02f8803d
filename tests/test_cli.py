import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arvcanon import (ArovParameters, cli, constant_parameters, riccati_fixed_point,
                      save_parameters, schur_plus, strip_head)
from arvcanon import propagate as prop

from helpers import coefficient_texts, csv_reference


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def const_half(tmp_path):
    return _write(tmp_path, "p.json",
                  {"grid": [1.0], "m": [1.0], "a": [[0.5, 0.0]], "tail": "constant"})


@pytest.fixture
def full_line(tmp_path):
    left = constant_parameters(0.5)
    right = constant_parameters(0.5)
    path = tmp_path / "full.json"
    save_parameters((left, right), path)
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# arvcanon config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_disks_radius_column_matches_closed_form(tmp_path, const_half):
    out = tmp_path / "disks.csv"
    code = cli.main(["disks", "--input", const_half, "--z", "i",
                     "--lgrid", "0:4:0.1", "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    li = header.index("l")
    ri = header.index("radius")
    for row in rows:
        l, r = float(row[li]), float(row[ri])
        assert abs(r - np.exp(-2.0 * l)) < 1e-10


def test_type_json(tmp_path):
    inp = _write(tmp_path, "p6.json",
                 {"grid": [1.0], "m": [1.0], "a": [[0.6, 0.0]], "tail": "constant"})
    out = tmp_path / "type.json"
    code = cli.main(["type", "--input", inp, "--l", "2", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["sigma_integral"] == 1.6
    assert abs(payload["sigma_numeric"] - 1.6) < 0.016


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": [1.0,')
    code = cli.main(["transfer", "--input", str(bad), "--zgrid", "i", "--lgrid", "1"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "line" in err["message"]


def test_non_numeric_grid_in_file_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"grid": ["abc"], "m": [1], "a": [0.5]})
    code = cli.main(["type", "--input", bad, "--l", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_validation_error_exit_3(tmp_path, capsys):
    bad = _write(tmp_path, "neg.json",
                 {"grid": [1.0], "m": [-1.0], "a": [[0.0, 0.0]], "tail": "constant"})
    code = cli.main(["transfer", "--input", str(bad), "--zgrid", "i", "--lgrid", "1"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "m[0]" in err["message"]


def test_schur_closes_with_the_tail(tmp_path, const_half):
    # the command that once ran out of its length budget: every value is now
    # the tail's stationarity root pulled back through the head, down to
    # Im z = 1e-8
    out = tmp_path / "s.csv"
    assert cli.main(["schur", "--input", const_half, "--zgrid", "0,0.001:1.2,1e-8:2",
                     "--output", str(out)]) == 0
    _, rows = _read_rows(out)
    zs = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    s = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    assert zs[-1] == 1.2 + 1e-8j
    assert np.max(np.abs(s - riccati_fixed_point(zs, 0.5))) < 1e-12
    assert all(float(r[4]) == 0.0 and float(r[5]) == 1.0 for r in rows)


def test_bad_grid_spec_exit_2(const_half, capsys):
    code = cli.main(["disks", "--input", const_half, "--zgrid", "i",
                     "--lgrid", "0:4:-1"])
    assert code == 2
    capsys.readouterr()


def test_deterministic_output_across_runs_and_threads(tmp_path, const_half, monkeypatch):
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["transfer", "--input", const_half, "--zgrid", "0,0.5:1,1.5:6",
            "--lgrid", "0:2:0.25"]
    assert cli.main(argv + ["--output", str(out1)]) == 0
    assert cli.main(argv + ["--output", str(out2)]) == 0
    assert cli.main(argv + ["--output", str(out3), "--threads", "4"]) == 0
    base = out1.read_bytes()
    assert out2.read_bytes() == base
    assert out3.read_bytes() == base


def test_thread_env_changes_nothing(tmp_path, const_half, monkeypatch):
    outs = [tmp_path / n for n in ("plain.csv", "zebra.csv")]
    argv = ["disks", "--input", const_half, "--zgrid", "i", "--lgrid", "0:1:0.5",
            "--threads", "8"]
    assert cli.main(argv + ["--output", str(outs[0])]) == 0
    monkeypatch.setenv("ARVCANON_THREADS", "zebra")
    assert cli.main(argv + ["--output", str(outs[1])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_schur_minus_on_full_line_input(tmp_path, full_line):
    out = tmp_path / "schur.csv"
    code = cli.main(["schur", "--input", full_line, "--zgrid", "i",
                     "--side", "minus", "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    s_re = float(rows[0][header.index("s_re")])
    s_im = float(rows[0][header.index("s_im")])
    assert abs(complex(s_re, s_im)) < 1e-10


def test_riccati_trajectory_escape_status(tmp_path):
    inp = _write(tmp_path, "free.json",
                 {"grid": [1.0], "m": [1.0], "a": [[0.0, 0.0]], "tail": "constant"})
    out = tmp_path / "ric.csv"
    code = cli.main(["riccati", "--input", inp, "--z", "i", "--s0", "0.5,0",
                     "--lgrid", "0:1:0.2", "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    statuses = [row[header.index("status")] for row in rows]
    assert statuses[0] == "ok"
    assert statuses[-1] == "escaped"
    assert len(rows) < 6  # stops emitting after the escape


def test_riccati_row_that_underflows_exits_1(const_half, capsys):
    # s0 = 0.5 is s+(i) exactly: its row through T(i, l) underflows to 0 by
    # l = 400, which printed nan,nan,ok rows (and warned) with exit 0
    argv = ["riccati", "--input", const_half, "--z", "i", "--s0", "0.5,0",
            "--lgrid", "0:800:400"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    detail = json.loads(err)
    assert detail["error"] == "DegenerateActionError" and "l = 400" in detail["message"]


def test_riccati_row_without_a_correct_digit_exits_1(const_half, capsys):
    # from the same s0 the row at l = 20 cancels to s = 0 exactly and read
    # "ok"; the first row whose s has no digit left within ROW_TOL is l = 15
    argv = ["riccati", "--input", const_half, "--z", "i", "--s0", "0.5,0",
            "--lgrid", "0:40:5"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    detail = json.loads(err)
    assert detail["error"] == "DegenerateActionError" and "l = 15" in detail["message"]


def test_riccati_auto_rows_are_the_stripped_values(tmp_path):
    # mu = 40 per unit length: flowing s+ forwards, round-off put the l = 0.5
    # row 4e-7 off and printed a false escape at l = 1
    rng = np.random.default_rng(3)
    p = ArovParameters(np.linspace(0.2, 10, 50), np.full(50, 40.0),
                       0.6 * np.exp(2j * np.pi * rng.random(50)), tail="constant")
    inp, out = str(tmp_path / "heavy.json"), tmp_path / "ric.csv"
    save_parameters(p, inp)
    assert cli.main(["riccati", "--input", inp, "--z=0.3,0.2", "--lgrid", "0:3:0.5",
                     "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert len(rows) == 7
    for row in rows:
        assert row[header.index("status")] == "ok"
        l = float(row[header.index("l")])
        s = complex(float(row[header.index("s_re")]), float(row[header.index("s_im")]))
        assert abs(s - schur_plus(0.3 + 0.2j, strip_head(p, l)).value) <= 1e-12, l


def test_removed_options_are_parse_errors(const_half, capsys):
    # no subcommand takes --tol (Schur values are certified at round-off),
    # --threads only on transfer and disks, reflectionless takes no --delta
    # (its a.c.-band proxy is spectral.AC_DELTA) and type writes JSON only
    for argv in (["riccati", "--z", "0.3,0.5", "--lgrid", "0:1:0.5", "--step", "0.1"],
                 ["reflectionless", "--xgrid", "0:1:0.5", "--delta", "0.02"],
                 ["schur", "--zgrid", "0,0.5:1,1:3", "--tol", "1e-10"],
                 ["reflectionless", "--xgrid", "0:1:0.5", "--tol", "1e-3"],
                 ["bp", "--e", "0,1", "--arc", "0:1", "--tol", "1e-3"],
                 ["riccati", "--z", "0.3,0.5", "--lgrid", "0:1:0.5", "--tol", "1e-3"],
                 ["schur", "--zgrid", "i", "--lmax", "2"],
                 ["transfer", "--zgrid", "i", "--lgrid", "0:1:0.5", "--tol", "1e-3"],
                 ["disks", "--zgrid", "i", "--lgrid", "0:1:0.5", "--tol", "1e-3"],
                 ["type", "--l", "1", "--tol", "1e-3"],
                 ["gauge", "--to", "arov", "--zgrid", "i", "--lgrid", "0:1:0.5", "--tol", "1e-3"],
                 ["schur", "--zgrid", "i", "--threads", "2"],
                 ["riccati", "--z", "i", "--lgrid", "0:1:0.5", "--threads", "2"],
                 ["type", "--l", "1", "--threads", "2"],
                 ["type", "--l", "1", "--format", "csv"],
                 ["reflectionless", "--xgrid", "0:1:0.5", "--threads", "2"],
                 ["bp", "--e", "0,1", "--arc", "0:1", "--threads", "2"],
                 ["gauge", "--to", "arov", "--zgrid", "i", "--lgrid", "0:1:0.5",
                  "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--input", const_half])
        assert exc.value.code == 2
    capsys.readouterr()


def test_config_hash_of_a_schur_command_is_unchanged():
    # the hash is over the parsed options: dropping options that schur never
    # had must not move it (dropping its own --tol did)
    for argv, want in ((["--zgrid", "0,0.5:1,1:3"], "9e7097d6f11f"),
                       (["--zgrid", "i"], "4969de13b34a")):
        ns = cli.build_parser().parse_args(["schur", "--input", "system.json"] + argv)
        assert cli._config_hash(ns) == want


def test_leading_minus_grids_in_equals_form(tmp_path, const_half):
    out = tmp_path / "schur.csv"
    assert cli.main(["schur", "--input", const_half, "--zgrid=-2,0.5:2,0.5:3",
                     "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert [float(r[header.index("z_re")]) for r in rows] == [-2.0, 0.0, 2.0]
    out = tmp_path / "ric.csv"
    assert cli.main(["riccati", "--input", const_half, "--z=-0.4,0.6",
                     "--lgrid", "0:1:0.5", "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert float(rows[0][header.index("z_re")]) == -0.4


def test_gauge_to_pdb_normalizes_zero_column(tmp_path, const_half):
    out = tmp_path / "gauge.csv"
    code = cli.main(["gauge", "--input", const_half, "--to", "pdb",
                     "--zgrid", "i", "--lgrid", "0:1:0.5", "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    for row in rows:
        if float(row[header.index("z_re")]) == 0 and float(row[header.index("z_im")]) == 0:
            a11 = float(row[header.index("a11_re")])
            a12 = abs(float(row[header.index("a12_re")]))
            assert abs(a11 - 1.0) < 1e-12 and a12 < 1e-12


def test_gauge_params_roundtrip(tmp_path, const_half):
    out = tmp_path / "fam.csv"
    params_out = tmp_path / "rec.json"
    code = cli.main(["gauge", "--input", const_half, "--to", "arov",
                     "--zgrid", "i", "--lgrid", "0:1:0.25",
                     "--output", str(out), "--params-out", str(params_out)])
    assert code == 0
    rec = json.loads(params_out.read_text())
    assert np.allclose([ab[0] for ab in rec["a"]], 0.5, atol=1e-9)
    assert np.allclose(rec["m"], 1.0, atol=1e-9)
    assert np.allclose(rec["mu"], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_reflectionless_command_with_summary(tmp_path, full_line):
    out = tmp_path / "refl.csv"
    summary = tmp_path / "refl.json"
    code = cli.main(["reflectionless", "--input", full_line,
                     "--xgrid", "0.9:1.5:0.3", "--eps", "1e-2,1e-3",
                     "--output", str(out), "--summary", str(summary)])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["defect_decreasing"] is True
    assert payload["max_defect_on_ac_band"][1] < payload["max_defect_on_ac_band"][0]


def test_bp_command(tmp_path, full_line):
    out = tmp_path / "bp.csv"
    code = cli.main(["bp", "--input", full_line, "--e", "0.9,1.4",
                     "--arc", "0.4:2.0", "--lladder", "1,2", "--xstep", "0.25",
                     "--eps", "1e-3", "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    assert len(rows) == 2
    assert abs(float(rows[0][header.index("defect")])) < 1e-2


def test_full_line_file_rejected_by_half_line_command(tmp_path, full_line, capsys):
    code = cli.main(["disks", "--input", full_line, "--zgrid", "i", "--lgrid", "1"])
    assert code == 3
    capsys.readouterr()


def test_gauge_params_out_requires_arov_target(tmp_path, const_half, capsys):
    code = cli.main(["gauge", "--input", const_half, "--to", "pdb",
                     "--zgrid", "i", "--lgrid", "0:1:0.5",
                     "--output", str(tmp_path / "g.csv"),
                     "--params-out", str(tmp_path / "rec.json")])
    assert code == 3
    capsys.readouterr()


def test_reflectionless_signed_xgrid(tmp_path, full_line):
    out = tmp_path / "refl.csv"
    code = cli.main(["reflectionless", "--input", full_line,
                     "--xgrid=-1.5:-0.9:0.1", "--eps", "1e-2",
                     "--output", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    xs = [float(r[header.index("x")]) for r in rows]
    assert np.allclose(xs, -1.5 + 0.1 * np.arange(7))


def test_reflectionless_non_numeric_xgrid_exit_2(full_line, capsys):
    code = cli.main(["reflectionless", "--input", full_line, "--xgrid", "abc"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_schur_on_general_gauge_file_exit_3(tmp_path, capsys):
    from arvcanon import dirac_coefficients

    path = tmp_path / "dirac.json"
    save_parameters(dirac_coefficients(tail="constant"), path)
    code = cli.main(["schur", "--input", str(path), "--zgrid", "i"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


@pytest.mark.parametrize("flag, value", [("--xstep", "0"), ("--xstep", "nan"),
                                         ("--xstep", "-1"), ("--e", "0.8,nan"),
                                         ("--arc", "0.4:nan"), ("--eps", "nan")])
def test_bp_bad_numbers_exit_3(tmp_path, full_line, capsys, flag, value):
    argv = ["bp", "--input", full_line, "--e=0.9,1.4", "--arc=0.4:2.0",
            "--lladder=1,2", "--xstep=0.25", "--eps=1e-3", "--output", str(tmp_path / "bp.csv")]
    argv = [f"{flag}={value}" if a.startswith(flag + "=") else a for a in argv]
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


@pytest.mark.parametrize("argv", [["transfer", "--zgrid=nan,1", "--lgrid=1"],
                                  ["disks", "--zgrid=0,nan", "--lgrid=1"],
                                  ["disks", "--zgrid=iy:1:inf:3:log", "--lgrid=1"],
                                  ["schur", "--zgrid=0,nan"],
                                  ["riccati", "--z=0,nan", "--lgrid=1"],
                                  ["riccati", "--z=0,1", "--s0=inf,0", "--lgrid=1"]])
def test_non_finite_spectral_points_exit_2(const_half, capsys, argv):
    assert cli.main(argv + ["--input", const_half]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [["transfer", "--zgrid=1e200,1", "--lgrid=1"],
                                  ["disks", "--zgrid=1e200,1", "--lgrid=1"],
                                  ["schur", "--zgrid=-1e160,1:1,1:3"],
                                  ["riccati", "--z=1e200,1", "--lgrid=1"],
                                  ["riccati", "--z=1e200,1", "--s0=0.5,0", "--lgrid=1"]])
def test_spectral_points_too_large_for_the_closed_form_exit_3(const_half, capsys, argv):
    # the generator's square overflowed: a row of nan, exit 0 (schur: exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--input", const_half]) == 3
    out, err = capsys.readouterr()
    assert "nan" not in out and json.loads(err)["error"] == "DomainError"
    assert "too large" in json.loads(err)["message"]


_PERIODIC = {"grid": [1, 2], "m": [1, 0.5], "a": [0.5, [0, 0.3]], "tail": "periodic"}


@pytest.mark.parametrize("payload, argv", [
    (_PERIODIC, ["type", "--l", "1e300"]),
    (_PERIODIC, ["riccati", "--z", "1,1", "--s0", "0.5,0.5", "--lgrid", "1e300"]),
    ({"grid": [2e-300], "m": [1], "a": [0.5], "tail": "periodic"},
     ["transfer", "--zgrid", "i", "--lgrid", "1"])])
def test_period_counts_past_int64_exit_3(tmp_path, capsys, payload, argv):
    # the period count wrapped to -2^63: a negative sigma_integral, a
    # traceback, and a matrix within 1e-280 of the identity, each after a
    # RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--input", _write(tmp_path, "p.json", payload)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "DomainError"
    assert "periods" in json.loads(err)["message"]


@pytest.mark.parametrize("payload, l", [
    ({"grid": [1.0], "m": [1.0], "a": [0.5], "tail": "constant"}, "1e306"),
    ({"grid": [1e300], "m": [1.0], "a": [0.5], "tail": "periodic"}, "1e307"),
    ({"grid": [1e306], "m": [1.0], "a": [0.5], "tail": "constant"}, "1e306")])
def test_overflowing_exponent_or_log_scale_exit_3(tmp_path, capsys, payload, l):
    # the closed form's exponent rho d at y = 800, or the log-scale of the
    # period's powers, overflowed: sigma_numeric and rel_gap were NaN, exit 0.
    # The exponent of the head's own piece overflowed in the kernel call,
    # with RuntimeWarnings (errors here) before the exit-3 line
    path = _write(tmp_path, "p.json", payload)
    assert cli.main(["type", "--input", path, "--l", l]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "DomainError"
    assert "overflows" in json.loads(err)["message"]


def test_overflowing_suffix_exit_3_with_no_warning(tmp_path, capsys):
    # riccati --s0 auto pulls the tail's value back through the kernel's
    # suffix mode, whose exponent rho d at z = 800i overflowed with
    # RuntimeWarnings (errors here) before the exit-3 line
    path = _write(tmp_path, "p.json", {"grid": [1e306], "m": [1.0], "a": [0.5], "tail": "constant"})
    assert cli.main(["riccati", "--input", path, "--z=0,800", "--lgrid", "0:1e306:1e306"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "InputError"


def test_overflowing_periodic_monodromy_exit_3_with_no_warning(tmp_path, capsys):
    # --s0 auto over a periodic tail takes the in-disk root of the
    # monodromy's quadratic; a monodromy whose exponent overflowed (NaN
    # entries) reached the quadratic and warned there (an error here)
    path = _write(tmp_path, "p.json", {"grid": [1e306, 2e306], "m": [1, 1], "a": [0.5, 0.3],
                                       "tail": "periodic"})
    argv = ["riccati", "--input", path, "--z=0,800", "--lgrid", "0:1e306:1e306", "--s0", "auto"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DomainError" and "overflows" in json.loads(err)["message"]


def test_type_report_below_the_overflow_is_finite(tmp_path, capsys):
    # an exponent rho d of 6.9e307 at y = 800 is no error
    path = _write(tmp_path, "p.json", {"grid": [1.0], "m": [1.0], "a": [0.5], "tail": "constant"})
    assert cli.main(["type", "--input", path, "--l", "1e305"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sigma_integral"] == pytest.approx(0.75 ** 0.5 * 1e305, rel=1e-15)
    assert report["rel_gap"] < 1e-12


@pytest.mark.parametrize("argv", [
    ["transfer", "--zgrid", "i", "--lgrid", "1", "--output", "{missing}/x.csv"],
    ["transfer", "--zgrid", "i", "--lgrid", "1", "--output", "{tmp}"],
    ["gauge", "--to", "arov", "--zgrid", "i", "--lgrid", "0:1:0.5", "--output", "{tmp}/g.csv",
     "--params-out", "{missing}/p.json"],
    ["reflectionless", "--xgrid", "0:1:0.5", "--output", "{tmp}/r.csv",
     "--summary", "{missing}/s.json"]])
def test_output_that_cannot_be_opened_exits_1(tmp_path, const_half, full_line, capsys, argv):
    # open() raised through main: a traceback and exit 1
    path = full_line if argv[0] == "reflectionless" else const_half
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    assert cli.main(argv + ["--input", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] in ("FileNotFoundError", "IsADirectoryError")


@pytest.mark.parametrize("argv, error", [
    (["transfer", "--zgrid", "i", "--lgrid", "0:1:1e-300"], "ParseError"),
    (["transfer", "--zgrid", "0,1:1,1:99999999999999999999999", "--lgrid", "1"], "ParseError"),
    (["transfer", "--zgrid", "i", "--lgrid", "0:1e308:1e-308"], "ParseError"),
    (["reflectionless", "--xgrid=-1e308:1e308:1e-300"], "ParseError"),
    (["bp", "--e", "0.8,1.6", "--arc", "0.4:2.0", "--xstep", "1e-300"], "InputError"),
    # sizes numpy can index but not allocate: each asks for more than the
    # 47-bit address space, so the allocation fails at once and touches nothing
    (["transfer", "--zgrid", "i", "--lgrid", "0:1e15:1"], "ParseError"),
    (["schur", "--zgrid", "0,1:1,1:1000000000000000"], "ParseError"),
    (["transfer", "--zgrid", "iy:1:2:1000000000000000:log", "--lgrid", "1"], "ParseError"),
    (["reflectionless", "--xgrid=0:1e15:1"], "ParseError")])
def test_grids_too_large_to_index_are_errors(const_half, full_line, capsys, argv, error):
    # numpy's size check, int() of an infinite count or a failed allocation
    # ended in a traceback; numpy refuses each of these sizes before it
    # allocates anything
    path = full_line if argv[0] in ("reflectionless", "bp") else const_half
    assert cli.main(argv + ["--input", path]) == (2 if error == "ParseError" else 3)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == error


def test_memory_error_of_a_computation_exits_1(const_half, capsys, monkeypatch):
    # a MemoryError raised past the parse is one JSON line and exit 1, not a
    # traceback; raised here by the file read, without allocating anything
    def exhausted(path):
        raise MemoryError("cannot allocate the coefficient arrays")

    monkeypatch.setattr(cli.coeff, "load_parameters", exhausted)
    assert cli.main(["transfer", "--input", const_half, "--zgrid", "i", "--lgrid", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "cannot allocate the coefficient arrays"}


def test_log_imaginary_axis_zgrid(tmp_path, const_half):
    out = tmp_path / "t.csv"
    assert cli.main(["transfer", "--input", const_half, "--zgrid", "iy:1:100:3:log",
                     "--lgrid", "1", "--output", str(out)]) == 0
    _, rows = _read_rows(out)
    zs = [complex(float(r[0]), float(r[1])) for r in rows]
    assert np.allclose(zs, [1j, 10j, 100j], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("argv", [["reflectionless", "--xgrid", "1", "--eps", "1e-2,abc"],
                                  ["bp", "--e", "0.8", "--arc", "0.4:2.0"],
                                  ["bp", "--e", "0.8,1.6", "--arc", "x"],
                                  ["bp", "--e", "0.8,1.6", "--arc", "0.4:2.0",
                                   "--lladder", "1,x"]])
def test_bad_full_line_specs_exit_2(full_line, capsys, argv):
    assert cli.main(argv + ["--input", full_line]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_full_line_command_needs_two_disk_gauge_halves(tmp_path, const_half, capsys):
    from arvcanon import dirac_coefficients

    general = tmp_path / "general.json"
    save_parameters((dirac_coefficients(), dirac_coefficients()), general)
    for path in (const_half, str(general)):
        assert cli.main(["reflectionless", "--input", path, "--xgrid", "1"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"


def test_gauge_params_out_requires_lengths_from_zero(tmp_path, const_half, capsys):
    code = cli.main(["gauge", "--input", const_half, "--to", "arov",
                     "--zgrid", "i", "--lgrid", "0.5:1:0.5",
                     "--output", str(tmp_path / "g.csv"),
                     "--params-out", str(tmp_path / "rec.json")])
    assert code == 3
    assert "start at 0" in json.loads(capsys.readouterr().err)["message"]


def test_other_library_errors_exit_1(capsys):
    from types import SimpleNamespace

    from arvcanon import DegenerateActionError

    def stub(ns):
        raise DegenerateActionError("the action annihilates its row")

    assert cli.run(SimpleNamespace(func=stub)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DegenerateActionError", "message": "the action annihilates its row"}


def test_non_utf8_file_exit_2(tmp_path, capsys):
    # an undecodable byte ended in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"grid": [1.0], "m": [1.0], "a": [0.5], "note": "\xff"}')
    assert cli.main(["type", "--input", str(path), "--l", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_string_in_place_of_a_number_exit_2(tmp_path, capsys):
    # the file loaded, "1.5" and true read as numbers, and type exited 0
    path = tmp_path / "strings.json"
    path.write_text('{"grid": ["1.5"], "m": [true], "a": [[false, "0.25"]]}')
    assert cli.main(["type", "--input", str(path), "--l", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_closed_stdout_exits_1_without_traceback(const_half):
    # a reader that stops after one line, like `arvcanon transfer ... | head -1`
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from arvcanon.cli import main; sys.exit(main())",
         "transfer", "--input", const_half, "--zgrid", "0,0.5:1,1.5:60", "--lgrid", "0:2:0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.readline().startswith(b"# arvcanon")
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


# --- the CSV writer and the reused parser -------------------------------------------

#: numbers a table must write as format(x, ".17g") does
_EDGE_NUMBERS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                 1.7e308, -1.7e308, 1.7976931348623157e308, 1.0, -1.0, 0.1, 1 / 3, 1e16,
                 123456789.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([0, 1, 2, cli._ROWS - 1, cli._ROWS, cli._ROWS + 1, 2 * cli._ROWS + 3,
                        cli._ARRAY_MIN - 1, cli._ARRAY_MIN, cli._BLOCK + 1])
       | st.integers(0, 3 * cli._ROWS),
       st.integers(1, 7), st.booleans(),
       st.lists(st.sampled_from(_EDGE_NUMBERS) | st.floats(allow_nan=True), max_size=12))
# numeric tables just below and at the size converted in numpy, and one of
# several blocks
@example(seed=1, n=cli._ARRAY_MIN - 1, k=1, status=False, extra=[])
@example(seed=2, n=cli._ARRAY_MIN, k=1, status=False, extra=[])
@example(seed=3, n=cli._BLOCK // 3 + 5, k=7, status=False, extra=[])
def test_write_table_bytes_equal_per_number_format(tmp_path_factory, seed, n, k, status, extra):
    # random bit patterns (every class of double, NaN payloads included),
    # the edge values and a string column, over row counts across blocks
    # and on both sides of the size the numpy conversion takes
    rng = np.random.default_rng(seed)
    pool = np.concatenate((_EDGE_NUMBERS, extra, rng.standard_normal(8) * 1e3))
    bits = rng.integers(0, 2**63, size=(k, n), dtype=np.int64) * rng.choice([1, -1], size=(k, n))
    columns = [np.where(rng.random(n) < 0.5, pool[rng.integers(0, pool.size, n)],
                        bits[j].view(float)) for j in range(k)]
    if status:
        columns.insert(int(rng.integers(0, k + 1)),
                       np.array(rng.choice(["ok", "escaped"], n), dtype=str))
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_table(str(path), header, columns, "abc123")
    assert path.read_bytes() == csv_reference(header, columns, "abc123", cli.UNITS).encode()


def _edge_table():
    """Every power of ten of a double and both its neighbours, the switches
    of %g between notations, exact rounding ties and the ends of every class
    of double, with both signs."""
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    tens = np.concatenate((tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)))
    switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05, 0.000099999999999999991,
                9999999999999999.0, 99999999999999999.0, 99999999999999984.0]
    # 17 digits and a 5 at the 18th: ties that format() breaks to even
    ties = np.concatenate(((2.0 ** 50 + np.arange(64)) * 0.25,
                           (2.0 ** 52 + 2 * np.arange(64) + 1) * 0.25,
                           (2.0 ** 53 - 2 * np.arange(64) - 1) * 0.125))
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF00000DEADBEEF], dtype=np.uint64).view(float)
    ends = [0.0, np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308]
    x = np.concatenate((tens, switches, ties, ends))
    return np.concatenate((x, -x, nans))


def test_write_table_edge_numbers_equal_per_number_format(tmp_path):
    x = _edge_table()
    assert x.size >= cli._ARRAY_MIN
    for k in (1, 3, 12):  # one block and several, and several row widths
        columns = list(np.resize(x, (k, -(-x.size // k))))
        header = [f"c{j}" for j in range(k)]
        path = tmp_path / f"edge{k}.csv"
        cli._write_table(str(path), header, columns, "abc123")
        assert path.read_bytes() == csv_reference(header, columns, "abc123", cli.UNITS).encode()


def test_write_table_converts_large_numeric_tables_in_numpy(tmp_path, monkeypatch):
    blocks, convert = [], cli._number_words

    def counted(block, *args):
        blocks.append(block.shape)
        return convert(block, *args)

    monkeypatch.setattr(cli, "_number_words", counted)
    x, y = np.linspace(-1.0, 1.0, cli._ARRAY_MIN), np.linspace(0.0, 1.0, 2 * cli._BLOCK + 1)
    for columns, want in (([x[:-1]], 0), ([x], 1), ([y], 3), ([x, np.full(x.size, "ok")], 0)):
        blocks.clear()
        cli._write_table(str(tmp_path / "t.csv"), ["a", "b"][:len(columns)], columns, "c")
        assert len(blocks) == want
        assert all(rows * cols <= cli._BLOCK for rows, cols in blocks)


#: grid coordinates a gathered column must write as format(x, ".17g") does
_GRID_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, 0.1, 1 / 3,
                 1.0, 2.5, 1e16, 123456789.0)


def _one_block_lengths(k):
    """The most lengths nl whose one-point grid table (three GridColumns
    holding nl + 2 distinct values, then k entry columns) the first
    gathered block holds whole: 2 _BLOCK // (2k + 3) rows, of which
    ceil((nl + 2) / k) carry the distinct values."""
    rows = 2 * cli._BLOCK // (2 * k + 3)
    return max(nl for nl in range(1, rows + 1) if nl + -(-(nl + 2) // k) <= rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 60), st.integers(1, 9),
       st.booleans(), st.lists(st.sampled_from(_EDGE_NUMBERS) | st.floats(allow_nan=True),
                               max_size=12))
# below and at the size converted in numpy, a single spectral point or
# length over several blocks, and a grid of many blocks
@example(seed=1, nz=3, nl=10, k=1, lead=True, extra=[])
@example(seed=2, nz=5, nl=18, k=1, lead=True, extra=[])
@example(seed=3, nz=1, nl=700, k=9, lead=True, extra=[])
@example(seed=4, nz=700, nl=1, k=3, lead=True, extra=[])
@example(seed=5, nz=101, nl=41, k=9, lead=True, extra=[np.inf, -np.inf, np.nan])
# exactly one gathered block, and one block and a row
@example(seed=6, nz=1, nl=_one_block_lengths(9), k=9, lead=True, extra=[])
@example(seed=7, nz=1, nl=_one_block_lengths(9) + 1, k=9, lead=True, extra=[])
# more distinct grid values than half a block, read a block at a time, and
# a table of GridColumns alone
@example(seed=8, nz=1100, nl=2, k=2, lead=True, extra=[])
@example(seed=9, nz=40, nl=30, k=0, lead=True, extra=[])
def test_write_table_gathered_grid_columns_equal_materialised(tmp_path_factory, seed, nz, nl,
                                                              k, lead, extra):
    # a (z, l) grid table whose grid columns are GridColumns writes the bytes
    # of the same table with those columns materialised, whether they lead
    # the row (gathered) or not (read a block at a time)
    rng = np.random.default_rng(seed)
    grid = np.concatenate((_GRID_NUMBERS, rng.standard_normal(4)))
    zs = grid[rng.integers(0, grid.size, nz)] + 1j * grid[rng.integers(0, grid.size, nz)]
    ls = grid[rng.integers(0, grid.size, nl)]
    pool = np.concatenate((_EDGE_NUMBERS, extra, rng.standard_normal(8) * 1e3))
    n = nz * nl
    bits = rng.integers(0, 2**63, size=(k, n), dtype=np.int64) * rng.choice([1, -1], size=(k, n))
    entries = [np.where(rng.random(n) < 0.5, pool[rng.integers(0, pool.size, n)],
                        bits[j].view(float)) for j in range(k)]
    gathered = list(cli.grid_columns(zs, ls))
    columns = gathered + entries if lead else entries[:1] + gathered + entries[1:]
    plain = [c.values[c.index] if isinstance(c, cli.GridColumn) else c for c in columns]
    assert np.array_equal(plain[0 if lead else 1], np.repeat(zs.real, nl))
    assert np.array_equal(plain[2 if lead else 3], np.tile(ls, nz))
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    cli._write_table(str(path), header, columns, "abc123")
    assert path.read_bytes() == csv_reference(header, plain, "abc123", cli.UNITS).encode()


def test_write_table_converts_each_grid_coordinate_once(tmp_path, monkeypatch):
    # the entry numbers of every row and the distinct grid values once, in
    # calls of no more numbers than a plain block's
    calls, convert = [], cli._number_words

    def counted(block, *args):
        calls.append(block.size)
        return convert(block, *args)

    monkeypatch.setattr(cli, "_number_words", counted)
    zs = np.linspace(0.5 + 0.3j, 1.5 + 1j, 101)
    ls = np.linspace(0.0, 2.0, 41)
    entries = [np.sin(np.arange(zs.size * ls.size) + j) for j in range(9)]
    cli._write_table(str(tmp_path / "t.csv"), cli.FAMILY_CSV_COLUMNS,
                     (*cli.grid_columns(zs, ls), *entries), "c")
    assert sum(calls) - 9 * zs.size * ls.size < 2 * zs.size + ls.size + 9
    assert len(calls) > 1 and max(calls) <= cli._BLOCK


def test_write_table_conversion_calls_of_grid_tables(tmp_path, monkeypatch):
    # a transfer family of 100 spectral points and 21 lengths (2,100 rows of
    # 12 columns) converts in 6 calls; a one-point table that one gathered
    # block holds whole in 1, and with a row more in 2
    calls, convert = [], cli._number_words

    def counted(block, *args):
        calls.append(block.size)
        return convert(block, *args)

    monkeypatch.setattr(cli, "_number_words", counted)
    for nz, nl, want in ((100, 21, 6), (1, _one_block_lengths(9), 1),
                         (1, _one_block_lengths(9) + 1, 2)):
        zs, ls = np.linspace(-2.0 + 0.1j, 2.0 + 2.0j, nz), 0.6 * np.arange(nl)
        values = np.exp(1j * np.arange(nz * nl * 4)).reshape(nz, nl, 2, 2)
        family = prop.TransferFamily(zs, ls, values)
        calls.clear()
        cli._write_table(str(tmp_path / "t.csv"), cli.FAMILY_CSV_COLUMNS,
                         cli.family_csv_columns(family), "c")
        assert len(calls) == want, (nz, nl)


def test_in_process_calls_repeat_byte_for_byte(tmp_path, const_half, full_line):
    # one parser serves every call of the process: interleaved subcommands,
    # parse errors and option defaults leave no state behind
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "out"
    commands = {
        "transfer": ["transfer", "--input", const_half, "--zgrid=-1,0.5:1,1.5:3",
                     "--lgrid", "0:2:0.5"],
        "disks": ["disks", "--input", const_half, "--zgrid", "i", "--lgrid", "0:1:0.25"],
        "schur": ["schur", "--input", full_line, "--zgrid", "0.2,0.3:0.5,1:3"],
        "schur_minus": ["schur", "--input", full_line, "--zgrid", "0.2,0.3:0.5,1:3",
                        "--side", "minus"],
        "riccati": ["riccati", "--input", const_half, "--z", "i", "--s0", "0.9,0",
                    "--lgrid", "0:3:0.5"],
        "type": ["type", "--input", const_half, "--l", "2"],
        "reflectionless": ["reflectionless", "--input", full_line, "--xgrid=-0.5:0.5:0.25",
                           "--eps", "1e-2,1e-3", "--summary", str(out) + "_summary.json"],
        "bp": ["bp", "--input", full_line, "--e=0.9,1.4", "--arc=0.4:2.0",
               "--lladder=1,2", "--xstep=0.25"],
        "gauge": ["gauge", "--input", const_half, "--to", "arov", "--zgrid", "0.5,0.5",
                  "--lgrid", "0:1:0.25", "--params-out", str(out) + "_params.json"],
    }
    bad_file = tmp_path / "bad.json"
    bad_file.write_text('{"grid": [1.0],\n "m": [1.0,}\n')
    errors = [["transfer", "--input", const_half],  # argparse: missing options
              ["schur", "--input", full_line, "--zgrid", "i", "--side", "up"],
              ["type", "--input", str(bad_file), "--l", "1"]]  # malformed JSON

    def run(name):
        paths = [f"{out}_{name}.out"] + [a for a in commands[name] if a.startswith(str(out))]
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(commands[name] + ["--output", paths[0]]) == 0, name
        return [Path(p).read_bytes() for p in paths]

    def fail(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == 2 and "Traceback" not in err.getvalue()

    first = {name: run(name) for name in commands}
    for i, name in enumerate(reversed(list(commands))):
        fail(errors[i % len(errors)])
        assert run(name) == first[name], name  # config hash included


@settings(max_examples=150, deadline=None)
@given(coefficient_texts(), st.sampled_from([
    ["transfer", "--zgrid", "0.5,0.5:1,1:2", "--lgrid", "0:2:0.5"],
    ["schur", "--zgrid", "i"],
    ["type", "--l", "1.5"],
    ["riccati", "--z", "0.3,0.8", "--lgrid", "0:1:0.5"],
]))
@example('{"grid": [5e-324], "m": [10.70665632498279], "a": [[0.32924132458082295, '
         '-0.7273098602436584]], "tail": "periodic"}',
         ["transfer", "--zgrid", "0.5,0.5:1,1:2", "--lgrid", "0:2:0.5"])  # 4e323 periods
def test_fuzzed_files_never_raise_through_main(tmp_path_factory, text, argv):
    # valid and mutated coefficient texts: an exit code, never a traceback
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- the CLI contract on whole tables and unreadable numbers -----------------------

def _is_17g(token):
    return token == format(float(token), ".17g")


@pytest.mark.parametrize("argv, n_rows", [
    (["transfer", "--zgrid", "0,0.5:1,1.5:60", "--lgrid", "0:2:0.01"], 60 * 201),
    (["gauge", "--to", "arov", "--zgrid", "0.5,0.3:1.5,1:60", "--lgrid", "0:2:0.01"], 61 * 201),
    (["disks", "--zgrid=-1,0.5:1,1.5:60", "--lgrid", "0:2:0.01"], 60 * 201),
    (["schur", "--zgrid=-1,0.05:1,2:100"], 100),
], ids=["transfer", "gauge", "disks", "schur"])
def test_whole_tables_print_every_number_as_17g(tmp_path, const_half, full_line, argv, n_rows):
    # grid columns converted once per distinct value, over many gathered
    # blocks, and a table with no grid column: each number is the bytes of
    # format(x, ".17g")
    out = tmp_path / "t.csv"
    path = full_line if argv[0] == "schur" else const_half
    assert cli.main(argv + ["--input", path, "--output", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == n_rows
    assert all(_is_17g(f) for row in rows for f in row.split(","))


def test_recovered_parameters_print_every_number_as_17g_and_load_back(tmp_path, const_half):
    # every array number of --params-out is the bytes of format(x, ".17g")
    # or JSON's -0.0, NaN, Infinity, -Infinity, and the file is a
    # coefficient file: type runs on it, and m = 1, a = 0.5 to 1e-9
    params = tmp_path / "params.json"
    assert cli.main(["gauge", "--input", const_half, "--to", "arov",
                     "--zgrid", "0.5,0.3:1.5,1:60", "--lgrid", "0:2:0.01",
                     "--output", str(tmp_path / "g.csv"), "--params-out", str(params)]) == 0
    lines = [line.split(": ", 1) for line in params.read_text().splitlines()[1:-1]]
    tokens = [t for key, value in lines
              if key.strip().strip('"') in ("grid", "m", "a", "kappa", "mu")
              for t in re.split(r"[][, ]+", value) if t]
    assert len(tokens) == 1403
    assert all(t in ("-0.0", "NaN", "Infinity", "-Infinity") or _is_17g(t) for t in tokens)
    assert cli.main(["type", "--input", str(params), "--l", "1",
                     "--output", str(tmp_path / "type.json")]) == 0
    payload = json.loads(params.read_text())
    assert max(abs(m - 1.0) for m in payload["m"]) <= 1e-9
    assert max(abs(complex(*a) - 0.5) for a in payload["a"]) <= 1e-9


_DIGITS = "1" * 400


@pytest.mark.parametrize("text, code, error", [
    ('{"grid": [1.0], "m": [NaN], "a": [0.5]}', 3, "CoefficientError"),
    ('{"grid": [1.0], "m": [1e999], "a": [0.5]}', 3, "CoefficientError"),
    (f'{{"grid": [1.0], "m": [{_DIGITS}], "a": [0.5]}}', 3, "CoefficientError"),
    (f'{{"grid": [{_DIGITS}], "m": [1.0], "a": [0.5]}}', 3, "CoefficientError"),
    (f'{{"grid": [1.0], "m": [1.0], "a": [[0.5, {_DIGITS}]]}}', 3, "CoefficientError"),
    ('{"grid": [1.0], "m": [true], "a": [0.5]}', 2, "ParseError"),
], ids=["NaN in m", "1e999 in m", "400 digits in m", "400 digits in grid",
        "400 digits in an a pair", "true in m"])
def test_numbers_no_float_holds_exit_with_one_json_line(tmp_path, capsys, text, code, error):
    # read by json.loads, not orjson: a validation or parse error, one line
    path = tmp_path / "p.json"
    path.write_text(text)
    assert cli.main(["type", "--input", str(path), "--l", "1"]) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("text, sigma", [
    ('{"grid": [1.0], "m": [1.0], "a": [0.5], "note": null}', 0.75 ** 0.5),
    ('{"grid": [1.0], "m": [5.0], "a": [0.5], "m": [2.0]}', 3.0 ** 0.5),
], ids=["null beside the arrays", "duplicate key"])
def test_files_json_reads_run_as_json_reads_them(tmp_path, text, sigma):
    # a null is read by json.loads and runs; of a duplicate key the last
    # value wins, as in json.load (m = 2, not 5)
    path, out = tmp_path / "p.json", tmp_path / "type.json"
    path.write_text(text)
    assert cli.main(["type", "--input", str(path), "--l", "1", "--output", str(out)]) == 0
    assert abs(json.loads(out.read_text())["sigma_integral"] - sigma) <= 1e-12


def test_a_missing_bracket_in_a_long_file_is_named_where_json_names_it(tmp_path, capsys):
    # a 2,000-interval file with one "]" missing inside a: one JSON line
    # naming the line and column json.load names
    n = 2000
    text = json.dumps({"grid": [0.01 * (k + 1) for k in range(n)], "m": [1.0] * n,
                       "a": [[0.25, -0.125]] * n}, indent=1)
    i = text.index("]", text.index('"a"') + 20 * n)
    text = text[:i] + text[i + 1:]
    with pytest.raises(json.JSONDecodeError) as plain:
        json.loads(text)
    path = tmp_path / "cut.json"
    path.write_text(text)
    assert cli.main(["type", "--input", str(path), "--l", "1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"line {plain.value.lineno}, column {plain.value.colno}:" in json.loads(err)["message"]


def test_escape_row_lies_outside_the_disk(tmp_path, const_half):
    out = tmp_path / "escape.csv"
    assert cli.main(["riccati", "--input", const_half, "--z=0.3,0.5", "--s0=0.5,0.2",
                     "--lgrid", "0:10:0.25", "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    last = rows[-1]
    assert last[header.index("status")] == "escaped"
    assert abs(complex(float(last[header.index("s_re")]), float(last[header.index("s_im")]))) > 1.0


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_schur_on_a_full_line_file_is_certified_at_round_off(tmp_path, full_line, side):
    from arvcanon.weyl import SCHUR_TOL

    out = tmp_path / "schur.csv"
    assert cli.main(["schur", "--input", full_line, "--side", side, "--zgrid=-1,0.05:1,2:40",
                     "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert len(rows) == 40
    assert all(float(row[header.index("residual_radius")]) <= SCHUR_TOL for row in rows)

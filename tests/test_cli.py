import json

import numpy as np
import pytest

from arvcanon import cli, constant_parameters, riccati_fixed_point, save_parameters


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
                     "--tol", "1e-12", "--output", str(out)]) == 0
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


def test_removed_options_are_parse_errors(const_half, capsys):
    for argv in (["riccati", "--z", "0.3,0.5", "--lgrid", "0:1:0.5", "--step", "0.1"],
                 ["schur", "--zgrid", "i", "--lmax", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--input", const_half])
        assert exc.value.code == 2
    capsys.readouterr()


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

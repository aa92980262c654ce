"""Command-line driver: exit codes, stdout shapes, JSON side files.

Everything runs in-process through ``main(argv)`` so coverage tools see it
and failures give real tracebacks instead of a subprocess returncode.
"""

import json

import pytest

from affopers import cli, miura
from affopers.cli import main
from affopers.coeffs import Scalar
from affopers.contour import Contour, pochhammer
from affopers.integrate import twisted_integral
from affopers.miura import MiuraData, build_miura
from affopers.oper_core import quasi_canonicalize

# Two regular points with opposite first coordinates and unit levels; the
# single color-1 Bethe equation then has the closed-form root w = 3/2.
A1_POINTS = [
    {"z": "0", "weight": {"lambda_dot": ["1/2"], "level": "1", "delta": "0"}},
    {"z": "1", "weight": {"lambda_dot": ["-1/2"], "level": "1", "delta": "0"}},
]


def write_model(path, roots, points=A1_POINTS):
    blob = {
        "algebra": {"type": "A", "rank": 1, "cutoff": 5},
        "points": points,
        "bethe_roots": roots,
    }
    path.write_text(json.dumps(blob))
    return blob


# --------------------------------------------------------------- bethe-check


def test_on_shell_model_exits_zero(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, [{"w": "3/2", "color": 1}])
    assert main(["bethe-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ON SHELL" in out
    assert "regular" in out


def test_off_shell_model_exits_one(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, [{"w": "17/10", "color": 1}])
    assert main(["bethe-check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "OFF SHELL" in out
    assert "obstructed" in out
    assert "-20/119" in out  # the exact master-function partial


def test_no_roots_is_trivially_on_shell(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, [])
    assert main(["bethe-check", str(path)]) == 0
    assert "trivially on shell" in capsys.readouterr().out


def test_bethe_check_json_report(tmp_path):
    path = tmp_path / "model.json"
    write_model(path, [{"w": "17/10", "color": 1}])
    report = tmp_path / "report.json"
    assert main(["bethe-check", str(path), "--json", str(report)]) == 1
    rep = json.loads(report.read_text())
    assert rep["on_shell"] is False
    (row,) = rep["roots"]
    assert row["w"] == "17/10"
    assert row["color"] == 1
    assert row["residual"] == "-20/119"
    assert row["regular"] is False
    assert row["max_pole_order"] >= 2


def test_model_without_algebra_block_is_inferred(tmp_path, capsys):
    # rank and a default cutoff are read off the weight coordinates
    blob = {
        "points": [{"z": "0",
                    "weight": {"lambda_dot": ["1"], "level": "2",
                               "delta": "0"}}],
        "bethe_roots": [{"w": "1/2", "color": 1}],
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(blob))
    assert main(["bethe-check", str(path)]) == 1
    assert "OFF SHELL" in capsys.readouterr().out


# --------------------------------------------------------------- make-contour


def test_make_contour_matches_library_builder(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, [])
    assert main(["make-contour", "--model", str(path),
                 "--pochhammer", "0,1", "--radius", "1/4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == pochhammer((0.0, 1.0), radius=0.25).to_json()
    contour = Contour.from_json(blob)
    assert contour.is_closed
    assert contour.basepoint == 0.5


# the keys an earlier make-contour wrote beside the segments of the
# Pochhammer cycle around points 1 and 0; they are ignored on reading
_EARLIER_KEYS = {"basepoint": [0.5, 0.0],
                 "windings": [[[1.0, 0.0], 0], [[0.0, 0.0], 0]]}


def test_make_contour_out_file_is_loadable(tmp_path, capsys):
    # levels of no symmetry, so that the period does not vanish
    path = tmp_path / "model.json"
    blob = write_model(path, [], points=[
        {"z": "0", "weight": {"lambda_dot": ["1/2"], "level": "1/2"}},
        {"z": "1", "weight": {"lambda_dot": ["-1/3"], "level": "1/3"}}])
    cpath = tmp_path / "contour.json"
    assert main(["make-contour", "--model", str(path),
                 "--pochhammer", "1,0", "--out", str(cpath)]) == 0
    assert capsys.readouterr().out == ""
    written = json.loads(cpath.read_text())
    assert list(written) == ["segments"]
    contour = Contour.from_json(written)
    assert contour.is_closed
    assert len(contour.segments) == 12
    # the file integrates to the in-process period, bit for bit
    d = MiuraData.from_json(blob)
    want = twisted_integral(d, quasi_canonicalize(build_miura(d)), 1,
                            pochhammer((1, 0)))
    assert abs(want.value) > 0.1
    for extra in ({}, _EARLIER_KEYS):
        cpath.write_text(json.dumps({**written, **extra}))
        assert main(["integrate", "--model", str(path), "--contour",
                     str(cpath), "--exponent", "1"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert json.dumps(got) == json.dumps(want.to_json())


def test_make_contour_rejects_bad_indices(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, [])
    assert main(["make-contour", "--model", str(path),
                 "--pochhammer", "0,9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["make-contour", "--model", str(path),
                 "--pochhammer", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    # a negative index must not wrap around to the last point
    for pair in ("-1,0", "0,-2"):
        assert main(["make-contour", "--model", str(path),
                     f"--pochhammer={pair}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0..1" in captured.err


@pytest.mark.parametrize("option, value", [
    ("--radius", "1/0"), ("--basepoint", "1/0"), ("--basepoint", "0.5,1/0"),
])
def test_make_contour_rejects_a_zero_denominator(tmp_path, capsys, option,
                                                 value):
    path = tmp_path / "model.json"
    write_model(path, [])
    assert main(["make-contour", "--model", str(path), "--pochhammer", "0,1",
                 option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: zero denominator in {value!r}\n"


@pytest.mark.parametrize("option", ["--radius", "--basepoint"])
@pytest.mark.parametrize("value", ["", " "], ids=["empty", "blank"])
def test_make_contour_rejects_an_empty_value(tmp_path, capsys, option,
                                             value):
    # an empty value is refused, not read as the option left out
    path = tmp_path / "model.json"
    write_model(path, [])
    assert main(["make-contour", "--model", str(path), "--pochhammer", "0,1",
                 f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: empty value\n"


# ------------------------------------------------------------------ integrate


def test_integrate_stdout_matches_library(tmp_path, capsys):
    mpath = tmp_path / "model.json"
    blob = write_model(mpath, [{"w": "3/2", "color": 1}])
    cpath = tmp_path / "contour.json"
    assert main(["make-contour", "--model", str(mpath),
                 "--pochhammer", "0,1", "--out", str(cpath)]) == 0
    assert main(["integrate", "--model", str(mpath),
                 "--contour", str(cpath), "--exponent", "1"]) == 0
    got = json.loads(capsys.readouterr().out)

    d = MiuraData.from_json(blob)
    contour = Contour.from_json(json.loads(cpath.read_text()))
    want = twisted_integral(d, quasi_canonicalize(build_miura(d)), 1, contour)
    assert got["valid"] is True
    assert got["value"] == [want.value.real, want.value.imag]
    assert got["err"] == want.err
    assert got["segments"] == 12


def test_integrate_out_file(tmp_path, capsys):
    mpath = tmp_path / "model.json"
    write_model(mpath, [{"w": "3/2", "color": 1}])
    cpath = tmp_path / "contour.json"
    main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
          "--out", str(cpath)])
    ipath = tmp_path / "integral.json"
    assert main(["integrate", "--model", str(mpath), "--contour", str(cpath),
                 "--exponent", "1", "--out", str(ipath)]) == 0
    assert capsys.readouterr().out == ""
    res = json.loads(ipath.read_text())
    assert set(res) == {"value", "err", "multiplier", "segments", "panels",
                        "valid"}


def test_integrate_rejects_missing_exponent(tmp_path, capsys):
    # the cutoff-5 canonical form carries coefficients at 1, 3, 5 only
    mpath = tmp_path / "model.json"
    write_model(mpath, [])
    cpath = tmp_path / "contour.json"
    main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
          "--out", str(cpath)])
    assert main(["integrate", "--model", str(mpath), "--contour", str(cpath),
                 "--exponent", "7"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_integrate_rejects_bad_tolerance(tmp_path, capsys, tol):
    mpath = tmp_path / "model.json"
    write_model(mpath, [])
    cpath = tmp_path / "contour.json"
    main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
          "--out", str(cpath)])
    capsys.readouterr()
    assert main(["integrate", "--model", str(mpath), "--contour", str(cpath),
                 "--exponent", "1", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be a finite number >= 0" in captured.err


def test_integrate_names_an_overflowing_integrand(tmp_path, capsys):
    # levels 1 and 2 at 0 and 1: v_3 has poles of order 4 there, whose
    # powers overflow the float range on a path near 1e110
    mpath = tmp_path / "model.json"
    points = [{"z": z, "weight": {"lambda_dot": [w], "level": k,
                                  "delta": "0"}}
              for z, w, k in (("0", "1/2", "1"), ("1", "-1/2", "2"))]
    write_model(mpath, [], points)
    cpath = tmp_path / "contour.json"
    cpath.write_text(json.dumps({"segments": [
        {"kind": "line", "from": [1e110, 0], "to": [2e110, 0]}]}))
    assert main(["integrate", "--model", str(mpath), "--contour", str(cpath),
                 "--exponent", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the float range" in captured.err


# --------------------------------------------------------------------- verify


def test_verify_suite_writes_report(tmp_path, capsys):
    report = tmp_path / "verify.json"
    assert main(["verify", "--suite", "algebra", "--seed", "3",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "overall:" in out
    rep = json.loads(report.read_text())
    assert rep["passed"] is True
    assert rep["suite"] == "algebra"
    assert rep["seed"] == 3
    assert rep["checks"] and all(c["passed"] for c in rep["checks"])


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------- error paths


def test_missing_model_file(tmp_path, capsys):
    assert main(["bethe-check", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_directory_paths_are_error_exits(tmp_path, capsys):
    # any OSError on an input or output path exits 2 with a message
    path = tmp_path / "model.json"
    write_model(path, [{"w": "3/2", "color": 1}])
    for argv in (["bethe-check", str(tmp_path)],
                 ["bethe-check", str(path), "--json", str(tmp_path)],
                 ["make-contour", "--model", str(path), "--pochhammer", "0,1",
                  "--out", str(tmp_path)],
                 ["make-contour", "--model", str(tmp_path),
                  "--pochhammer", "0,1"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv
        assert "Traceback" not in err


def test_output_beyond_the_digit_limit_names_its_field(tmp_path, capsys,
                                                       monkeypatch):
    # the root itself has 4300 digits and prints; the residual's
    # denominator has about twice as many, which shows before any reduction
    path = tmp_path / "model.json"
    write_model(path, [{"w": "1e4299", "color": 1}])

    def reduction(*_args, **_kwargs):
        raise AssertionError("a reduction ran")

    monkeypatch.setattr(cli, "regularity_check", reduction)
    assert main(["bethe-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: root 1: the residual has an integer of "
                            "more than 4300 digits, too many to print\n")


def test_route_disagreement_is_an_error_exit(tmp_path, capsys, monkeypatch):
    path = tmp_path / "model.json"
    write_model(path, [{"w": "3/2", "color": 1}])
    monkeypatch.setattr(miura, "_coroot_pairing_at",
                        lambda conn, data, j: Scalar.exact(5))
    assert main(["bethe-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: root 1: scalar criterion disagrees")
    assert "Traceback" not in err


def test_unsupported_algebra_type(tmp_path, capsys):
    path = tmp_path / "model.json"
    blob = write_model(path, [])
    blob["algebra"] = {"type": "B", "rank": 2, "cutoff": 5}
    path.write_text(json.dumps(blob))
    assert main(["bethe-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'B'" in err
    assert "Traceback" not in err


def test_point_without_position(tmp_path, capsys):
    path = tmp_path / "model.json"
    points = [dict(A1_POINTS[0]), {"weight": A1_POINTS[1]["weight"]}]
    write_model(path, [], points=points)
    assert main(["bethe-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'z'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bethe-check", "integrate"])
@pytest.mark.parametrize("field, value, bound", [
    ("cutoff", 41, 40), ("rank", 9, 8), ("cutoff", 40, None),
])
def test_model_size_bounds(tmp_path, capsys, monkeypatch, command, field,
                           value, bound):
    mpath = tmp_path / "model.json"
    write_model(mpath, [{"w": "3/2", "color": 1}])
    cpath = tmp_path / "contour.json"
    assert main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
                 "--out", str(cpath)]) == 0
    blob = json.loads(mpath.read_text())
    blob["algebra"][field] = value
    rank = blob["algebra"]["rank"]
    for p in blob["points"]:
        lam = p["weight"]["lambda_dot"]
        p["weight"]["lambda_dot"] = lam + ["0"] * (rank - len(lam))
    mpath.write_text(json.dumps(blob))
    capsys.readouterr()

    def reduction(*_args, **_kwargs):
        raise AssertionError("a reduction ran")

    monkeypatch.setattr(cli, "quasi_canonicalize", reduction)
    monkeypatch.setattr(cli, "regularity_check", reduction)
    argv = ([command, str(mpath)] if command == "bethe-check" else
            [command, "--model", str(mpath), "--contour", str(cpath),
             "--exponent", "1"])
    if bound is None:  # at the bound the model reaches the reduction
        with pytest.raises(AssertionError, match="a reduction ran"):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} {value} exceeds the bound {bound}")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("cutoff", 3.7), ("cutoff", True), ("cutoff", "x"), ("rank", 1.0),
    ("basis_seed", "x"),
])
def test_non_integer_algebra_field(tmp_path, capsys, field, value):
    path = tmp_path / "model.json"
    blob = write_model(path, [{"w": "3/2", "color": 1}])
    blob["algebra"][field] = value
    path.write_text(json.dumps(blob))
    assert main(["bethe-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be an integer, got ")
    assert repr(value) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bethe-check", "integrate"])
@pytest.mark.parametrize("blob, message", [
    ([1, 2], "model JSON must be an object, got [1, 2]"),
    ({"points": [["0", ["1"], "1", "0"]]},
     "model JSON: point 1 must be an object"),
    ({"points": [{"z": "0", "weight": ["1"]}]},
     "model JSON: point 1 weight must be an object, got ['1']"),
    ({"points": [{"z": "0", "weight": {"lambda_dot": "12"}}]},
     "model JSON: point 1 weight: 'lambda_dot' must be a list, got '12'"),
    ({"points": 3}, "model JSON: 'points' must be a list, got 3"),
    ({"algebra": [1], "points": []},
     "model JSON: 'algebra' must be an object, got [1]"),
    ({"points": [{"z": "1/0", "weight": {"lambda_dot": ["1"]}}]},
     "model JSON: point 1 z: zero denominator in '1/0'"),
    ({"points": [{"z": "0", "weight": {"lambda_dot": ["1"]}}],
      "bethe_roots": [{"w": "2", "color": [1]}]},
     "model JSON: root 1: 'color' must be an integer, got [1]"),
    # refused as the same number written out is, before any reduction
    ({"points": [{"z": "0", "weight": {"lambda_dot": ["1"]}}],
      "bethe_roots": [{"w": "1e5000", "color": 1}]},
     "model JSON: root 1 w: the exponent of '1e5000' makes an integer of "
     "5001 digits, above the limit of 4300\n"),
], ids=["top-list", "point-list", "weight-list", "lambda-string",
        "points-int", "algebra-list", "zero-denominator", "color-list",
        "exponent-digits"])
def test_malformed_model_json(tmp_path, capsys, command, blob, message):
    mpath = tmp_path / "model.json"
    write_model(mpath, [])
    cpath = tmp_path / "contour.json"
    assert main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
                 "--out", str(cpath)]) == 0
    mpath.write_text(json.dumps(blob))
    capsys.readouterr()
    argv = ([command, str(mpath)] if command == "bethe-check" else
            [command, "--model", str(mpath), "--contour", str(cpath),
             "--exponent", "1"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("blob, message", [
    ([1], "contour JSON must be an object, got [1]"),
    ({"segments": [1, 2]}, "segment 1 must be an object, got 1"),
    ({}, "contour JSON: 'segments' must be a list, got None"),
    ({"segments": [{"kind": "line", "from": "0"}]},
     "segment 1 lacks the key 'to'"),
    ({"segments": [{"kind": "arc", "center": "0", "radius": "1",
                    "from_angle": [1], "to_angle": 0}]}, "segment 1: "),
    ({"segments": [{"kind": "line", "from": "1/0", "to": "1"}]},
     "segment 1: cannot read '1/0' as a position"),
    # sweeps that ran unbounded or hit the panel budget after seconds
    ({"segments": [{"kind": "arc", "center": "0", "radius": "1/2",
                    "from_angle": 0, "to_angle": 1e300}]},
     "segment 1: arc sweep |'to_angle' - 'from_angle'| = 1e+300 exceeds "
     "64 turns"),
    ({"segments": [{"kind": "arc", "center": "0", "radius": "1/2",
                    "from_angle": 0, "to_angle": 1e6}]},
     "segment 1: arc sweep |'to_angle' - 'from_angle'| = 1e+06 exceeds "
     "64 turns"),
    # the JSON number 1e400 reads as an infinite float
    ('{"segments": [{"kind": "line", "from": 1e400, "to": "1"}]}',
     "segment 1: 'from' must be finite, got (inf+0j)"),
], ids=["top-list", "segment-int", "no-segments", "missing-key",
        "angle-list", "zero-denominator", "huge-sweep",
        "long-sweep", "infinite-position"])
def test_malformed_contour_json(tmp_path, capsys, blob, message):
    mpath = tmp_path / "model.json"
    write_model(mpath, [])
    cpath = tmp_path / "contour.json"
    cpath.write_text(blob if isinstance(blob, str) else json.dumps(blob))
    assert main(["integrate", "--model", str(mpath), "--contour", str(cpath),
                 "--exponent", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["make-contour", "--pochhammer", "0,1", "--radius", "1e400"],
    ["make-contour", "--pochhammer", "0,1", "--basepoint", "1e400"],
    ["integrate", "--exponent", "1"],
], ids=["radius", "basepoint", "root"])
def test_value_beyond_float_range(tmp_path, capsys, argv):
    # exact, finite, and too large for the float the quadrature needs
    mpath = tmp_path / "model.json"
    write_model(mpath, [])
    cpath = tmp_path / "contour.json"
    assert main(["make-contour", "--model", str(mpath), "--pochhammer", "0,1",
                 "--out", str(cpath)]) == 0
    write_model(mpath, [{"w": "1e400", "color": 1}])
    capsys.readouterr()
    extra = ["--contour", str(cpath)] if argv[0] == "integrate" else []
    assert main(argv[:1] + ["--model", str(mpath)] + extra + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1E+400 is beyond the float range\n"


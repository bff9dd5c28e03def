"""End-to-end CLI coverage, driven in-process through run()."""

import contextlib
import gc
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualbern
from dualbern.bernstein import Interval, uniform_grid
from dualbern.cli import run
from dualbern.subspace import bernstein_embedding, dual_basis, dual_basis_eval, make_selection


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_elevate_json_golden(capsys):
    rc, out, err = invoke(capsys, "elevate", "--m", "1", "--n", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"rows": 3, "cols": 2, "entries": ["1", "0", "1/2", "1/2", "0", "1"]}


def test_elevate_csv(capsys):
    rc, out, _ = invoke(capsys, "elevate", "--m", "1", "--n", "2", "--format", "csv")
    assert rc == 0
    assert out == "1,0\n1/2,1/2\n0,1\n"


def test_elevate_rejects_m_greater_n(capsys):
    rc, out, err = invoke(capsys, "elevate", "--m", "3", "--n", "2")
    assert rc == 2
    assert "error:" in err


def test_dual_basis_symmetric_golden(capsys):
    rc, out, _ = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["s"] == [0, 2, 4]
    assert obj["dual_check"] is True
    assert obj["A"]["entries"] == ["1", "0", "0", "-1/4", "3/2", "-1/4", "0", "0", "1"]


def test_dual_basis_explicit_selection(capsys):
    rc, out, _ = invoke(capsys, "dual-basis", "--m", "1", "--n", "2", "--selection", "0,1")
    assert rc == 0
    assert json.loads(out)["A"]["entries"] == ["1", "0", "-1", "2"]


def test_dual_basis_power_singular_selection(capsys):
    rc, out, _ = invoke(
        capsys,
        "dual-basis", "--m", "2", "--n", "4", "--selection", "0,1,3", "--basis", "power",
    )
    assert rc == 3
    obj = json.loads(out)
    assert obj["error"] == "singular"
    assert "message" in obj


def test_rational_endpoints_are_exact(capsys):
    _, on_unit, _ = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2")
    rc, out, err = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2",
                          "--a", "1/3", "--b", "2")
    assert (rc, err) == (0, "")
    assert json.loads(out)["A"] == json.loads(on_unit)["A"]
    rc, out, _ = invoke(capsys, "operator", "--which", "bernop", "--m", "2", "--symmetric",
                        "--k", "2", "--fn", "sin", "--a", "1/3", "--b", "2")
    assert rc == 0
    assert json.loads(out)["sup_error"] <= json.loads(out)["bound"]


def test_negative_values_parse_with_or_without_equals(capsys, tmp_path):
    rc, out, _ = invoke(capsys, "operator", "--which", "bernop", "--m", "2", "--symmetric",
                        "--k", "2", "--fn", "sin", "--a=-1e3", "--b=-1/2")
    assert rc == 0
    assert json.loads(out)["bound_kind"] == "C0-modulus"
    # a value after a space that argparse alone would read as an option
    dual = ("dual-basis", "--m", "2", "--symmetric", "--k", "2")
    for a, b in (("-1e5", "1e-3"), ("-7/3", "1e3"), ("-1", "-1/2"), ("-1.5", "-1e-3")):
        joined = invoke(capsys, *dual, f"--a={a}", f"--b={b}")
        assert joined[0] == 0, (a, b)
        assert invoke(capsys, *dual, "--a", a, "--b", b) == joined, (a, b)
    plot = ("plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2")
    files = []
    for coeffs in (["--coeffs=-1,2,0"], ["--coeffs", "-1,2,0"]):
        out = tmp_path / f"p{len(files)}.svg"
        assert invoke(capsys, *plot, *coeffs, "--out", str(out)) == (0, "", "")
        files.append((out.read_text(), out.with_suffix(".csv").read_text()))
    assert files[0] == files[1]
    # a value that is truly missing is still a usage error
    for tail, option in ((("--a",), "--a"), (("--a", "--b", "1"), "--a"), (("--b", "--"), "--b"),
                         (("--a", "0", "--b"), "--b")):
        rc, out, err = invoke(capsys, *dual, *tail)
        assert (rc, out, err) == (2, "", f"error: argument {option}: expected one argument\n"), tail


def test_options_are_spelled_in_full(capsys, tmp_path):
    # an abbreviated option is unknown, whatever its value's sign, so a value
    # after a space never depends on whether the name was spelled in full
    plot = ("plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2")
    out = str(tmp_path / "q.svg")
    for value in ("1,2,0", "-1,2,0"):
        assert invoke(capsys, *plot, "--coeff", value, "--out", out) == (
            2, "", f"error: unrecognized arguments: --coeff {value}\n"), value
    assert not (tmp_path / "q.svg").exists()
    assert invoke(capsys, *plot, "--coeffs", "-1,2,0", "--out", out) == (0, "", "")
    assert (tmp_path / "q.svg").exists()
    rc, _, err = invoke(capsys, "dual-basis", "--m", "2", "--sym", "--k", "2")
    assert (rc, err) == (2, "error: unrecognized arguments: --sym\n")


@pytest.mark.parametrize("text", ["1/0", "nan/1", "1e3/2"])
def test_bad_rational_endpoint_is_a_usage_error(capsys, text):
    rc, out, err = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2",
                          "--a", text)
    assert (rc, out) == (2, "")
    assert err == f"error: not a number: {text!r}\n"


def test_dual_basis_symmetric_needs_k(capsys):
    rc, _, err = invoke(capsys, "dual-basis", "--m", "2", "--symmetric")
    assert rc == 2
    assert "error:" in err


def test_dual_basis_symmetric_rejects_inconsistent_n(capsys):
    rc, _, err = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2", "--n", "5")
    assert rc == 2
    assert "n = m*k" in err


def test_dual_basis_bad_selection_indices(capsys):
    rc, _, err = invoke(capsys, "dual-basis", "--m", "2", "--n", "4", "--selection", "0,2,2")
    assert rc == 2


_POLYGON = ("plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2", "--out", "{out}/p.svg")
USAGE_ERRORS = [
    (("dual-basis", "--m", "0", "--symmetric", "--k", "2"), "--m must be >= 1"),
    (("dual-basis", "--m", "2", "--symmetric", "--k", "2", "--n", "4", "--selection", "0,2,4"),
     "--symmetric and --selection are mutually exclusive"),
    (("dual-basis", "--m", "2", "--n", "4"), "need --selection i0,i1,... or --symmetric --k K"),
    (("dual-basis", "--m", "2", "--selection", "0,2,4"), "--selection needs --n"),
    (("dual-basis", "--m", "2", "--n", "4", "--selection", "0,x,4"), "bad --selection '0,x,4'"),
    (("elevate", "--m", "2", "--n", "-1"), "degrees must be nonnegative"),
    (("convergence", "--m", "0", "--k", "3"), "--m must be >= 1"),
    (_POLYGON, "plot --kind polygon needs --coeffs c0,c1,...,cm"),
    ((*_POLYGON, "--coeffs", "1,x,2"), "bad --coeffs '1,x,2'"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[m for _, m in USAGE_ERRORS])
def test_usage_errors_name_the_argument(capsys, tmp_path, argv, message):
    argv = [a.replace("{out}", str(tmp_path)) for a in argv]
    assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # no SVG, no CSV sidecar


@pytest.mark.parametrize("argv", [
    ("elevate", "--m", "2", "--n", "5"),
    ("elevate", "--m", "2", "--n", "5", "--format", "csv"),
    ("dual-basis", "--m", "2", "--symmetric", "--k", "3"),
    ("convergence", "--m", "2", "--k", "3"),
    ("operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2", "--fn", "sin"),
], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_out_file_holds_the_bytes_stdout_gets(capsys, tmp_path, argv):
    rc, printed, err = invoke(capsys, *argv)
    assert (rc, err) == (0, "") and printed.endswith("\n")
    out = tmp_path / "out.txt"
    assert invoke(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == printed.encode()


def test_convergence_csv(capsys):
    rc, out, _ = invoke(capsys, "convergence", "--m", "2", "--k", "4", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,sup_dist,scaled_mat_dist"
    assert len(lines) == 5
    sups = [float(line.split(",")[1]) for line in lines[1:]]
    assert sups[0] == pytest.approx(0.5)
    assert sups == sorted(sups, reverse=True)


def test_convergence_json(capsys):
    rc, out, _ = invoke(capsys, "convergence", "--m", "2", "--k", "2", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == [1, 2]
    assert rows[1]["sup_dist"] == pytest.approx(0.25)


def test_plot_basis(tmp_path, capsys):
    out = tmp_path / "basis.svg"
    rc, _, _ = invoke(
        capsys,
        "plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
        "--grid", "11", "--out", str(out),
    )
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert "<!-- dualbern svg v1 -->" in svg
    assert "polyline" in svg
    sidecar = tmp_path / "basis.csv"
    lines = sidecar.read_text().strip().split("\n")
    assert lines[0] == "t,D0,D1,D2"
    assert len(lines) == 12
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        assert sum(vals[1:]) == pytest.approx(1.0, abs=1e-12)


def test_plot_basis_cells_are_dual_basis_eval(tmp_path, capsys):
    # 17 significant digits round-trip, so every cell is the library value itself
    out = tmp_path / "basis.svg"
    args = ("--m", "3", "--n", "7", "--selection", "0,2,5,7", "--a", "1", "--b", "3")
    rc, _, _ = invoke(capsys, "plot", "--kind", "basis", *args, "--grid", "41", "--out", str(out))
    assert rc == 0
    db = dual_basis(bernstein_embedding(3, 7), make_selection(3, 7, (0, 2, 5, 7)), Interval(1, 3))
    ts = uniform_grid(db.interval, 41).tolist()
    rows = [line.split(",") for line in (tmp_path / "basis.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == ts
    for t, row in zip(ts, rows):
        assert [float(x) for x in row[1:]] == [dual_basis_eval(db, i, t) for i in range(4)]


def test_plot_polygon(tmp_path, capsys):
    out = tmp_path / "poly.svg"
    rc, _, _ = invoke(
        capsys,
        "plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2",
        "--coeffs", "0,1,0", "--grid", "5", "--out", str(out),
    )
    assert rc == 0
    rows = (tmp_path / "poly.csv").read_text().strip().split("\n")
    assert rows[0] == "kind,x,y"
    transformed = [r.split(",") for r in rows if r.startswith("transformed,")]
    assert len(transformed) == 3
    mid = transformed[1]
    assert float(mid[1]) == pytest.approx(0.5)
    assert float(mid[2]) == pytest.approx(1.5)  # middle ordinate was amplified by A
    kinds = {r.split(",")[0] for r in rows[1:]}
    assert kinds == {"original", "transformed", "curve"}


@pytest.mark.parametrize("argv", [
    ("--kind", "basis", "--m", "3", "--symmetric", "--k", "2", "--grid", "101"),
    ("--kind", "polygon", "--m", "4", "--symmetric", "--k", "3", "--coeffs", "0,1,0,2,1"),
])
def test_plot_y_range_spans_every_curve(tmp_path, capsys, argv):
    # the data y range of all curves together fills the frame less a 5% pad at
    # each end (rows 20..560 of the 600-pixel image), whichever curve holds
    # the extremes
    out = tmp_path / "plot.svg"
    rc, _, _ = invoke(capsys, "plot", *argv, "--out", str(out))
    assert rc == 0
    ys = [float(pt.split(",")[1])
          for points in re.findall(r'<polyline [^>]*points="([^"]*)"', out.read_text())
          for pt in points.split()]
    assert (min(ys), max(ys)) == (44.545, 535.455)


def test_plot_needs_out(capsys):
    rc, _, err = invoke(capsys, "plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2")
    assert rc == 2
    assert "--out" in err


def test_plot_polygon_needs_matching_coeffs(tmp_path, capsys):
    rc, _, err = invoke(
        capsys,
        "plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2",
        "--coeffs", "0,1", "--out", str(tmp_path / "p.svg"),
    )
    assert rc == 2


def test_plot_rejects_nonfinite_input(tmp_path, capsys):
    out = tmp_path / "p.svg"
    for extra in (("--coeffs", "nan,1"), ("--coeffs", "1,inf"), ("--coeffs", "0,1", "--b", "inf")):
        rc, _, err = invoke(
            capsys,
            "plot", "--kind", "polygon", "--m", "1", "--symmetric", "--k", "1",
            *extra, "--out", str(out),
        )
        assert rc == 2
        assert "error:" in err and "finite" in err
        assert not out.exists()


def test_plot_rejects_unplottable_values(tmp_path, capsys):
    # A . alpha overflows; a y range wider than the float maximum; a flat
    # y range that the +-1 padding cannot widen at 1e308
    out = tmp_path / "p.svg"
    for m, coeffs, msg in (
        (2, "-1e308,1e308,-1e308", "not finite"),
        (1, "1e308,-1e308", "scale"),
        (1, "1e308,1e308", "scale"),
    ):
        rc, _, err = invoke(
            capsys,
            "plot", "--kind", "polygon", "--m", str(m), "--symmetric", "--k", str(m),
            f"--coeffs={coeffs}", "--grid", "2", "--out", str(out),
        )
        assert rc == 2
        assert err.startswith("error:") and msg in err
        assert list(tmp_path.iterdir()) == []


def test_plot_overflow_stderr_is_only_the_error_line(tmp_path):
    # numpy's overflow/invalid warnings must not reach the CLI's stderr
    src = pathlib.Path(dualbern.__file__).resolve().parent.parent
    for argv, error in [
        (PLOT_OVERFLOW, "plot values are not finite"),
        (NAN_MODULUS, "result is not finite (nan); JSON has no such number"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "dualbern.cli", *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == []


PLOT_OVERFLOW = (
    "plot", "--kind", "polygon", "--m", "2", "--symmetric", "--k", "2",
    "--coeffs=-1e308,1e308,-1e308", "--out", "x.svg",
)
# the sampled f is inf on the whole interval, so omega(f, h) meets inf - inf
NAN_MODULUS = (
    "operator", "--which", "bernop", "--m", "2", "--symmetric", "--k", "2",
    "--fn", "sq", "--a=1e155", "--b=1e156",
)


def test_plot_unwritable_out(tmp_path, capsys):
    rc, _, err = invoke(
        capsys,
        "plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
        "--out", str(tmp_path / "missing" / "x.svg"),
    )
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_operator_overflow_is_a_usage_error(capsys):
    rc, out, err = invoke(
        capsys,
        "operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2",
        "--fn", "exp", "--b", "800",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


NONFINITE_QUASI = (
    "operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2",
    "--fn", "exp", "--b", "709",
)
NONFINITE_BERNOP = (
    "operator", "--which", "bernop", "--m", "2", "--symmetric", "--k", "2", "--fn", "exp",
    "--b", "709", "--smoothness", "c1",
)
OVERFLOWING_GRID = (
    "plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
    "--a", "1e308", "--b", "1.7e308", "--grid", "5",
)


def test_operator_nonfinite_result_is_a_usage_error(capsys):
    # exp(709) is finite, but the bounds built on it are not
    for argv in (NONFINITE_QUASI, NONFINITE_BERNOP):
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err


def test_plot_overflowing_grid_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.svg"
    rc, _, err = invoke(capsys, *OVERFLOWING_GRID, "--out", str(out))
    assert rc == 2
    assert err.startswith("error:") and "overflows" in err
    assert list(tmp_path.iterdir()) == []


# intervals so narrow for their magnitude that the 201-point report grid
# repeats floats (101 distinct ones at b = a + 200, 2 at b = a + 2)
COLLAPSED_QUASI = (
    "operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "20", "--fn", "sin",
    "--a=1e16", "--b=10000000000000200",
)
COLLAPSED_BERNOP = (
    "operator", "--which", "bernop", "--m", "2", "--symmetric", "--k", "20", "--fn", "sin",
    "--smoothness", "c1", "--a=1e16", "--b=10000000000000002",
)
COLLAPSED_PLOT = (
    "plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
    "--a=1e16", "--b=10000000000000200",
)


def test_collapsed_grid_is_a_usage_error(tmp_path, capsys):
    for argv in (COLLAPSED_QUASI, COLLAPSED_BERNOP, (*COLLAPSED_PLOT, "--out", str(tmp_path / "x.svg"))):
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("error:") and "repeats a point" in err
    assert list(tmp_path.iterdir()) == []


def test_operator_quasi_reproduces_square(capsys):
    rc, out, _ = invoke(
        capsys,
        "operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2", "--fn", "sq",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["sup_error"] <= 1e-10
    assert obj["bound_kind"] == "operator-norm"
    assert obj["norm_Minv"] == "137/9"


def test_operator_bernop_bounds(capsys):
    for smoothness in ("c0", "c1", "c2"):
        rc, out, _ = invoke(
            capsys,
            "operator", "--which", "bernop", "--m", "2", "--symmetric", "--k", "2",
            "--fn", "sin", "--smoothness", smoothness,
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["sup_error"] <= obj["bound"] + 1e-12


def test_operator_unknown_fn(capsys):
    rc, _, err = invoke(
        capsys, "operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2",
        "--fn", "tan",
    )
    assert rc == 2
    assert "unknown --fn" in err


def test_operator_abs32_has_no_c2_bound(capsys):
    rc, _, err = invoke(
        capsys,
        "operator", "--which", "bernop", "--m", "2", "--symmetric", "--k", "2",
        "--fn", "abs32", "--smoothness", "c2",
    )
    assert rc == 2
    assert "second derivative" in err


def test_output_deterministic(capsys):
    args = ("convergence", "--m", "3", "--k", "3", "--format", "json")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_grid_flag(tmp_path, capsys):
    out = tmp_path / "flag.svg"
    invoke(capsys, "plot", "--kind", "basis", "--m", "1", "--symmetric", "--k", "2",
           "--grid", "4", "--out", str(out))
    rows = (tmp_path / "flag.csv").read_text().strip().split("\n")
    assert len(rows) == 5  # header + 4 samples


# Endpoints and control ordinates at the edges of the number line; "1/3" is
# an exact rational endpoint.  Endpoints are written as "--a=-2" or as
# "--a -2".  Left ends are drawn mostly below right ends, and half the draws
# keep the default [0, 1], so most get past the interval checks.
_LEFT = ("0", "-2", "0.5", "1/3", "709", "1e308", "nan", "-inf")
_RIGHT = ("1", "709", "1e308", "1.7e308", "-2", "nan", "inf")
_COEFFS = ("0", "1", "-2.5", "1e308", "-1e308", "nan")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["elevate", "dual-basis", "convergence", "plot", "operator"]))
    m = draw(st.integers(0 if command == "elevate" else 1, 5))
    argv = [command, "--m", str(m)]
    if command == "elevate":
        argv += ["--n", str(draw(st.integers(0, 12)))]
        return argv + draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    grid = ["--grid", str(draw(st.integers(1, 64)))]
    if command == "convergence":
        return argv + ["--k", str(draw(st.integers(0, 4))), *grid,
                       *draw(st.sampled_from([[], ["--format", "json"]]))]
    if draw(st.booleans()):
        argv += ["--symmetric", "--k", str(draw(st.integers(0, 4)))]
    else:
        n = draw(st.integers(max(m, 1), 12))
        picks = draw(st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1, unique=True))
        argv += ["--n", str(n), "--selection", ",".join(map(str, picks))]
    pair = st.tuples(st.sampled_from(_LEFT), st.sampled_from(_RIGHT))
    ends = draw(st.one_of(st.just(None), pair))
    if ends:
        argv += draw(st.sampled_from([[f"--a={ends[0]}", f"--b={ends[1]}"],
                                      ["--a", ends[0], "--b", ends[1]]]))
    if command == "dual-basis":
        return argv + draw(st.sampled_from([[], ["--basis", "power"]]))
    if command == "plot":
        kind = draw(st.sampled_from(["basis", "polygon"]))
        coeffs = draw(st.lists(st.sampled_from(_COEFFS), min_size=m + 1, max_size=m + 1))
        argv += ["--kind", kind, *grid, "--out", "{out}/p.svg"]
        return argv + (["--coeffs", ",".join(coeffs)] if kind == "polygon" else [])
    return argv + [
        "--which", draw(st.sampled_from(["quasi", "bernop"])),
        "--fn", draw(st.sampled_from(["sin", "exp", "sq", "abs32"])),
        "--smoothness", draw(st.sampled_from(["c0", "c1", "c2"])), *grid,
    ]


def _no_constants(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@example(argv=list(NONFINITE_QUASI))
@example(argv=list(NONFINITE_BERNOP))
@example(argv=[*OVERFLOWING_GRID, "--out", "{out}/x.svg"])
@example(argv=list(NAN_MODULUS))
@example(argv=list(COLLAPSED_QUASI))
@example(argv=list(COLLAPSED_BERNOP))
@example(argv=[*COLLAPSED_PLOT, "--out", "{out}/x.svg"])
@given(argv=_argv())
def test_cli_keeps_exit_code_contract(argv):
    """Any argv: exit 0, 2 or 3, no traceback, JSON stdout parses without
    non-finite constants, and written files hold no nan or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run([a.replace("{out}", tmp) for a in argv])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        prints_json = argv[0] in ("dual-basis", "operator") or "json" in argv or (
            argv[0] == "elevate" and "csv" not in argv
        )
        if rc == 3 or (rc == 0 and prints_json):
            json.loads(out.getvalue(), parse_constant=_no_constants)
        for path in pathlib.Path(tmp).iterdir():
            assert not re.search(r"\b(nan|inf)\b", path.read_text(), re.IGNORECASE), path.name


# one argv per command, a precondition error (exit 2) and a singular selection (exit 3)
ENTRY_ARGV = [
    pytest.param(("elevate", "--m", "1", "--n", "2", "--format", "csv"), 0, id="elevate-csv"),
    pytest.param(("dual-basis", "--m", "2", "--symmetric", "--k", "2"), 0, id="dual-basis"),
    pytest.param(("convergence", "--m", "2", "--k", "3", "--format", "json"), 0,
                 id="convergence-json"),
    pytest.param(("plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
                  "--out", "p.svg"), 0, id="plot-basis"),
    pytest.param(("operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2",
                  "--fn", "sin"), 0, id="operator-quasi"),
    pytest.param(("elevate", "--m", "5", "--n", "3"), 2, id="exit-2"),
    pytest.param(("dual-basis", "--m", "2", "--n", "4", "--selection", "0,1,3",
                  "--basis", "power"), 3, id="exit-3"),
]


def _written(folder: pathlib.Path) -> dict:
    return {path.name: path.read_bytes() for path in folder.iterdir()}


@pytest.mark.parametrize("argv, code", ENTRY_ARGV)
def test_process_entry_matches_run(argv, code, tmp_path, capsys, monkeypatch):
    """python -m dualbern.cli, and the dualbern script when it is installed,
    give the exit code, stdout, stderr and files of in-process run() byte for
    byte; run() leaves the collector's state and the frozen count alone."""
    here = tmp_path / "run"
    here.mkdir()
    monkeypatch.chdir(here)
    state = gc.isenabled(), gc.get_freeze_count()
    rc = run(list(argv))
    assert rc == code
    assert (gc.isenabled(), gc.get_freeze_count()) == state
    out, err = capsys.readouterr()
    want = (rc, out.encode(), err.encode(), _written(here))

    src = pathlib.Path(dualbern.__file__).resolve().parent.parent
    # buffered std streams, so output that the exit path fails to flush is missed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    entries = {"module": [sys.executable, "-m", "dualbern.cli"]}
    if shutil.which("dualbern"):
        entries["script"] = [shutil.which("dualbern")]
    for name, cmd in entries.items():
        folder = tmp_path / name
        folder.mkdir()
        proc = subprocess.run(
            cmd + list(argv), capture_output=True, timeout=60, cwd=folder, env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr, _written(folder)) == want, name

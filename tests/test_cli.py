"""End-to-end CLI coverage, driven in-process through run()."""

import contextlib
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


def test_negative_endpoint_needs_the_equals_form(capsys):
    rc, out, _ = invoke(capsys, "operator", "--which", "bernop", "--m", "2", "--symmetric",
                        "--k", "2", "--fn", "sin", "--a=-1e3", "--b=-1/2")
    assert rc == 0
    assert json.loads(out)["bound_kind"] == "C0-modulus"
    # without "=", argparse reads "-1e3" as an option, which is a usage error
    rc, _, err = invoke(capsys, "dual-basis", "--m", "2", "--symmetric", "--k", "2",
                        "--a", "-1e3")
    assert rc == 2
    assert err.startswith("error: argument --a")


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
# an exact rational endpoint.  The "--a=-2" form keeps argparse from reading
# a negative value as an option.  Left ends are drawn mostly below right
# ends, and half the draws keep the default [0, 1], so most get past the
# interval checks.
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
        argv += [f"--a={ends[0]}", f"--b={ends[1]}"]
    if command == "dual-basis":
        return argv + draw(st.sampled_from([[], ["--basis", "power"]]))
    if command == "plot":
        kind = draw(st.sampled_from(["basis", "polygon"]))
        coeffs = draw(st.lists(st.sampled_from(_COEFFS), min_size=m + 1, max_size=m + 1))
        argv += ["--kind", kind, *grid, "--out", "{out}/p.svg"]
        return argv + ([f"--coeffs={','.join(coeffs)}"] if kind == "polygon" else [])
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


def test_console_script_smoke():
    exe = shutil.which("dualbern")
    cmd = [exe] if exe else [sys.executable, "-m", "dualbern.cli"]
    proc = subprocess.run(
        cmd + ["elevate", "--m", "1", "--n", "2", "--format", "csv"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,0\n1/2,1/2\n0,1\n"

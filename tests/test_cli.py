"""End-to-end CLI coverage, driven in-process through run()."""

import json
import shutil
import subprocess
import sys

import pytest

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


def test_plot_basis(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DUALBERN_GRID", raising=False)
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


def test_grid_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUALBERN_GRID", "7")
    out = tmp_path / "env.svg"
    invoke(capsys, "plot", "--kind", "basis", "--m", "1", "--symmetric", "--k", "2",
           "--out", str(out))
    rows = (tmp_path / "env.csv").read_text().strip().split("\n")
    assert len(rows) == 8  # header + 7 samples

    # explicit --grid wins over the environment
    out2 = tmp_path / "flag.svg"
    invoke(capsys, "plot", "--kind", "basis", "--m", "1", "--symmetric", "--k", "2",
           "--grid", "4", "--out", str(out2))
    rows2 = (tmp_path / "flag.csv").read_text().strip().split("\n")
    assert len(rows2) == 5


def test_grid_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("DUALBERN_GRID", "banana")
    rc, _, err = invoke(capsys, "convergence", "--m", "2", "--k", "2")
    assert rc == 2
    assert "DUALBERN_GRID" in err


def test_console_script_smoke():
    exe = shutil.which("dualbern")
    cmd = [exe] if exe else [sys.executable, "-m", "dualbern.cli"]
    proc = subprocess.run(
        cmd + ["elevate", "--m", "1", "--n", "2", "--format", "csv"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,0\n1/2,1/2\n0,1\n"

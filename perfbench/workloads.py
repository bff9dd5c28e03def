"""Workload catalogues, job runners and output summaries.

A workload is a fixed catalogue of cases grouped into slots.  A deck holds
one case per slot, drawn by the seed, in a seeded order; a round is the first
few decks of the seed's stream, and a run repeats its round until its time
is up.  Every deck has the same cost profile, so runs with different seeds
measure the same mix while the seed still chooses the concrete inputs.  The catalogue itself does not depend on the seed, which is
what lets every case carry a reference recorded once (see ``record.py``).

Jobs call the library through the ``dualbern`` package attributes at call
time, so the tracer's wrappers (``tracer.py``) see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dualbern  # noqa: E402  (needs SRC on the path)
import dualbern.cli  # noqa: E402

# References are recorded at the CLI's default grid.
os.environ.pop("DUALBERN_GRID", None)

WORKLOADS = ("exact_dual", "operator_reports", "cli_session")
# Selections, polynomials and variants are drawn from this fixed stream, not
# from the run seed, so that every catalogue case has a recorded reference.
CATALOGUE_SEED = 20140626


@dataclass(frozen=True)
class Case:
    """One catalogue entry: ``key`` names its reference, ``args`` its inputs.

    For CLI cases ``args`` is the argv, with ``{out}`` standing for a path in
    the run's scratch directory, and ``expect`` (probes only) lists the exit
    codes the documented contract allows; probes have no recorded reference.
    """

    key: str
    kind: str
    args: tuple
    expect: tuple = ()


# ---------------------------------------------------------------------------
# exact_dual


def _spread(m: int, n: int) -> tuple:
    """m+1 distinct, evenly spread indices in 0..n (symmetric when m | n)."""
    return tuple(round(i * n / m) for i in range(m + 1))


def _exact_dual_slots() -> list[list[Case]]:
    """Within a slot the variants cost about the same, so the seed picks
    inputs (selections, polynomials, points) without moving the cost."""
    rng = random.Random(CATALOGUE_SEED)
    slots = []
    # symmetric_dual_matrix(m, k), m <= 12, k <= 16
    for m in (2, 4, 6, 8, 10, 12):
        for k in (3, 8, 16):
            slots.append([Case(f"sym:{m}:{k}", "sym", (m, k))])
    # dual_basis + verify_duality on random Bernstein selections, n <= 40
    for m, n in ((3, 10), (4, 16), (5, 20), (6, 24), (8, 32), (8, 40), (10, 40), (12, 40)):
        pool = [tuple(sorted(rng.sample(range(n + 1), m + 1))) for _ in range(6)]
        variants = [
            Case(f"dual:{m}:{n}:{','.join(map(str, s))}", "dual", (m, n, s)) for s in pool
        ]
        slots += [variants, variants]
    # convergence_table(m, 1..K)
    for m in (2, 3, 4, 5, 6):
        slots.append([Case(f"conv:{m}:6", "conv", (m, 6))])
    # is_complete(bernstein_embedding(m, n)), n <= 10
    for m, n in ((3, 8), (4, 9), (4, 10)):
        slots.append([Case(f"complete:{m}:{n}", "complete", (m, n))])
    # generalized_dual_apply at n up to 2000 on a few exact polynomials; the
    # polynomial sets the cost, the seed picks the point
    polys = ((0, 1, 1), (1, -2, 0, 3), (Fraction(1, 3), 0, -1, 0, Fraction(5, 2)))
    xs = (Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(1))
    for n, pi in ((250, 0), (600, 1), (1000, 2), (1250, 0), (1600, 1), (2000, 2)):
        slots.append([Case(f"gen:{n}:{x}:{pi}", "gen", (n, x, polys[pi])) for x in xs])
    return slots


def _run_exact_dual(case: Case):
    db = dualbern
    if case.kind == "sym":
        return db.symmetric_dual_matrix(*case.args)
    if case.kind == "dual":
        m, n, s = case.args
        basis = db.dual_basis(db.bernstein_embedding(m, n), db.make_selection(m, n, s))
        return basis, db.verify_duality(basis)
    if case.kind == "conv":
        m, kmax = case.args
        return db.convergence_table(m, list(range(1, kmax + 1)))
    if case.kind == "complete":
        return db.is_complete(db.bernstein_embedding(*case.args))
    n, x, coeffs = case.args
    return db.generalized_dual_apply(n, x, db.power_to_bform(coeffs, n))


def mat_digest(a) -> str:
    """Exact fingerprint of a rational matrix: shape and every entry."""
    text = f"{a.rows}x{a.cols};" + ",".join(str(x) for x in a.entries)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _summarize_exact_dual(case: Case, out) -> dict:
    if case.kind == "sym":
        return {"A": mat_digest(out)}
    if case.kind == "dual":
        basis, dual_check = out
        return {"A": mat_digest(basis.A), "dual_check": dual_check}
    if case.kind == "conv":
        return {
            "k": [r.k for r in out],
            "sup_dist": [r.sup_dist for r in out],
            "scaled_mat_dist": [r.scaled_mat_dist for r in out],
        }
    if case.kind == "complete":
        return {"complete": out}
    return {"value": str(out)}


# ---------------------------------------------------------------------------
# operator_reports

_REPORT_KINDS = ("quasi", "c0", "c1", "c2")
_INTERVALS = {
    "0:1": dualbern.Interval(0, 1),
    "1/2:2": dualbern.Interval(Fraction(1, 2), 2),
    "1.0:3.0": dualbern.Interval(1.0, 3.0),
}


def _operator_slots() -> list[list[Case]]:
    """One slot per (n, kind, interval, function class).  ``sq`` costs more
    than the others on an exact interval, so it has slots of its own; the
    seed picks among sin, exp and abs32 (sin and exp for c2)."""
    slots = []
    for n in range(8, 41, 8):
        for ki, kind in enumerate(_REPORT_KINDS):
            m = (2, 3, 4, 6)[(ki + n // 2) % 4]
            fns = ("sin", "exp") if kind == "c2" else ("sin", "exp", "abs32")
            for iv in _INTERVALS:
                for group in (fns, ("sq",)):
                    slots.append([
                        Case(f"{kind}:{m}:{n}:{fn}:{iv}", kind, (m, n, _spread(m, n), fn, iv))
                        for fn in group
                    ])
    return slots


def _run_operator(case: Case):
    db = dualbern
    m, n, sel, fname, ivname = case.args
    reg = db.cli.FN_REGISTRY[fname]
    iv = _INTERVALS[ivname]
    s = db.make_selection(m, n, sel)
    if case.kind == "quasi":
        return db.quasi_interpolant_report(m, n, s, reg.fn, iv)
    a, b = float(iv.a), float(iv.b)
    d1 = reg.d1(a, b) if case.kind == "c1" else None
    d2 = reg.d2(a, b) if case.kind == "c2" else None
    return db.bernstein_like_report(m, n, s, reg.fn, case.kind, iv, d1=d1, d2=d2)


def _summarize_operator(case: Case, report) -> dict:
    out = {}
    for f in fields(report):
        v = getattr(report, f.name)
        out[f.name] = str(v) if isinstance(v, Fraction) else v
    return out


# ---------------------------------------------------------------------------
# cli_session

_PROBES = (
    # power basis, non-leading selection: singular, exit 3 by the contract
    ("probe:power-nonleading", ("dual-basis", "--m", "2", "--n", "4", "--selection", "0,1,3",
                                "--basis", "power"), (3,)),
    ("probe:m-gt-n", ("elevate", "--m", "5", "--n", "3"), (2,)),
)
# Contract probes that crash at the commit that added the benchmark.  A timed
# workload must be one on which no job fails, so these run once per
# cli_session run, after the timed rounds, and their outcome is printed on a
# line of its own instead of being counted in ``failed``.
DEFECT_PROBES = (
    ("probe:out-missing-dir", ("plot", "--kind", "basis", "--m", "2", "--symmetric", "--k", "2",
                               "--out", "{out}/missing/p.svg"), (0, 2, 3)),
    ("probe:exp-b800", ("operator", "--which", "quasi", "--m", "2", "--symmetric", "--k", "2",
                        "--fn", "exp", "--b", "800"), (0, 2, 3)),
)


def defect_probes() -> list[Case]:
    return [Case(key, "probe", argv, expect) for key, argv, expect in DEFECT_PROBES]


def _cli_slots() -> list[list[Case]]:
    def cases(argvs):
        return [Case("cli:" + " ".join(a), "cli", tuple(a)) for a in argvs]

    def sym(cmd, m, k, *rest):
        return [cmd, "--m", str(m), "--symmetric", "--k", str(k), *rest]

    def sel(cmd, m, n, *rest):
        return [cmd, "--m", str(m), "--n", str(n),
                "--selection", ",".join(map(str, _spread(m, n))), *rest]

    out = ["--out", "{out}/p.svg"]
    slots = [
        cases([["elevate", "--m", str(m), "--n", str(n)] for m, n in ((2, 5), (3, 7), (4, 9), (6, 12))]),
        cases([["elevate", "--m", str(m), "--n", str(n), "--format", "csv"]
               for m, n in ((1, 4), (3, 6), (5, 10), (6, 11))]),
        cases([sym("dual-basis", m, k) for m in (2, 3, 4, 5) for k in (2, 3, 4)]),
        cases([sel("dual-basis", m, n) for m, n in ((2, 7), (3, 9), (4, 11), (5, 12))]),
        cases([sel("dual-basis", m, n, "--a", "1", "--b", "3") for m, n in ((2, 6), (3, 8), (4, 10))]),
        cases([["dual-basis", "--m", str(m), "--n", str(n), "--selection",
                ",".join(map(str, range(m + 1))), "--basis", "power"]
               for m, n in ((2, 4), (3, 6), (4, 8))]),
        cases([["convergence", "--m", str(m), "--k", str(k)] for m in (2, 3, 4) for k in (4, 6)]),
        cases([["convergence", "--m", str(m), "--k", str(k), "--format", "json"]
               for m in (2, 3) for k in (3, 5)]),
        cases([sym("plot", m, 4, "--kind", "basis", "--grid", "2001", *out) for m in (5, 6)]),
        cases([sym("plot", m, k, "--kind", "basis", "--grid", "501", *out)
               for m in (2, 3, 4) for k in (2, 3)]),
        cases([sel("plot", m, n, "--kind", "basis", *out) for m, n in ((2, 5), (3, 8), (4, 9))]),
        cases([sym("plot", 4, k, "--kind", "polygon", "--coeffs", "0,1,0,2,1", "--grid", "2001", *out)
               for k in (2, 3, 4)]),
        cases([sym("plot", 3, k, "--kind", "polygon", "--coeffs", "1,-1,2,0", *out) for k in (1, 2, 5)]),
        cases([sym("operator", m, k, "--which", "quasi", "--fn", fn)
               for m, k in ((2, 6), (4, 4)) for fn in ("sin", "exp", "sq", "abs32")]),
        cases([sym("operator", 3, 4, "--which", "quasi", "--fn", fn, "--a", "1", "--b", "3")
               for fn in ("sin", "exp", "sq")]),
        cases([sym("operator", m, k, "--which", "bernop", "--fn", fn, "--smoothness", "c0")
               for m, k in ((2, 3), (3, 3)) for fn in ("sin", "exp", "sq", "abs32")]),
        cases([sym("operator", m, k, "--which", "bernop", "--fn", fn, "--smoothness", "c1")
               for m, k in ((2, 4), (4, 2)) for fn in ("sin", "exp", "sq", "abs32")]),
        cases([sym("operator", m, k, "--which", "bernop", "--fn", fn, "--smoothness", "c2")
               for m, k in ((3, 2), (3, 5)) for fn in ("sin", "exp", "sq")]),
        cases([["elevate", "--m", str(m), "--n", str(m)] for m in (1, 2, 3)]),
        cases([sym("dual-basis", m, 1) for m in (1, 2, 6)]),
    ]
    slots += [[Case(key, "probe", argv, expect)] for key, argv, expect in _PROBES]
    return slots


def _summarize_text(text: str):
    """Parsed JSON when the text is JSON; otherwise CSV cells, where integers
    stay ints, ``p/q`` rationals stay exact strings and decimals become floats."""
    try:
        return json.loads(text)
    except ValueError:
        pass

    def cell(c):
        for conv in (int, float):
            try:
                return conv(c)
            except ValueError:
                pass
        return c

    return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _summarize_svg(text: str) -> dict:
    """Exact skeleton (numbers masked) plus the count and sum of the numbers."""
    numbers = [float(x) for x in _NUMBER.findall(text)]
    skeleton = _NUMBER.sub("#", text)
    return {
        "skeleton": "sha256:" + hashlib.sha256(skeleton.encode()).hexdigest(),
        "numbers": len(numbers),
        "number_sum": sum(numbers),
    }


def _summarize_sidecar(text: str) -> dict:
    """Header exactly, the row count, and per-column float sum/min/max."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    cols = []
    for j in range(len(rows[0]) if rows else 0):
        try:
            vals = [float(r[j]) for r in rows]
        except ValueError:
            cols.append({"labels": sorted({r[j] for r in rows})})
            continue
        cols.append({"sum": sum(vals), "min": min(vals), "max": max(vals)})
    return {"header": lines[0] if lines else "", "rows": len(rows), "columns": cols}


@dataclass
class CliResult:
    exit: int
    stdout: str
    stderr: str
    files: dict  # file name -> text
    out_bytes: int


def _cli_argv(case: Case, scratch: Path) -> list[str]:
    return [a.replace("{out}", str(scratch)) for a in case.args]


def _collect_files(scratch: Path) -> dict:
    files = {}
    for p in sorted(scratch.rglob("*")):
        if p.is_file():
            files[p.relative_to(scratch).as_posix()] = p.read_text(encoding="utf-8")
            p.unlink()
    for p in sorted(scratch.rglob("*"), reverse=True):
        p.rmdir()
    return files


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli_subprocess(case: Case, scratch: Path, env: dict) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "dualbern.cli", *_cli_argv(case, scratch)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    return _cli_result(proc.returncode, proc.stdout, proc.stderr, scratch)


def run_cli_inprocess(case: Case, scratch: Path) -> CliResult:
    """argv through ``dualbern.cli.run()``; an escaping exception is reported
    the way the interpreter would report it: a traceback and exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dualbern.cli.run(_cli_argv(case, scratch))
        except Exception:  # the CLI boundary: record the crash as the process would
            traceback.print_exc()
            code = 1
    return _cli_result(code, out.getvalue(), err.getvalue(), scratch)


def _cli_result(code: int, stdout: str, stderr: str, scratch: Path) -> CliResult:
    files = _collect_files(scratch)
    size = len(stdout.encode()) + sum(len(t.encode()) for t in files.values())
    return CliResult(code, stdout, stderr, files, size)


def _summarize_cli(case: Case, res: CliResult) -> dict:
    summary = {"exit": res.exit, "stdout": _summarize_text(res.stdout)}
    for name, text in res.files.items():
        summary[name] = _summarize_svg(text) if name.endswith(".svg") else _summarize_sidecar(text)
    return summary


def cli_contract_ok(case: Case, res: CliResult) -> bool:
    allowed = case.expect or (0, 2, 3)
    return res.exit in allowed and "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# shared entry points

_SLOTS = {
    "exact_dual": _exact_dual_slots,
    "operator_reports": _operator_slots,
    "cli_session": _cli_slots,
}
_RUN = {"exact_dual": _run_exact_dual, "operator_reports": _run_operator}
_SUMMARIZE = {
    "exact_dual": _summarize_exact_dual,
    "operator_reports": _summarize_operator,
    "cli_session": _summarize_cli,
}


def slots(workload: str) -> list[list[Case]]:
    return _SLOTS[workload]()


def catalogue(workload: str) -> list[Case]:
    """Every distinct case of the workload, in a fixed order."""
    seen = {}
    for slot in slots(workload):
        for case in slot:
            seen.setdefault(case.key, case)
    return list(seen.values())


def decks(workload: str, seed: int):
    """Endless seeded stream of cases, one shuffled deck after another.  Each
    slot cycles through its variants in a seeded order, so a few decks
    cover a slot's variants evenly."""
    rng = random.Random(seed)
    orders = [rng.sample(slot, len(slot)) for slot in slots(workload)]
    for d in itertools.count():
        deck = [order[d % len(order)] for order in orders]
        rng.shuffle(deck)
        yield from deck


def round_jobs(workload: str, seed: int, n_decks: int) -> list[Case]:
    """The jobs of one round: the first ``n_decks`` decks of the seed's
    stream.  A run repeats this list round after round."""
    return list(itertools.islice(decks(workload, seed), n_decks * len(slots(workload))))


def run_inprocess(workload: str, case: Case):
    return _RUN[workload](case)


def summarize(workload: str, case: Case, out) -> dict:
    return _SUMMARIZE[workload](case, out)


def setup(workload: str, seed: int, n_decks: int):
    """What a run does before its first timed job: load the references and
    draw the seeded jobs of a round (which builds the catalogue)."""
    return round_jobs(workload, seed, n_decks), load_references(workload)


def load_references(workload: str) -> dict:
    path = Path(__file__).resolve().parent / "references" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cases"]

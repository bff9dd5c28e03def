"""Print the output of every benchmark catalogue case, one line per case.

The lines are the byte-identity check for changes that must not move any
output.  For each case of the three ``perfbench`` workloads, in catalogue
order, a line holds the workload, the case key and a ``repr``:

* ``cli_session``: the exit code, stdout, stderr and every written file of
  the argv run through ``dualbern.cli.run()``;
* ``exact_dual`` and ``operator_reports``: the case's summary (report fields
  by float ``repr``, exact matrices by digest).

After the catalogue come ``extra`` lines: operator reports and operator
coefficients on inputs the catalogue does not hold (a mixed Fraction/float
interval, exact data at n = 40, and data that is int at some nodes and float
at others); convergence tables at m = 8 and 12 and one whose k list spans
several evaluation groups; dual bases with their duality check on
non-uniform symmetric selections (m odd and even), on a symmetric selection
in reversed order, at m = 0, on an unsorted permutation at n = m (E = I), on
unsorted selections at n = m+1 and n = 2m, and on non-uniform selections at
(m, n) = (16, 64) and (20, 400); quasi reports at 101 and 2001 samples (report
grids that are not every other point of the least-squares grid); the grid
modulus of continuity at h = (b - a)/3 (a sliding window, not the whole
grid); reports of a Fraction-valued f on an exact interval; basis plots
(exit code, stderr and a sha256 of each written file) at m = 12 and m = 5;
the digest and exact norm of a cold collocation inverse M_n^{-1} for
n = 1..60 (the catalogue's operator reports reach n = 40); and the dual
functionals at k = 0, n/3 and n, and the real-index ones at x = 1/3 and 1/2,
of exact power-built polynomials of degree d read nine degrees up (the
catalogue reads them at their own degree, a one-entry band); and
``functionals:mixed``, the functionals and power form of B-forms given both
exact and float coefficients (a B-form converts them all to floats).

Run it in two checkouts and compare the files::

    python3 tools/output_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl  # noqa: E402  (puts the checkout's src/ on the path)


def _int_at_integers(t):
    """t as an int where t is a whole number, sin(t) elsewhere."""
    return int(t) if t == int(t) else math.sin(t)


def _third_plus_sq(t):
    """t/3 + t^2: a Fraction at the exact nodes of an exact interval."""
    return t / 3 + t * t


def _extras(scratch: Path):
    """(key, output) of each extra line, in order; plots write into scratch."""
    db = wl.dualbern
    reg = db.cli.FN_REGISTRY
    mixed = db.Interval(Fraction(1, 3), 2.5)
    cases = (  # (name, m, n, f, interval, kind, d1)
        ("quasi:3:24:sin:1/3:2.5", 3, 24, reg["sin"].fn, mixed, "quasi", None),
        ("c1:3:24:exp:1/3:2.5", 3, 24, reg["exp"].fn, mixed, "c1", reg["exp"].d1(1 / 3, 2.5)),
        ("quasi:4:40:sq:1/2:2", 4, 40, reg["sq"].fn, db.Interval(Fraction(1, 2), 2), "quasi", None),
        ("quasi:3:16:int-at-integers:0:3", 3, 16, _int_at_integers, db.Interval(0, 3), "quasi", None),
        ("c0:3:16:int-at-integers:0:3", 3, 16, _int_at_integers, db.Interval(0, 3), "c0", None),
    )
    for name, m, n, f, iv, kind, d1 in cases:
        s = db.make_selection(m, n, wl._spread(m, n))
        if kind == "quasi":
            report = db.quasi_interpolant_report(m, n, s, f, iv)
            p = db.quasi_interpolant(m, n, s, f, iv)
        else:
            report = db.bernstein_like_report(m, n, s, f, kind, iv, d1=d1)
            p = db.bernstein_like(m, n, s, f, iv)
        yield name, (report, p.coeffs)
    for m, ks, samples in ((8, range(1, 13), 201), (12, range(1, 13), 201), (3, range(1, 41), 401)):
        yield f"conv:{m}:{ks.stop - 1}:{samples}", db.convergence_table(m, ks, samples)
    duals = ((3, 17, (0, 5, 12, 17)), (4, 20, (1, 4, 10, 16, 19)), (5, 30, (30, 27, 18, 12, 3, 0)),
             (0, 3, (2,)), (4, 4, (3, 0, 4, 1, 2)), (5, 6, (6, 1, 4, 2, 5, 0)), (6, 12, (0, 6, 2, 9, 12, 5, 11)),
             (16, 64, tuple(i * (i + 8) // 6 for i in range(17))), (20, 400, tuple(i * i for i in range(21))))
    for m, n, s in duals:
        basis = db.dual_basis(db.bernstein_embedding(m, n), db.make_selection(m, n, s))
        yield f"dual:{m}:{n}:{','.join(map(str, s))}", (wl.mat_digest(basis.A), db.verify_duality(basis))
    for samples in (101, 2001):
        for iv in (db.Interval(0, 1), mixed):
            s = db.make_selection(4, 16, wl._spread(4, 16))
            report = db.quasi_interpolant_report(4, 16, s, reg["abs32"].fn, iv, samples=samples)
            yield f"quasi:4:16:abs32:{iv.a}:{iv.b}:samples={samples}", report
    for name, f in (("sin", reg["sin"].fn), ("abs32", reg["abs32"].fn)):
        for iv in (db.Interval(0, 1), mixed, db.Interval(1.0, 3.0)):
            h = float(iv.width) / 3
            yield f"modulus:{name}:{iv.a}:{iv.b}:h=w/3", db.modulus_of_continuity(f, h, iv)
    exact = db.Interval(Fraction(1, 2), 2)
    s = db.make_selection(3, 12, wl._spread(3, 12))
    yield "quasi:3:12:third-plus-sq:1/2:2", db.quasi_interpolant_report(3, 12, s, _third_plus_sq, exact)
    for kind in ("c0", "c1"):
        report = db.bernstein_like_report(3, 12, s, _third_plus_sq, kind, exact, d1=13 / 3)
        yield f"{kind}:3:12:third-plus-sq:1/2:2", report
    for m, k, grid, a, b in ((12, 2, 1001, "1", "3"), (5, 4, 2001, "1/3", "5/2")):
        argv = ("plot", "--kind", "basis", "--m", str(m), "--symmetric", "--k", str(k),
                "--grid", str(grid), f"--a={a}", f"--b={b}", "--out", "{out}/p.svg")
        res = wl.run_cli_inprocess(wl.Case("extra", "cli", argv), scratch)
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in res.files.items()}
        yield f"plot:basis:{m}:{k}:{grid}:{a}:{b}", (res.exit, res.stdout, res.stderr, digests)
    colloc_inv = db.bernstein._colloc_inv
    for n in range(1, 61):
        colloc_inv.cache_clear()
        a = colloc_inv(n)
        yield f"colloc_inv:{n}", (db.inf_norm(a), wl.mat_digest(a))
    colloc_inv.cache_clear()
    polys = ((0, 1, 1), (1, -2, 0, 3), (Fraction(1, 3), 0, -1, 0, Fraction(5, 2)))
    for d in (4, 40, 250, 2000):
        for pi, c in enumerate(polys):
            p, n = db.power_to_bform(c, d), d + 9
            values = [db.dual_functional_apply(n, k, p) for k in (0, n // 3, n)]
            values += [db.generalized_dual_apply(n, x, p) for x in (Fraction(1, 3), Fraction(1, 2))]
            yield f"functionals:{d}+9:{pi}", values
    unit = db.Interval(0, 1)
    yield "functionals:mixed", (
        [db.dual_functional_apply(10, k, db.BPoly(1, unit, (2, 2.0))) for k in (0, 5)],
        db.generalized_dual_apply(2, 0.5, db.BPoly(2, unit, (Fraction(-1, 3), Fraction(-8), 1.5))),
        db.bform_to_power(db.BPoly(2, unit, (1, 2, 0.5))),
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for workload in wl.WORKLOADS:
            for case in wl.catalogue(workload):
                if workload == "cli_session":
                    res = wl.run_cli_inprocess(case, scratch)
                    out = (res.exit, res.stdout, res.stderr, res.files)
                else:
                    out = wl.summarize(workload, case, wl.run_inprocess(workload, case))
                print(workload, case.key, repr(out))
        for key, out in _extras(scratch):
            print("extra", key, repr(out))


if __name__ == "__main__":
    main()

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
several evaluation groups; and dual bases with their duality check on
non-uniform symmetric selections (m odd and even) and on a symmetric
selection in reversed order.

Run it in two checkouts and compare the files::

    python3 tools/output_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

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


def _extras():
    """(key, output) of each extra line, in order."""
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
    for m, n, s in ((3, 17, (0, 5, 12, 17)), (4, 20, (1, 4, 10, 16, 19)), (5, 30, (30, 27, 18, 12, 3, 0))):
        basis = db.dual_basis(db.bernstein_embedding(m, n), db.make_selection(m, n, s))
        yield f"dual:{m}:{n}:{','.join(map(str, s))}", (wl.mat_digest(basis.A), db.verify_duality(basis))


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
    for key, out in _extras():
        print("extra", key, repr(out))


if __name__ == "__main__":
    main()

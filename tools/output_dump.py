"""Print the output of every benchmark catalogue case, one line per case.

The lines are the byte-identity check for changes that must not move any
output.  For each case of the three ``perfbench`` workloads, in catalogue
order, a line holds the workload, the case key and a ``repr``:

* ``cli_session``: the exit code, stdout, stderr and every written file of
  the argv run through ``dualbern.cli.run()``;
* ``exact_dual`` and ``operator_reports``: the case's summary (report fields
  by float ``repr``, exact matrices by digest).

Run it in two checkouts and compare the files::

    python3 tools/output_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl  # noqa: E402  (puts the checkout's src/ on the path)


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


if __name__ == "__main__":
    main()

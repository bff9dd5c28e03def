"""Every benchmark catalogue case reproduces its recorded reference.

The benchmark (``perfbench/``) checks only the cases a seed draws, and a run
draws a few decks of them; here every case of the three workloads runs once
in this process (the CLI cases through ``dualbern.cli.run()``), and its
summary is judged by the benchmark's own ``matches`` and ``invariants_ok``.
The contract probes have no reference and are left out.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  (perfbench/ is on the path now)
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_catalogue_case_matches_its_reference(workload, tmp_path):
    refs = wl.load_references(workload)
    cases = [case for case in wl.catalogue(workload) if case.kind != "probe"]
    assert {case.key for case in cases} == set(refs)
    wrong = []
    for case in cases:
        if workload == "cli_session":
            out = wl.run_cli_inprocess(case, tmp_path)
            ok = wl.cli_contract_ok(case, out)
        else:
            out, ok = wl.run_inprocess(workload, case), True
        summary = wl.summarize(workload, case, out)
        if not (ok and bench.matches(refs[case.key], summary) and bench.invariants_ok(summary)):
            wrong.append(case.key)
    assert not wrong, f"{len(wrong)} of {len(cases)} cases differ from their reference: {wrong[:10]}"

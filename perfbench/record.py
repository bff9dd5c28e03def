"""Record the reference output of every catalogue case.

    python3 perfbench/record.py [workload ...]

Runs each case once (CLI cases as subprocesses), checks the invariants and
the CLI exit-code contract, and writes ``references/<workload>.json``.  Run
it only at a commit whose outputs are known to be right: every later run of
the benchmark is judged against these files.  CLI probes are not recorded;
they are judged by the contract alone.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads as wl


def record(workload: str) -> int:
    scratch = run.OUT / "record-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cases, bad = {}, 0
    try:
        for case in wl.catalogue(workload):
            if case.kind == "probe":
                continue
            if workload == "cli_session":
                out = wl.run_cli_subprocess(case, scratch, wl.cli_env())
                contract = wl.cli_contract_ok(case, out)
            else:
                out, contract = wl.run_inprocess(workload, case), True
            summary = wl.summarize(workload, case, out)
            if not (contract and run.invariants_ok(summary)):
                print(f"not recorded, fails its checks: {case.key}", file=sys.stderr)
                bad += 1
                continue
            cases[case.key] = summary
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = Path(__file__).resolve().parent / "references" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    doc = {
        "recorded_at": run.provenance(0)["commit"],
        "tolerance": {"rel": run.REL_TOL, "abs": run.ABS_TOL},
        "cases": cases,
    }
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload}: {len(cases)} cases recorded, {bad} refused -> {path.name}")
    return bad


if __name__ == "__main__":
    names = sys.argv[1:] or list(wl.WORKLOADS)
    sys.exit(1 if sum(record(w) for w in names) else 0)

"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _first(workload, seed, count=300):
    return [c.key for c in itertools.islice(wl.decks(workload, seed), count)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_case_has_a_reference(workload):
    refs = wl.load_references(workload)
    keys = {c.key for c in wl.catalogue(workload) if c.kind != "probe"}
    assert keys == set(refs)


def test_decks_cycle_through_every_variant_of_a_slot():
    slot_list = wl.slots("operator_reports")
    n_decks = max(len(slot) for slot in slot_list)
    seen = {c.key for c in itertools.islice(wl.decks("operator_reports", 5), n_decks * len(slot_list))}
    assert seen == {c.key for c in wl.catalogue("operator_reports")}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


def test_matches_ignores_added_fields_and_uses_the_float_tolerance():
    ref = {"norm_A": "7/3", "sup_error": 0.25, "k": [1, 2]}
    assert run.matches(ref, {"norm_A": "7/3", "sup_error": 0.25 * (1 + 1e-12), "k": [1, 2], "new": 1})
    assert not run.matches(ref, {"norm_A": "7/3", "sup_error": 0.25 * (1 + 1e-6), "k": [1, 2]})
    assert not run.matches(ref, {"norm_A": "8/3", "sup_error": 0.25, "k": [1, 2]})
    assert not run.matches(ref, {"sup_error": 0.25, "k": [1, 2]})
    assert not run.matches(ref, {"norm_A": "7/3", "sup_error": 0.25, "k": [1]})


def test_tracer_sees_calls_through_every_namespace_and_restores_them():
    import dualbern
    from dualbern import subspace

    before = (dualbern.mat_inv, subspace.mat_inv, dualbern.symmetric_dual_matrix)
    plain = dualbern.symmetric_dual_matrix(4, 3)
    with Tracer() as tr:
        with tr.job(0, "job.test"):
            traced = dualbern.symmetric_dual_matrix(4, 3)
            db = dualbern.dual_basis(
                dualbern.bernstein_embedding(2, 4), dualbern.make_selection(2, 4, (0, 1, 4))
            )
    assert traced == plain
    assert (dualbern.mat_inv, subspace.mat_inv, dualbern.symmetric_dual_matrix) == before
    # mat_inv is reached through symmetric's and subspace's own bindings
    assert tr.calls["ratmat.mat_inv"] == 2
    assert tr.calls["symmetric.symmetric_dual_matrix"] == 1
    assert tr.mat_inv_dim_cubed == 5**3 + 3**3
    assert tr.mat_inv_max_bits >= max(x.denominator.bit_length() for x in db.A.entries)
    by_id = {s[0]: s for s in tr.spans}
    root = next(s for s in tr.spans if s[3] == "job.test")
    assert all(s[2] == 0 for s in tr.spans)
    inv = [s for s in tr.spans if s[3] == "ratmat.mat_inv"]
    assert {by_id[s[1]][3] for s in inv} == {"symmetric.symmetric_dual_matrix", "subspace.dual_basis"}
    assert root[1] is None
    assert all(v >= -1e-6 for v in tr.self_s.values())


def _run_main(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(run, "ROUND_DECKS", dict.fromkeys(wl.WORKLOADS, 1))
    monkeypatch.setattr(run, "MIN_JOBS", 12)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "STARTUP_PROBES", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_printed_names_are_the_declared_metrics(capsys, monkeypatch, workload, trace):
    code, lines = _run_main(capsys, monkeypatch, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = [line.split(" = ")[0] for line in lines if " = " in line]
    assert set(printed) == set(declared) == set(result["metrics"])
    for name in printed:
        assert NAME.fullmatch(name)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
    if trace:
        assert "traced outputs differing from untraced: 0" in lines
    elif workload == "cli_session":
        probes = [line for line in lines if line.startswith("defect probe ")]
        assert len(probes) == len(wl.DEFECT_PROBES)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_dual", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

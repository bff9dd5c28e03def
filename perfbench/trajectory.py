"""Measure every workload over several seeds and write one trajectory entry.

    python3 perfbench/trajectory.py --label 00_baseline --seeds 11-20

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per
(workload, seed) with tracing off, then once per workload with tracing on
(first seed), and writes
``trajectory/BENCH_<label>.json``.  For each end-to-end metric the entry
holds the values in seed order, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median;
the traced run adds the per-layer metrics.  A later change is compared with
an entry by running this script on both commits with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 11-20 or 3,5,90001")
    args = p.parse_args()
    seconds = bench["run_seconds"]

    entry = {"label": args.label, "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            prov, res = _run(workload, seed, seconds, 0)
            entry.setdefault("provenance", prov)
            runs.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1 = q3 = spread = None  # one seed has no spread
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            metrics[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values,
            }
        _, traced = _run(workload, args.seeds[0], seconds, 1)
        print(workload, "traced", json.dumps(traced), flush=True)
        entry["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "traced": traced,
        }
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    for workload, w in entry["workloads"].items():
        for name, m in w["end_to_end"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:17s} {name:12s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {spread} (bound {m['bound']})")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload of dualbern and print its metrics.

    python3 perfbench/run.py --workload exact_dual --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``exact_dual`` and
``operator_reports`` call the library in this process, ``cli_session`` runs
``python -m dualbern.cli`` as one subprocess per job.  Every workload is a
closed loop with one caller: the next job starts when the previous one ends.

``--trace 0`` repeats a seeded round of jobs with nothing patched and
prints the end-to-end metrics, taking each job's time as the best time of
its case over the run.  ``--trace 1`` runs one round untraced, then the same
round with every library function wrapped (``tracer.py``), checks that both
passes give the same outputs, and prints the per-layer metrics; for
``cli_session`` both passes send each argv through ``dualbern.cli.run()`` in
this process, so the library spans are visible.

Every job's output is checked outside the timed region against the
reference recorded for its case (``references/``) and the invariants.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_JOBS = 100  # a timed run goes on until p90 has ten jobs beyond it
# Decks per round: few enough that every case runs several times in a run.
# A deck of operator_reports holds 120 jobs, so its 5 cold inverses per round
# stay in the tail beyond p90.
ROUND_DECKS = {"exact_dual": 3, "operator_reports": 1, "cli_session": 1}
WALL_CAP_S = 140.0  # ends a run early rather than break the 180 s limit
SETUP_PROBES = 7
STARTUP_PROBES = 3
REL_TOL = 1e-9  # float fields of outputs, relative
ABS_TOL = 1e-9  # ... and absolute, for values that are rounding noise near 0

_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.setup(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])); print('ready', flush=True)"
)


# ---------------------------------------------------------------------------
# output checks


def matches(ref, got) -> bool:
    """Reference comparison: numbers within REL_TOL/ABS_TOL, everything else
    (exact rationals as strings, digests, bools, shapes) with ``==``; dict
    keys the reference does not have are ignored."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(matches(r, g) for r, g in zip(ref, got))
        )
    numeric = (int, float)
    if (
        isinstance(ref, numeric) and isinstance(got, numeric)
        and not isinstance(ref, bool) and not isinstance(got, bool)
    ):
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return ref == got


def invariants_ok(summary: dict) -> bool:
    """verify_duality(...) is True and sup_error <= bound, wherever present."""
    for obj in (summary, summary.get("stdout")):
        if not isinstance(obj, dict):
            continue
        if obj.get("dual_check") is False:
            return False
        if "sup_error" in obj and "bound" in obj and not obj["sup_error"] <= obj["bound"]:
            return False
    return True


class Outcomes:
    """Counts jobs; ``wrong`` counts jobs whose case has a recorded reference
    and did not reproduce it (a crash included).  CLI probes have no
    reference: breaking the exit-code contract makes them fail, not wrong."""

    def __init__(self, wl, workload: str, refs: dict):
        self.wl, self.workload, self.refs = wl, workload, refs
        self.attempted = self.failed = self.wrong = 0

    def judge(self, case, out, error):
        """Record one job; returns its summary (None when it raised)."""
        wl = self.wl
        self.attempted += 1
        summary = None
        if error is None:
            summary = wl.summarize(self.workload, case, out)
        if case.kind == "probe":
            ok = error is None and wl.cli_contract_ok(case, out)
        else:
            ref = self.refs.get(case.key)
            ok = (
                error is None
                and ref is not None
                and matches(ref, summary)
                and invariants_ok(summary)
                and (self.workload != "cli_session" or wl.cli_contract_ok(case, out))
            )
            self.wrong += not ok
        self.failed += not ok
        return summary


# ---------------------------------------------------------------------------
# runs


def _execute(wl, workload, case, scratch, env, inprocess_cli):
    """Run one job; returns (output, exception)."""
    try:
        if workload != "cli_session":
            return wl.run_inprocess(workload, case), None
        if inprocess_cli:
            return wl.run_cli_inprocess(case, scratch), None
        return wl.run_cli_subprocess(case, scratch, env), None
    except Exception as exc:  # a failed job is counted, the run goes on
        return None, exc


def _spawn_time(argv, env):
    """Wall time from spawning ``argv`` to its first line of output, or to
    its exit when it prints nothing."""
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"probe {argv[:2]} exited with {proc.returncode}")
    return dt


def _median_spawn(argv, env, probes):
    return statistics.median(_spawn_time(argv, env) for _ in range(probes))


def _start_round(wl):
    """Every round starts with a cold collocation cache, as a fresh process
    does, so each repeat of a round pays the same cold inverses."""
    wl.dualbern.operators._colloc_inv.cache_clear()


def timed_run(wl, workload, seed, jobs, refs, seconds, scratch, env):
    """Repeat the round of ``jobs`` until ``seconds`` of job time have passed,
    after at least one whole round and ``MIN_JOBS`` jobs.  A job's time is
    the best time of its case over the run: the same inputs do the same work, and the best of
    several tries spread over the run is the one least slowed by whatever
    else the machine is doing.  The set-up probes are spread over the run."""
    outcomes = Outcomes(wl, workload, refs)
    setup_argv = [sys.executable, "-c", _SETUP_PROBE, str(HERE), workload, str(seed),
                  str(ROUND_DECKS[workload])]
    setup_times = []
    best = dict.fromkeys((case.key for case in jobs), math.inf)
    ran = []  # the case key of every timed job
    busy, rounds = 0.0, 0
    wall0 = perf_counter()
    while True:
        _start_round(wl)
        for case in jobs:
            if rounds and (
                (busy >= seconds and len(ran) >= MIN_JOBS) or perf_counter() - wall0 > WALL_CAP_S
            ):
                break
            if len(setup_times) < SETUP_PROBES and busy >= len(setup_times) * seconds / SETUP_PROBES:
                setup_times.append(_spawn_time(setup_argv, env))
            t0 = perf_counter()
            out, error = _execute(wl, workload, case, scratch, env, inprocess_cli=False)
            dt = perf_counter() - t0
            best[case.key] = min(best[case.key], dt)
            busy += dt
            ran.append(case.key)
            outcomes.judge(case, out, error)
        else:
            rounds += 1
            continue
        break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(_spawn_time(setup_argv, env))
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    job_s = [best[key] for key in ran]
    cuts = statistics.quantiles(job_s, n=10, method="inclusive")
    metrics = {
        "job_s_p50": (cuts[4], "s"),
        "job_s_p90": (cuts[8], "s"),
        "jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((outcomes.attempted - outcomes.failed) / outcomes.attempted, "ratio"),
    }
    notes = [
        f"jobs: {len(ran)} timed, {len(jobs)} per round ({len(best)} distinct cases),"
        f" {rounds} whole rounds, busy {busy:.3f} s; a job's time is its case's best",
        f"p90 over {len(job_s)} jobs has {len(job_s) - math.ceil(0.9 * len(job_s))} beyond it",
        f"setup_s: median of {len(setup_times)} spawns spread over the run",
        f"failed_frac: {outcomes.failed}/{outcomes.attempted}",
    ]
    if workload == "cli_session":
        notes += _defect_probe_notes(wl, scratch, env)
    return outcomes, metrics, notes


def _defect_probe_notes(wl, scratch, env):
    """Run the known-defect CLI probes once, untimed and outside ``failed``."""
    notes = []
    for case in wl.defect_probes():
        res = wl.run_cli_subprocess(case, scratch, env)
        verdict = "keeps" if wl.cli_contract_ok(case, res) else "breaks"
        crash = ", traceback on stderr" if "Traceback" in res.stderr else ""
        notes.append(f"defect probe {case.key}: exit {res.exit}{crash}; {verdict} the exit-code"
                     " contract (untimed, not counted in failed)")
    return notes


def traced_run(wl, workload, seed, jobs, refs, seconds, scratch, env):
    colloc = wl.dualbern.operators._colloc_inv
    outcomes = Outcomes(wl, workload, refs)

    # pass 1: one round, untraced
    _start_round(wl)
    first, untraced_s = [], 0.0
    for case in jobs:
        t0 = perf_counter()
        out, error = _execute(wl, workload, case, scratch, env, inprocess_cli=True)
        untraced_s += perf_counter() - t0
        first.append((None if error else wl.summarize(workload, case, out), type(error)))

    # pass 2: the same jobs, traced
    _start_round(wl)
    info0 = colloc.cache_info()
    tracer = Tracer()
    traced_s, out_bytes, differ = 0.0, 0, 0
    with tracer:
        for i, case in enumerate(jobs):
            t0 = perf_counter()
            with tracer.job(i, "job." + case.kind):
                out, error = _execute(wl, workload, case, scratch, env, inprocess_cli=True)
            traced_s += perf_counter() - t0
            summary = outcomes.judge(case, out, error)
            differ += (summary, type(error)) != first[i]
            if workload == "cli_session" and out is not None:
                out_bytes += out.out_bytes
    info1 = colloc.cache_info()
    outcomes.wrong += differ

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
    tracer.write(trace_path, {"provenance": provenance(seed), "workload": workload})

    hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {
        "ratmat.mat_inv.calls": (calls["ratmat.mat_inv"], "count"),
        "ratmat.mat_inv.self_s": (self_s["ratmat.mat_inv"], "s"),
        "ratmat.mat_inv.dim_cubed": (tracer.mat_inv_dim_cubed, "count"),
        "ratmat.mat_inv.max_bits": (tracer.mat_inv_max_bits, "bits"),
        "ratmat.self_s": (tracer.layer_self_s("ratmat"), "s"),
        "operators.colloc_inv.hits": (hits, "count"),
        "operators.colloc_inv.misses": (misses, "count"),
        "operators.colloc_inv.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "bernstein.bernstein_value.calls": (calls["bernstein.bernstein_value"], "count"),
        "bernstein.bernstein_value.self_s": (self_s["bernstein.bernstein_value"], "s"),
        "bernstein.de_casteljau_eval.calls": (calls["bernstein.de_casteljau_eval"], "count"),
        "bernstein.de_casteljau_eval.self_s": (self_s["bernstein.de_casteljau_eval"], "s"),
        "subspace.dual_basis_eval.calls": (calls["subspace.dual_basis_eval"], "count"),
        "subspace.dual_basis_eval.self_s": (self_s["subspace.dual_basis_eval"], "s"),
        "operators.modulus_of_continuity.self_s": (self_s["operators.modulus_of_continuity"], "s"),
        "operators.distance_to_subspace.self_s": (self_s["operators.distance_to_subspace"], "s"),
        "bernstein.elevation_matrix.calls": (calls["bernstein.elevation_matrix"], "count"),
        "bernstein.elevation_matrix.self_s": (self_s["bernstein.elevation_matrix"], "s"),
        "bernstein.dual_functional.self_s": (
            sum(self_s[f"bernstein.{f}"] for f in (
                "dual_functional_apply", "dual_functional_apply_right",
                "generalized_dual_apply", "bform_to_power")),
            "s",
        ),
        "bernstein.self_s": (tracer.layer_self_s("bernstein"), "s"),
        "subspace.dual_basis.calls": (calls["subspace.dual_basis"], "count"),
        "subspace.dual_basis.self_s": (self_s["subspace.dual_basis"], "s"),
        "subspace.verify_duality.self_s": (self_s["subspace.verify_duality"], "s"),
        "subspace.is_complete.self_s": (self_s["subspace.is_complete"], "s"),
        "subspace.self_s": (tracer.layer_self_s("subspace"), "s"),
        "symmetric.symmetric_dual_matrix.calls": (calls["symmetric.symmetric_dual_matrix"], "count"),
        "symmetric.symmetric_dual_matrix.self_s": (self_s["symmetric.symmetric_dual_matrix"], "s"),
        "symmetric.convergence_table.self_s": (self_s["symmetric.convergence_table"], "s"),
        "symmetric.self_s": (tracer.layer_self_s("symmetric"), "s"),
        "operators.quasi_interpolant_report.self_s": (
            self_s["operators.quasi_interpolant_report"], "s"),
        "operators.bernstein_like_report.self_s": (self_s["operators.bernstein_like_report"], "s"),
        "operators.self_s": (tracer.layer_self_s("operators"), "s"),
        "cli.startup_s": (
            _median_spawn([sys.executable, "-c", "import dualbern.cli"], env, STARTUP_PROBES),
            "s",
        ),
        "cli.interp_s": (_median_spawn([sys.executable, "-c", "pass"], env, STARTUP_PROBES), "s"),
        "cli.run.self_s": (self_s["cli.run"], "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "trace_overhead_s": (traced_s - untraced_s, "s"),
    }
    notes = [
        f"jobs: {len(jobs)} per pass, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s",
        f"traced outputs differing from untraced: {differ}",
        f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, written to "
        f"{trace_path.relative_to(ROOT)}",
        f"failed_frac: {outcomes.failed}/{outcomes.attempted}",
    ]
    return outcomes, metrics, notes


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # One process, no threads: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if not Path(wl.dualbern.__file__).resolve().is_relative_to(wl.SRC):
        print(f"error: dualbern imported from {wl.dualbern.__file__}, not {wl.SRC}", file=sys.stderr)
        return 1
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}", file=sys.stderr)
        return 2

    jobs, refs = wl.setup(args.workload, args.seed, ROUND_DECKS[args.workload])
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        run = traced_run if args.trace else timed_run
        outcomes, metrics, notes = run(
            wl, args.workload, args.seed, jobs, refs, args.seconds, scratch, wl.cli_env()
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload}))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""upoblab benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload fuzz-certify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

The package is imported from the ``src/`` of the checkout holding this file.
With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics.  ``all`` runs every workload untraced and then traced, each
in its own process.  The last line of standard output is always a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports, and the
spans of traced runs, are written to ``.bench_out/`` in the checkout.  See
NOTES.md for the workloads, metrics and calibration.
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
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS to one thread before anything imports numpy: the ops are small,
# the loop is single-threaded, and one thread keeps run-to-run spread low.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("catalog-cli", "deep-certify", "fuzz-certify", "unitary-hunt")

#: Extra fresh interpreters that repeat set-up, so setup_s is a median of
#: SETUP_PROBES + 1 samples.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120

#: Quantiles reported for per-op latency; op_p99_ms is too noisy to gate on
#: and only appears in the fuzz-certify workload table.
QUANTILES = {"op_p50_ms": 0.50, "op_p90_ms": 0.90, "op_p99_ms": 0.99}
GATED_LATENCY = ("ops_per_s", "op_p50_ms", "op_p90_ms")

#: Per-layer times: metric -> span names whose self times it sums.
LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "catalog.construct_s": ("catalog.construct_by_name",),
    "product.to_json_s": ("product.to_json",),
    "product.from_json_s": ("product.from_json",),
    "product.gram_s": (
        "product.gram",
        "product.check_orthonormal",
        "product.check_pairwise_orthogonal",
    ),
    "unextend.direction_table_s": ("unextend.direction_table",),
    "unextend.member_order_s": ("unextend.member_order",),
    "unextend.search_self_s": ("unextend.extendibility_search",),
    "unextend.extract_witness_s": ("unextend.extract_witness",),
    "unextend.classify_self_s": ("unextend.classify",),
    "unextend.all_unitary_s": ("unextend.all_unitary",),
    "unextend.unitary_search_s": ("unextend.unitary_witness_search",),
    "unextend.factorization_s": ("unextend.product_factorization",),
    "matrix.nearest_unitary_s": ("matrix.nearest_unitary",),
    "locc.three_ebit_s": ("locc.run_three_ebit_protocol",),
    "locc.nonlocality_s": ("locc.genuine_nonlocality_evidence",),
    "locc.measurement_branch_s": ("locc.measurement_branch",),
}


@dataclass
class Record:
    op: object
    pass_index: int
    op_id: int
    start: float
    #: Timed seconds, less any calibration kernel that interrupted the op.
    seconds: float
    units: int
    outcome: object
    #: ``seconds`` scaled to the calibration's nominal machine speed; None for
    #: traced passes, which run without the calibration timer.
    calibrated: float | None = None
    #: Calibrated seconds of each heuristic iteration of a per-iteration op
    #: (during measurement: the start time of each iteration).
    unit_seconds: array | None = None


# -- set-up --------------------------------------------------------------------


def require_source():
    if not (SRC / "upoblab" / "__init__.py").is_file():
        sys.exit(f"error: no upoblab package under {SRC}; run inside a source checkout")
    sys.path.insert(0, str(SRC))


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package, build the inputs and warm up; returns the workload
    and the seconds this took, counted from just before ``import upoblab``
    and calibrated by a timer kernel that runs alongside (see calibrate.py)."""
    from calibrate import SetupCalibrator

    clock = SetupCalibrator()
    clock.start()
    try:
        t0 = time.perf_counter()
        import upoblab  # noqa: F401  (timed: the import is part of set-up)
        import workloads

        workdir.mkdir(parents=True, exist_ok=True)
        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.warm_up()
        t1 = time.perf_counter()
    finally:
        clock.stop()
    return wl, clock.calibrated(t0, t1)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- measurement ---------------------------------------------------------------


def measure(ops, instruments, seconds: float) -> tuple[list[Record], float]:
    """Whole passes over ``ops`` while the next one should fit in ``seconds``.

    Pass i runs under ``instruments[i % len(instruments)]``, so a traced run
    alternates untraced and traced passes and drift hits both alike.  Every
    instrument gets at least one pass.  Only ``op.call`` is inside the clock;
    checks run between ops.  Passes under the counting instrument run with
    the calibration timer and get calibrated times.  Also returns the peak
    resident memory in MB, read before the benchmark's own post-processing.
    """
    from calibrate import Calibrator
    from spans import FACTORIZATIONS
    from workloads import Outcome

    calibrator = Calibrator()
    records: list[Record] = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        instrument = instruments[pass_index % len(instruments)]
        calibrated = instrument.mode == "count"
        instrument.install()
        if calibrated:
            calibrator.start()
        try:
            for op in ops:
                instrument.op_id = len(records)
                before = dict(instrument.counts)
                first_mark = len(instrument.iteration_starts)
                t0 = time.perf_counter()
                try:
                    result = op.call()
                    error = None
                except Exception:
                    error = traceback.format_exc()
                dt = time.perf_counter() - t0
                delta = {k: v - before.get(k, 0) for k, v in instrument.counts.items()}
                if error is not None:
                    outcome = Outcome(False, {}, error)
                else:
                    try:
                        outcome = op.check(result, delta)
                    except Exception:
                        outcome = Outcome(False, {}, "check raised:\n" + traceback.format_exc())
                units = max(1, delta.get(FACTORIZATIONS, 0)) if op.per_iteration else 1
                record = Record(op, pass_index, len(records), t0, dt, units, outcome,
                                0.0 if calibrated else None)
                if calibrated and op.per_iteration:
                    record.unit_seconds = instrument.iteration_starts[first_mark:]
                records.append(record)
        finally:
            if calibrated:
                calibrator.stop()
            instrument.uninstall()
        pass_index += 1
        last_pass = pass_walls(records)[-1]
        if pass_index >= len(instruments) and time.perf_counter() - start + last_pass > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for r in records:
        if r.calibrated is not None:
            t1 = r.start + r.seconds
            factor = calibrator.factor(r.start, t1)
            r.seconds -= calibrator.kernel_time(r.start, t1)
            r.calibrated = r.seconds * factor
            if r.unit_seconds is not None:
                # Iteration i runs from its start to the next one's, the last
                # one to the end of the call.
                marks = r.unit_seconds
                marks.append(t1)
                r.unit_seconds = array("d", (
                    (marks[i + 1] - marks[i] - calibrator.kernel_time(marks[i], marks[i + 1])) * factor
                    for i in range(len(marks) - 1)))
    return records, peak_rss_mb


def mark_count_mismatches(records, n_ops: int) -> int:
    """Every pass must repeat the first pass's exact counts op by op; a
    mismatching op is marked failed.  Returns the number marked."""
    first = {}
    marked = 0
    for i, r in enumerate(records):
        want = first.setdefault(i % n_ops, r.outcome.counts)
        if r.outcome.ok and r.outcome.counts != want:
            r.outcome.ok = False
            r.outcome.detail = f"counts {r.outcome.counts} differ from the first pass {want}"
            marked += 1
    return marked


# -- metrics -------------------------------------------------------------------


def latency_metrics(records) -> dict:
    """ops_per_s and per-unit latency quantiles from calibrated times:
    name -> (unit, value, samples).

    A unit is a call, or one heuristic iteration of a per-iteration op.
    """
    units = sum(r.units for r in records)
    latencies = []
    for r in records:
        latencies.extend(r.unit_seconds if r.unit_seconds is not None else [r.calibrated])
    latencies.sort()
    out = {"ops_per_s": ("1/s", units / sum(r.calibrated for r in records), units)}
    for name, q in QUANTILES.items():
        rank = max(1, math.ceil(q * len(latencies)))
        out[name] = ("ms", 1e3 * latencies[rank - 1], len(latencies))
    return out


def pass_walls(records, calibrated: bool = False) -> list[float]:
    """Timed seconds of each pass, raw or calibrated, in pass order."""
    walls: dict[int, float] = {}
    for r in records:
        walls[r.pass_index] = walls.get(r.pass_index, 0.0) + (r.calibrated if calibrated else r.seconds)
    return list(walls.values())


def _has_ancestor(instrument, i, name_ids) -> bool:
    p = instrument.parent[i]
    while p >= 0:
        if instrument.name[p] in name_ids:
            return True
        p = instrument.parent[p]
    return False


def layer_totals(instrument, records) -> dict:
    """Per traced pass: summed self times per layer metric and raw counts."""
    from upoblab.unextend import verify_witness

    pass_of = {r.op_id: r.pass_index for r in records}
    totals = {p: dict.fromkeys(LAYER_TIMES, 0.0) for p in set(pass_of.values())}

    def add(op_id, key, value):
        row = totals[pass_of[op_id]]
        row[key] = row.get(key, 0) + value

    layer_of = {span: key for key, spans in LAYER_TIMES.items() for span in spans}
    names = instrument.span_names
    locc_ids = {i for i, n in enumerate(names) if n.startswith("locc.")}
    for i, self_s in enumerate(instrument.self_times()):
        op_id = instrument.op[i]
        span = names[instrument.name[i]]
        add(op_id, layer_of[span], self_s)
        add(op_id, span + ".calls", 1)
        if span == "matrix.nearest_unitary" and instrument.raised[i] == 1:
            add(op_id, "matrix.singular_errors", 1)
        if span == "unextend.extendibility_search" and _has_ancestor(instrument, i, locc_ids):
            add(op_id, "locc.search_calls", 1)
    for op_id, size in instrument.construct_sizes:
        add(op_id, "catalog.members_built", size)
    for op_id, obj in instrument.json_objects:
        add(op_id, "product.json_bytes", len(json.dumps(obj)))
    for op_id, verdict in instrument.search_results:
        add(op_id, "unextend.nodes", verdict.nodes_explored)
        add(op_id, f"unextend.verdicts.{verdict.status}", 1)
    for op_id, witness, op_set in instrument.witnesses:
        add(op_id, "unextend.witnesses_valid", int(verify_witness(witness, op_set)))
    for op_id, found in instrument.unitary_results:
        add(op_id, "unextend.unitary_found", int(found))
    return totals


def layer_metrics(instrument, records, untraced_walls) -> tuple[dict, list[str]]:
    """Per-layer metrics, each the median over traced passes, plus the names
    of any counts that differ between traced passes."""
    totals = layer_totals(instrument, records)
    rows = list(totals.values())
    count_keys = sorted({k for row in rows for k in row if k not in LAYER_TIMES})
    unsteady = [k for k in count_keys if len({row.get(k, 0) for row in rows}) > 1]

    def median(key):
        return statistics.median(row.get(key, 0) for row in rows)

    def ratio(num, den):
        return median(num) / median(den) if median(den) else 0.0

    metrics = {key: ("s", median(key)) for key in LAYER_TIMES}
    metrics["product.json_bytes"] = ("bytes", median("product.json_bytes"))
    for name in ("catalog.members_built", "unextend.nodes", "unextend.verdicts.extendible",
                 "unextend.verdicts.unextendible", "unextend.verdicts.unknown", "locc.search_calls"):
        metrics[name] = ("count", median(name))
    for name, calls_of in (("unextend.witnesses", "unextend.extract_witness"),
                           ("unextend.unitary_search_calls", "unextend.unitary_witness_search"),
                           ("unextend.factorization_calls", "unextend.product_factorization"),
                           ("matrix.nearest_unitary_calls", "matrix.nearest_unitary"),
                           ("locc.measurement_branch_calls", "locc.measurement_branch")):
        metrics[name] = ("count", median(calls_of + ".calls"))
    metrics["unextend.nodes_per_s"] = ("1/s", ratio("unextend.nodes", "unextend.search_self_s"))
    metrics["unextend.witness_valid_ratio"] = (
        "ratio", ratio("unextend.witnesses_valid", "unextend.extract_witness.calls"))
    metrics["unextend.unitary_found_ratio"] = (
        "ratio", ratio("unextend.unitary_found", "unextend.unitary_witness_search.calls"))
    metrics["matrix.singular_ratio"] = (
        "ratio", ratio("matrix.singular_errors", "matrix.nearest_unitary.calls"))
    traced = statistics.median(pass_walls(records))
    metrics["trace.overhead_ratio"] = ("ratio", traced / statistics.median(untraced_walls) - 1.0)
    return {k: (*v, len(rows)) for k, v in metrics.items()}, unsteady


# -- environment and report ------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's git repository; None outside one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "loop": "closed, one client, no worker threads",
    }


def print_table(title: str, metrics: dict):
    print(f"# {title}")
    print(f"{'metric':34} {'value':>22} {'unit':>8} {'samples':>8}")
    for name, row in metrics.items():
        unit, value = row[0], row[1]
        samples = row[2] if len(row) > 2 else ""
        print(f"{name:34} {value!r:>22} {unit:>8} {samples!s:>8}")


def run(args) -> dict:
    """One workload run; returns the result object printed last."""
    require_source()
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workdir = WORK / str(os.getpid())
    try:
        wl, own_setup = set_up(args.workload, args.seed, workdir)
        setup_samples.append(own_setup)
        from spans import Instrument

        counter = Instrument("count")
        tracer = Instrument("trace") if args.trace else None
        all_records, peak_rss_mb = measure(wl.ops, [counter, tracer] if tracer else [counter],
                                           args.seconds)
        mismatched = mark_count_mismatches(all_records, len(wl.ops))
        # Untraced passes are the even ones; in a traced run the odd ones hold
        # the spans.
        records = [r for r in all_records if r.pass_index % 2 == 0 or not tracer]
        metrics: dict = {}
        unsteady: list[str] = []
        if tracer:
            traced = [r for r in all_records if r.pass_index % 2 == 1]
            metrics, unsteady = layer_metrics(tracer, traced, pass_walls(records))
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz",
                               [r.op.name for r in all_records])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(all_records)
    failures = [r for r in all_records if not r.outcome.ok]
    latency = latency_metrics(records)
    if not args.trace:
        metrics = {
            "setup_s": ("s", statistics.median(setup_samples), len(setup_samples)),
            "peak_rss_mb": ("MB", peak_rss_mb, 1),
            **{k: latency[k] for k in GATED_LATENCY},
        }
    walls = pass_walls(records, calibrated=True)
    raw_busy = sum(r.seconds for r in records)
    extra = {
        "failed_ratio": ("ratio", len(failures) / attempted, attempted),
        "pass_s": ("s", statistics.median(walls), len(walls)),
        "raw_busy_s": ("s", raw_busy, len(records)),
        "speed_factor": ("ratio", sum(walls) / raw_busy, len(records)),
        **wl.summary(records, latency, walls),
    }
    env = environment(args)
    counts = [(r.op.name, r.outcome.counts) for r in records if r.pass_index == 0]
    report = {
        "environment": env,
        "metrics": {k: list(v) for k, v in metrics.items()},
        "workload_metrics": {k: list(v) for k, v in extra.items()},
        "pass_seconds": pass_walls(all_records),
        "op_seconds": [(r.op.name, r.pass_index, r.seconds, r.calibrated) for r in all_records],
        "counts": counts,
        "count_mismatches": mismatched,
        "unsteady_layer_counts": unsteady,
        "failures": [{"op": r.op.name, "pass": r.pass_index, "detail": r.outcome.detail}
                     for r in failures[:20]],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(f"# environment {json.dumps(env)}")
    print_table("per-layer metrics (traced passes, per pass)" if args.trace else "end-to-end metrics",
                metrics)
    print_table("workload metrics", extra)
    print(f"# {attempted} ops attempted, {len(failures)} failed; report in {path.relative_to(ROOT)}")
    for f in report["failures"][:5]:
        print(f"# FAILED {f['op']} (pass {f['pass']}): {f['detail'].strip().splitlines()[-1]}",
              file=sys.stderr)
    return {
        "correct": not failures and not unsteady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v[1], "unit": v[0]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload untraced, then traced, each in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}")
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    # Exact counts must repeat between the two runs of each workload.
    repeat_ok = True
    for name in WORKLOAD_NAMES:
        a, b = (json.loads((OUT / f"{name}-seed{args.seed}-trace{t}.json").read_text())["counts"]
                for t in (0, 1))
        if a != b:
            print(f"# counts differ between the untraced and traced runs of {name}", file=sys.stderr)
            repeat_ok = False
    return {
        "correct": repeat_ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{m}": v for key, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        require_source()
        workdir = WORK / str(os.getpid())
        try:
            _, seconds = set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

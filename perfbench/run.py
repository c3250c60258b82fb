"""metroflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a metroflow checkout; the program is imported from its
``src/`` directory.  The workload's inputs are generated from ``--seed`` in
a child process, then the workload runs as one closed-loop client for
``--seconds`` seconds.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics, from a run in which every other set-up and every other operation
of each kind records spans, so the difference between the interleaved
traced and untraced halves is the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  The spans are written under
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

# the operation-specific name of an end-to-end figure on each workload
ALIASES = {
    "ingest": {"op_s_p50": "prepare_s_p50"},
    "train_mstim": {"windows_per_s": "train_windows_per_s"},
    "infer": {"op_s_p50": "predict_s_p50", "windows_per_s": "evaluate_windows_per_s"},
}


def metric_units(spec: dict, kind: str) -> dict:
    """Name to unit of each metric ``BENCHMARK.json`` lists under ``kind``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself;
    None where that cannot be found out."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "load_1m_start": load_at_start,
        "load_1m_end": os.getloadavg()[0],
    }


def import_seconds(src: Path) -> float:
    """Time to import metroflow in a fresh interpreter."""
    probe = (f"import sys, time; sys.path.insert(0, {str(src)!r}); "
             "t = time.perf_counter(); import metroflow; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def traced(tracer, workload, fn):
    """Call ``fn`` with the program instrumented, and return its result."""
    from spans import instrument

    patches = instrument(tracer)
    workload.tracer = tracer
    try:
        return fn()
    finally:
        patches.undo()
        workload.tracer = None


def run_loop(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run operations back to back for ``seconds`` and at least ``min_ops``
    times; time each one and check its output.

    With a tracer, half the operations of each label run traced, in the
    order untraced, traced, traced, untraced, so the two sets interleave
    over the same mix, neither always runs first, and each holds at least
    ``min_ops``.
    """
    records, traced_records = [], []
    seen = {}
    attempted = failed = 0
    clock = time.perf_counter
    least = min_ops * (2 if tracer else 1)
    start = clock()
    while clock() - start < seconds or attempted < least:
        label, run, check = workload.op(attempted)
        attempted += 1
        on = tracer is not None and seen.get(label, 0) % 4 in (1, 2)
        seen[label] = seen.get(label, 0) + 1

        def timed(run=run):
            begin = clock()
            result = run()
            return result, clock() - begin

        try:
            result, elapsed = traced(tracer, workload, timed) if on else timed()
            windows = check(result)
        except Exception:  # one failed operation is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            (traced_records if on else records).append((label, elapsed, windows))
    return {"records": records, "traced": traced_records,
            "attempted": attempted, "failed": failed}


def latency_note(records, label: str) -> str:
    """Median and tail of one operation's latency, with the sample count."""
    from spans import tail

    times = [t for name, t, _ in records if name == label]
    if not times:
        return f"{label}: no successful operations"
    picked = tail(times)
    where = f", p{picked[0]:g} {picked[1]:.4f} s" if picked and picked[0] > 50 else \
        " (too few samples for a tail percentile)"
    return f"{label} latency: n={len(times)}, p50 {statistics.median(times):.4f} s{where}"


def measure(args, src: Path) -> dict:
    """Write the inputs, set up, and run the timed loop."""
    from spans import Tracer
    from workloads import WORKLOADS

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        fixture = [sys.executable, str(HERE / "fixture.py"), "--seed", str(args.seed),
                   "--out", str(work)]
        subprocess.run(fixture + (["--prepared"] if workload.prepared else []),
                       check=True, timeout=120)

        imports = [import_seconds(src) for _ in range(SETUP_REPS)]
        tracer = Tracer() if args.trace else None
        # set-ups interleave untraced and traced when tracing, as in run_loop
        setups = {False: [], True: []}
        for rep in range(SETUP_REPS * (2 if tracer else 1)):
            on = tracer is not None and rep % 4 in (1, 2)
            begin = time.perf_counter()
            traced(tracer, workload, workload.setup) if on else workload.setup()
            setups[on].append(time.perf_counter() - begin)
        workload.ready()

        # one operation before the measured loop lets lazy initialisation
        # finish; it is checked and counted, but not in the metrics
        loops = [run_loop(workload, 0, 1),
                 run_loop(workload, args.seconds, workload.min_ops, tracer)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import_s = statistics.median(imports)
    return {"workload": workload, "tracer": tracer, "loops": loops,
            "setup_s": import_s + statistics.median(setups[False]),
            "traced_setup_s": import_s + statistics.median(setups[True]) if tracer else None}


def end_to_end(run: dict, workload_name: str, units: dict) -> dict:
    plain = run["loops"][1]
    op_s, rate = run["workload"].metrics(plain["records"])
    values = {
        "setup_s": run["setup_s"],
        "op_s_p50": op_s,
        "windows_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    names = ALIASES[workload_name]
    for key, unit in units.items():
        alias = f" ({names[key]})" if key in names else ""
        print(f"{key}{alias} = {values[key]:.6g} {unit}")
    print(latency_note(plain["records"], run["workload"].latency_label))
    return values


def per_layer(run: dict, args, facts: dict, units: dict) -> tuple:
    """The per-layer table, and whether the trace covered whole operations."""
    from spans import layer_table

    workload, tracer, loop = run["workload"], run["tracer"], run["loops"][1]
    plain_op, plain_rate = workload.metrics(loop["records"])
    traced_op, traced_rate = workload.metrics(loop["traced"])
    table = dict.fromkeys(units, 0.0)
    table.update(layer_table(tracer))
    table.update(workload.counts())
    table.update(workload.replays())
    # share by which tracing slowed each figure: longer set-up and ops,
    # fewer windows/s
    table["trace.overhead.setup_s"] = run["traced_setup_s"] / run["setup_s"] - 1
    if plain_op and traced_rate:
        table["trace.overhead.op_s_p50"] = traced_op / plain_op - 1
        table["trace.overhead.windows_per_s"] = plain_rate / traced_rate - 1
    (HERE / "_out").mkdir(exist_ok=True)
    tracer.write(HERE / "_out" / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "machine": facts,
                  "table": table})
    for key, unit in units.items():
        print(f"{key} = {table[key]:.6g} {unit}")
    return table, table["training.steps"] == workload.steps_per_op


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="metroflow benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "metroflow" / "__init__.py").is_file():
        print(f"error: no metroflow sources under {src}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    run = measure(args, src)
    attempted = sum(loop["attempted"] for loop in run["loops"])
    failed = sum(loop["failed"] for loop in run["loops"])
    facts = machine_facts(load_at_start)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": facts}))
    print(f"failed_frac = {failed}/{attempted}")
    correct = failed == 0
    if args.trace:
        units = metric_units(spec, "per_layer")
        values, consistent = per_layer(run, args, facts, units)
        correct = correct and consistent
    else:
        units = metric_units(spec, "end_to_end")
        values = end_to_end(run, args.workload, units)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

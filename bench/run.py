"""rbakit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rbakit is imported from ``src/``. Each
input goes through the public pipeline (ingest -> ``analyze`` ->
``to_json``) in this process, closed loop, one client, and every report is
checked against the independent oracle in ``oracle.py``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). End-to-end times are the process's CPU time
per input, calibrated for the machine's speed by ``calib.py``. See
README.md for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # process start, as far as this program can see it

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("exact_ladder", "float_ladder", "rank7_screen")
SETUP_REPEATS = 5
SETUP_CALIBRATION = 5      # kernel samples before and after each set-up repetition
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

END_TO_END = (
    ("ok_per_s", "analyses/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# public functions that run on at least one workload
TRACED_FUNCTIONS = (
    "core.from_text", "core.validate", "core.degree_map", "core.standardize",
    "core.gram_matrix", "ingest.parse_cayley", "ingest.from_group", "ingest.parse_scheme",
    "ingest.from_scheme", "decomp.regular_rep", "decomp.center_basis",
    "decomp.central_idempotents", "decomp.character_table", "decomp.star_rep_extract",
    "indicator.fs_indicator", "indicator.indicator_report", "indicator.classify_one_pair",
    "indicator.rank7_trichotomy", "quaternion.symbol", "quaternion.dc_change_of_basis",
    "quaternion.x_generator", "quaternion.y_generator", "quaternion.hilbert_places",
    "quaternion.hilbert_symbol", "integrality.integral_check",
    "integrality.two_adic_obstruction", "report.analyze", "report.to_json",
)
RETRY_LOOPS = ("core.degree_map", "decomp.central_idempotents", "decomp.star_rep_extract")

PER_LAYER = tuple(
    [(f"{f}.{q}", u) for f in TRACED_FUNCTIONS for q, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{f}.{q}", u) for f in RETRY_LOOPS
       for q, u in (("attempts", "count"), ("useful_frac", "ratio"))]
    + [
        ("core.validate.assoc_madds", "count"),
        ("core.validate.assoc_bytes", "B"),
        ("core.validate.peak_mib", "MiB"),
        ("core.from_text.peak_mib", "MiB"),
        ("report.analyze.peak_mib", "MiB"),
        ("report.json_bytes", "B"),
        ("trace.overhead_frac", "ratio"),
        ("trace.self_sum_frac", "ratio"),
    ]
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """One BLAS thread; must run before numpy is imported. The matrices here
    are at most 4096 x 64: a second thread buys little, and small LAPACK
    calls that wait on it make timings depend on what else the machine runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_rbakit():
    src = ROOT / "src"
    if not (src / "rbakit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rbakit sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import rbakit
    if Path(rbakit.__file__).resolve().parent != (src / "rbakit").resolve():
        raise SystemExit(f"bench: imported rbakit from {rbakit.__file__}, not from {src}")
    return rbakit


# ---------------------------------------------------------------------------
# one input, one pass
# ---------------------------------------------------------------------------

class Pipeline:
    """ingest -> analyze -> to_json through rbakit's public functions.

    Functions are looked up on every call, so a traced pass sees the wrapped
    versions.
    """

    INGEST = {"cayley": "from_group", "scheme": "from_scheme"}

    def __init__(self, rbakit, force_float: bool):
        self.rbakit = rbakit
        self.force_float = force_float

    def run(self, x):
        """(seconds, report text or None, exception or None) for one input."""
        rbakit = self.rbakit
        start = time.perf_counter()
        try:
            if x.kind == "rba":
                rba = rbakit.RBA.from_text(x.text)
            else:
                rba = getattr(rbakit, self.INGEST[x.kind])(x.text)
            text = rbakit.analyze(rba, force_float=self.force_float).to_json()
        except Exception as exc:  # every failure is recorded against its input
            return time.perf_counter() - start, None, exc
        return time.perf_counter() - start, text, None


class PassResult:
    def __init__(self):
        self.ids = []
        self.starts = []       # perf_counter at the start of each input
        self.latencies = []    # wall seconds of each input
        self.cpu = []          # process CPU seconds of each input
        self.ok = 0
        self.refused = []      # rbakit raised an RBAError or left out a verdict
        self.wrong = []        # a report the oracle rejects, or a crash

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(pipeline, inputs, tracer=None, calib=None) -> PassResult:
    """One pass over ``inputs``; with ``calib``, the calibration kernel runs
    between inputs, outside their timings."""
    from oracle import check, declined

    res = PassResult()
    for x in inputs:
        if tracer is not None:
            tracer.input_id = x.id
        if calib is not None:
            calib.catch_up()
        res.starts.append(time.perf_counter())
        cpu = time.process_time()
        seconds, text, exc = pipeline.run(x)
        res.cpu.append(time.process_time() - cpu)
        res.ids.append(x.id)
        res.latencies.append(seconds)
        if exc is not None:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            entry = {"input": x.id, "error": type(exc).__name__, "message": str(exc),
                     "at": f"{Path(where.filename).name}:{where.lineno}"}
            (res.refused if isinstance(exc, pipeline.rbakit.RBAError) else res.wrong).append(entry)
            continue
        report = json.loads(text)
        mismatches = check(x.expect, report)
        reason = None if mismatches else declined(x.expect, report)
        if mismatches:
            res.wrong.append({"input": x.id, "error": "OracleMismatch",
                              "message": "; ".join(mismatches)})
        elif reason:
            res.refused.append({"input": x.id, "error": "Declined", "message": reason})
        else:
            res.ok += 1
    return res


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest listed percentile with
    at least 10 samples beyond it."""
    values = sorted(latencies)
    for p in TAIL_PERCENTILES:
        beyond = int(len(values) * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= 10:
            return percentile(values, p), p, beyond
    return values[-1], 100.0, 0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def setup(args, rbakit, calib):
    """Build the workload, make pass 0 and run the untimed warm-up, several
    times, with calibration samples before and after each; returns the
    workload, pass 0, the pipeline, and the median set-up seconds of the
    repetitions: wall, and CPU calibrated."""
    import workloads

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        calib.sample(SETUP_CALIBRATION)
        start, cpu = time.perf_counter(), time.process_time()
        workload = workloads.make(args.workload, ROOT)
        first = workload.pass_inputs(args.seed, 0)
        pipeline = Pipeline(rbakit, workload.force_float)
        run_pass(pipeline, workload.warmup_inputs(args.seed))
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        calib.sample(SETUP_CALIBRATION)
        raw.append(seconds)
        scaled.append(cpu * calib.factor(start, start + seconds))
    return workload, first, pipeline, statistics.median(raw), statistics.median(scaled)


def measure(args, workload, first, pipeline, calib):
    """Whole passes until --seconds have elapsed and the workload's minimum
    number of inputs ran."""
    passes = []
    start = time.perf_counter()
    inputs = first
    while True:
        passes.append(run_pass(pipeline, inputs, calib=calib))
        samples = sum(len(p.latencies) for p in passes)
        if time.perf_counter() - start >= args.seconds and samples >= workload.min_inputs:
            return passes
        inputs = workload.pass_inputs(args.seed, len(passes))


def end_to_end(passes, setup_s, latencies=None):
    """The end-to-end metrics from per-input times (the measured ones unless
    ``latencies`` are given) and the set-up seconds."""
    if latencies is None:
        latencies = [t for p in passes for t in p.latencies]
    ok = sum(p.ok for p in passes)
    tail_s, tail_p, beyond = tail(latencies)
    metrics = {
        "ok_per_s": ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "ok_frac": ok / len(latencies),
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": setup_s,
    }
    note = f"latency_tail_s is p{tail_p:g} of {len(latencies)} samples ({beyond} beyond it)"
    return metrics, note


def calibrated(passes, calib):
    """Each input's CPU time scaled by the calibration factor around it, and
    the factors."""
    factors = [calib.factor(s, s + t) for p in passes for s, t in zip(p.starts, p.latencies)]
    cpu = [t for p in passes for t in p.cpu]
    return [t * f for t, f in zip(cpu, factors)], factors


def traced(args, workload, first, pipeline):
    """Untraced and traced passes over the same inputs, in pairs (alternating
    which runs first), until --seconds have elapsed; then one input of each
    algebra again with tracemalloc on, for the memory peaks (tracemalloc
    slows Python-heavy spans several times over, so those timings are not
    used)."""
    import spans

    tracer = spans.Tracer()
    plain, timed, summaries, counters = [], [], [], []
    start = time.perf_counter()
    inputs = first
    while True:
        plain_first = len(timed) % 2 == 0  # alternate which of the pair runs first
        if plain_first:
            plain.append(run_pass(pipeline, inputs))
        mark = len(tracer.spans)
        tracer.counters = {}
        with tracer.installed():
            timed.append(run_pass(pipeline, inputs, tracer))
        summaries.append(spans.summarize(tracer.spans[mark:]))
        counters.append(tracer.counters)
        if not plain_first:
            plain.append(run_pass(pipeline, inputs))
        if time.perf_counter() - start >= args.seconds:
            break
        inputs = workload.pass_inputs(args.seed, len(plain))
    mark = len(tracer.spans)
    tracer.counters = {}
    with tracer.installed(), tracer.memory_mode():
        memory = run_pass(pipeline, workload.one_each(first), tracer)
    peaks = spans.summarize(tracer.spans[mark:])
    print(f"bench: untraced passes {[round(p.wall, 3) for p in plain]} s, "
          f"traced {[round(p.wall, 3) for p in timed]} s")
    metrics = per_layer(plain, timed, summaries, counters, peaks)
    return tracer, plain + timed + [memory], metrics


def per_layer(plain, timed, summaries, counters, peaks):
    import spans

    per_pass = spans.median_summary(summaries)
    totals = {}
    for s in summaries:
        for name, row in s.items():
            t = totals.setdefault(name, [0, 0])
            t[0] += row["returned"]
            t[1] += row["attempts"]
    metrics = {}
    for f in TRACED_FUNCTIONS:
        row = per_pass.get(f, {})
        metrics[f"{f}.calls"] = row.get("calls", 0)
        metrics[f"{f}.self_s"] = row.get("self_s", 0.0)
    for f in RETRY_LOOPS:
        returned, attempts = totals.get(f, (0, 0))
        metrics[f"{f}.attempts"] = per_pass.get(f, {}).get("attempts", 0)
        metrics[f"{f}.useful_frac"] = returned / attempts if attempts else 0.0
    for key in ("core.validate.assoc_madds", "core.validate.assoc_bytes", "report.json_bytes"):
        metrics[key] = statistics.median(c.get(key, 0) for c in counters)
    for f in ("core.validate", "core.from_text", "report.analyze"):
        metrics[f"{f}.peak_mib"] = peaks.get(f, {}).get("peak_bytes", 0) / 2**20
    untraced = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_frac"] = statistics.median(p.wall for p in timed) / untraced - 1.0
    self_sum = statistics.median(sum(row["self_s"] for row in s.values()) for s in summaries)
    metrics["trace.self_sum_frac"] = self_sum / untraced
    return metrics


def self_times_add_up(metrics) -> bool:
    """Self times of all spans cover the untraced pass time, within the
    tracing overhead (plus 2% for the benchmark's own calls between spans)."""
    return abs(metrics["trace.self_sum_frac"] - 1.0) <= abs(metrics["trace.overhead_frac"]) + 0.02


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    rbakit = import_rbakit()
    import numpy

    import calib as calibration

    import_s = time.perf_counter() - T0
    import_cpu = time.process_time()  # CPU seconds since the process started
    calib = calibration.Calibrator()
    workload, first, pipeline, setup_raw, setup_scaled = setup(args, rbakit, calib)
    # the import ran just before the first calibration samples
    import_factor = calib.factor(calib.midpoints[0], calib.midpoints[0])
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "rbakit": rbakit.__version__, "inputs_per_pass": len(first),
    }
    print("bench: " + " ".join(f"{k}={v}" for k, v in meta.items()))

    if args.trace:
        tracer, passes, metrics = traced(args, workload, first, pipeline)
        names = PER_LAYER
        consistent = self_times_add_up(metrics)
        if not consistent:
            print("bench: span self times do not add up to the untraced pass time")
    else:
        passes = measure(args, workload, first, pipeline, calib)
        raw, _ = end_to_end(passes, import_s + setup_raw)
        latencies, factors = calibrated(passes, calib)
        metrics, note = end_to_end(passes, import_cpu * import_factor + setup_scaled, latencies)
        names = END_TO_END
        consistent = True
        print("bench: " + note)
        print(f"bench: calibration factor median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}-{max(factors):.3f} over {len(calib.seconds)} "
              f"kernel samples; import {import_cpu:.3f} CPU s x {import_factor:.3f}, "
              f"set-up repetition {setup_scaled:.3f} s calibrated")
        print("bench: wall clock, uncalibrated: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))

    refused = [e for p in passes for e in p.refused]
    wrong = [e for p in passes for e in p.wrong]
    attempted = sum(len(p.latencies) for p in passes)
    print(f"bench: {len(passes)} passes, {attempted} analyses, {len(refused)} refused by rbakit, "
          f"{len(wrong)} wrong or crashed")
    for e in refused + wrong:
        print(f"  {e['error']:>16}  {e['input']:<22} {e['message'][:150]}")
    for name, unit in names:
        print(f"  {name:<42} {metrics[name]:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "refused": refused, "wrong": wrong,
              "latencies": [list(zip(p.ids, p.latencies)) for p in passes],
              "cpu": [p.cpu for p in passes]}
    if not args.trace:
        record["uncalibrated"] = raw
        record["calibration"] = {"kernel_nominal_s": calibration.KERNEL_NOMINAL_S,
                                 "import_cpu_s": import_cpu, "import_factor": import_factor,
                                 "samples": list(zip(calib.midpoints, calib.seconds)),
                                 "starts": [p.starts for p in passes]}
    if args.trace:
        from spans import FIELDS

        record["span_fields"] = FIELDS
        record["spans"] = tracer.spans
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    result = {
        "correct": not wrong and consistent,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for climdemand: two workloads, end-to-end and per-layer metrics.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0            # one table
    python3 perfbench/run.py --workload screen --seed 0 --smoke  # tiny sizes
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR --claim wall_rel:pipeline

Each run is a closed loop in a fresh process: one caller, each operation
starting when the previous one returns, until ``--seconds`` have passed and
every data seed has had an operation.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it are a readable report.  The full result set
(environment, every operation, checks, claims, and with ``--trace 1`` the
spans) is written to ``.perfbench/results/``.

``BENCHMARK.json`` names the workloads and metrics; ``workloads.py`` holds
the workloads and their checks, ``tracing.py`` the spans, ``compare.py`` the
parent-versus-change comparison, and ``benchmark_notes.json`` each workload's
input sizes and which end-to-end metric each per-layer metric should move.
"""

import os

# Pin the BLAS pool before numpy loads, so a run uses no more threads than
# its workload asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import compare  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_PAIRS = 3
SUBPROCESS_TIMEOUT_S = 170

with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(BENCH / "benchmark_notes.json", encoding="utf-8") as _fh:
    NOTES = json.load(_fh)
NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# environment


def environment(seeds) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seeds": list(seeds),
        "held_out_seed": NOTES["held_out_seed"],
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and ".so" in line})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def source_digest() -> str:
    """Digest of the program's sources and the workload definitions, so a
    stored result digest is only compared with runs of the same code."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "climdemand").rglob("*.py")), BENCH / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the reference kernel


def reference_kernel() -> float:
    """A fixed mix of small least-squares solves and interpreter loops, the
    kind of work the workloads do, using numpy alone; about 80 ms here.

    On a shared host the machine's speed drifts by tens of percent over
    minutes, and every workload drifts with it; an operation's wall time
    over this kernel's, timed just before and after it, cancels the drift.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    design = rng.normal(size=(390, 9))
    target = rng.normal(size=390)
    acc = 0.0
    for i in range(800):
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        acc += float(coef[i % 9])
        for j in range(300):
            acc += j * 0.5
    return acc


def reference_s() -> float:
    """Median wall seconds of seven runs of the reference kernel."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one operation


def run_op(workload: str, inputs, threads: int) -> dict:
    """Run one operation; time it and collect its checks.  Never raises."""
    import workloads

    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outcome = workloads.RUN[workload](inputs, threads)
        error = None
    except Exception:  # a failed operation is counted, and the loop goes on
        outcome = None
        error = traceback.format_exc(limit=4)
    record = {
        "threads": threads,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "error": error,
    }
    if outcome is not None:
        record.update(
            digest=outcome.digest,
            checks=[vars(c) for c in outcome.checks],
            claims=[vars(c) for c in outcome.claims],
            quality=outcome.quality,
        )
    return record


def judge(ops: list[dict], expected: str | None) -> str | None:
    """Mark each operation failed or not; returns the digest to store.

    ``expected`` is the digest an earlier run stored for the same data seed
    and sources; without one, the first operation's digest is expected.
    """
    digests = [op["digest"] for op in ops if op["error"] is None]
    expected = expected or (digests[0] if digests else None)
    for op in ops:
        reasons = []
        if op["error"] is not None:
            reasons.append("exception")
        else:
            reasons += [f"check {c['name']}" for c in op["checks"] if not c["passed"]]
            if op["digest"] != expected:
                reasons.append("digest differs from an earlier run of this seed")
        op["failed_because"] = reasons
    return expected


def _digest_path(workload: str, seed: int, smoke: bool) -> Path:
    size = "smoke" if smoke else "full"
    return STATE / "digests" / f"{workload}-{size}-seed{seed}-src{source_digest()}.txt"


def _stored_digest(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip() or None
    except FileNotFoundError:
        return None


def _store(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# set-up and import time, each in fresh processes


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of a fresh process that imports climdemand and builds the
    workload's inputs, repeated."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def import_times() -> dict[str, float]:
    """Cumulative import seconds of climdemand (the CLI's whole import) and
    of climdemand.synth, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import climdemand.cli"],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e6
    out = {}
    if "climdemand" in cumulative:
        out["cli.import_s"] = cumulative["climdemand"] + cumulative.get("climdemand.cli", 0.0)
    if "climdemand.synth" in cumulative:
        out["synth.import_s"] = cumulative["climdemand.synth"]
    return out


# ---------------------------------------------------------------------------
# the threads' speed-up


def thread_probe(inputs) -> dict:
    """Untraced wall of ``workloads.run_thread_probe`` at one and at two
    threads, in alternating pairs; the speed-up is the ratio of the medians.
    Both thread counts must give one result."""
    import workloads

    walls = {1: [], 2: []}
    digests = set()
    for _ in range(PROBE_PAIRS):
        for threads in walls:
            start = time.perf_counter()
            digests.add(workloads.run_thread_probe(inputs, threads))
            walls[threads].append(time.perf_counter() - start)
    return {"speedup_2t": _median(walls[1]) / _median(walls[2]),
            "wall_s": {str(t): w for t, w in walls.items()},
            "threads_agree": len(digests) == 1}


# ---------------------------------------------------------------------------
# a measured run


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    setup = [] if trace else measure_setup(workload, seed, smoke)
    import tracing
    import workloads

    seeds = workloads.data_seeds(workload, seed)
    inputs = [workloads.BUILD[workload](s, smoke) for s in seeds]

    def op(i: int, t: int) -> dict:
        return {"data_seed": seeds[i], **run_op(workload, inputs[i], t)}

    # Closed loop: every data seed once, then on until the time is up.  A
    # traced run times one untraced operation, the base of the overhead.
    ops = []
    references = [reference_s()]
    start = time.perf_counter()
    while not ops or (not trace and (len(ops) < len(seeds)
                                     or time.perf_counter() - start < seconds)):
        ops.append(op(len(ops) % len(seeds), 1))
        references.append(reference_s())
    for i, record in enumerate(ops):
        record["reference_s"] = (references[i] + references[i + 1]) / 2

    result = {"workload": workload, "seed": seed, "smoke": smoke, "trace": trace,
              "setup_s": setup, "ops": ops}
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            run_id = f"{workload}-seed{seeds[0]}"
            root, record = tracer.root(workload, run_id, lambda: op(0, 1))
        record["traced"] = True
        ops.append(record)
        result["spans"] = [s.record() for s in tracer.spans]
        layer = tracing.layer_metrics(tracer.spans, tracer.missing)
        layer.update(import_times())
        layer["trace.overhead_share"] = root.duration / ops[0]["wall_s"] - 1.0
        result["probe"] = thread_probe(workloads.build_screen(seeds[0], smoke))
        layer["parallel.speedup_2t"] = result["probe"]["speedup_2t"]
        result["missing_functions"] = tracer.missing
        result["layer_metrics"] = layer

    for data_seed in seeds:
        path = _digest_path(workload, data_seed, smoke)
        stored = _stored_digest(path)
        expected = judge([o for o in ops if o["data_seed"] == data_seed], stored)
        if expected is not None and stored is None:
            _store(path, expected)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment(seeds)
    return result


def summarize(result: dict) -> dict:
    """The result line: correct, attempted, failed and the metrics."""
    ops = result["ops"]
    probe = result.get("probe")
    attempted = len(ops) + (probe is not None)
    failed = sum(bool(op["failed_because"]) for op in ops)
    failed += probe is not None and not probe["threads_agree"]
    timed = [op for op in ops if not op.get("traced")]
    if result["trace"]:
        # The line carries every per-layer metric; one whose traced function
        # no longer exists reads 0 here and is named absent in the report and
        # left out of the result set's layer_metrics.
        layer = result["layer_metrics"]
        metrics = {name: {"value": layer.get(name, 0.0), "unit": UNITS[name]}
                   for name in PER_LAYER}
    else:
        quality = [op["quality"]["model_error"] for op in timed if op["error"] is None]
        values = {
            "wall_rel": _median([op["wall_s"] / op["reference_s"] for op in timed]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": _median(result["setup_s"]),
            "model_error": _median(quality),
        }
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(result: dict, summary: dict) -> None:
    """The readable lines printed before the result line."""
    ops = result["ops"]
    timed = [op for op in ops if not op.get("traced")]
    walls = [op["wall_s"] for op in timed]
    q1, q3 = compare.quartiles(walls)
    env = result["environment"]
    print(f"# climdemand benchmark: workload {result['workload']}, seed {result['seed']},"
          f" {'smoke' if result['smoke'] else 'full'} size, trace {int(result['trace'])}")
    print(f"# environment: {env['nproc']} CPUs ({env['cpu_model']}), Python {env['python']},"
          f" numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}"
          f" with {env['blas_threads']} thread(s)")
    print(f"# wall_s over {len(walls)} operation(s): median {_median(walls):.4f},"
          f" quartiles {q1:.4f} .. {q3:.4f}")
    for i, op in enumerate(ops):
        tag = " (traced)" if op.get("traced") else ""
        status = "FAILED: " + "; ".join(op["failed_because"]) if op["failed_because"] else "ok"
        reference = f" reference {op['reference_s']:.4f} s" if "reference_s" in op else ""
        print(f"# op {i}{tag} data seed {op['data_seed']} threads={op['threads']}"
              f" wall {op['wall_s']:.3f} s cpu {op['cpu_s']:.3f} s{reference}: {status}")
        if op["error"]:
            print("#   " + op["error"].strip().replace("\n", "\n#   "))
        if i >= len(result["environment"]["seeds"]) and not op["failed_because"]:
            continue  # the first operation of each data seed stands for the rest
        for kind in ("checks", "claims"):
            for c in op.get(kind, []):
                mark = "pass" if c["passed"] else "FAIL" if kind == "checks" else "not met"
                print(f"#   {kind[:-1]} {c['name']}: {mark} ({c['detail']})")
    probe = result.get("probe")
    if probe is not None:
        walls = ", ".join(f"{t} thread(s) median {_median(w):.3f} s" for t, w in probe["wall_s"].items())
        agree = "one result" if probe["threads_agree"] else "FAILED: results differ"
        print(f"# thread probe (GC bootstrap + forest growth): {walls}: {agree}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"failed_share {failed / attempted:.4f} share ({failed} of {attempted} operations)")
    mase = [op["quality"]["forecast_mase"] for op in timed
            if op["error"] is None and "forecast_mase" in op["quality"]]
    if mase:
        print(f"forecast_mase {_median(mase):.4f} ratio")
    if not result["trace"]:
        for name in ("wall_s", "cpu_s"):
            print(f"{name} {_median([op[name] for op in timed]):.6g} s")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if result.get("missing_functions"):
        print("# absent (traced function no longer exists): "
              + ", ".join(result["missing_functions"]))
    absent = sorted(set(PER_LAYER) - set(result["layer_metrics"])) if result["trace"] else []
    if absent:
        print("# absent, reading 0 in the result line: " + ", ".join(absent))


def result_path(workload: str, seed: int, smoke: bool, trace: bool) -> Path:
    size = "smoke" if smoke else "full"
    return STATE / "results" / f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"


def save(result: dict, summary: dict) -> Path:
    path = result_path(result["workload"], result["seed"], result["smoke"], result["trace"])
    _store(path, json.dumps({**result, "summary": summary}, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload, each in its own process; prints one table."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        rows.append((name, json.loads(lines[-1])))
    print("# workload     attempted failed  failed_share  "
          + "  ".join(rows[0][1]["metrics"]))
    for name, summary in rows:
        values = "  ".join(f"{v['value']:.5g} {v['unit']}" for v in summary["metrics"].values())
        share = summary["failed"] / summary["attempted"]
        print(f"# {name:12s} {summary['attempted']:9d} {summary['failed']:6d}"
              f"  {share:.4g} share  {values}")
    attempted = sum(s["attempted"] for _, s in rows)
    failed = sum(s["failed"] for _, s in rows)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{name}.{m}": v for name, s in rows
                                  for m, v in s["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse_args(argv)
    if not (SRC / "climdemand" / "__init__.py").is_file():
        print(f"error: no climdemand sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads

        for seed in workloads.data_seeds(args.workload, args.seed):
            workloads.BUILD[args.workload](seed, args.smoke)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    summary = summarize(result)
    save(result, summary)
    report(result, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

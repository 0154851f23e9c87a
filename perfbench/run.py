"""Benchmark of the dsrigidity verdict pipeline, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see BENCHMARK.json for why each exists):

* ``pair_analytic``: ``verify-identities`` then ``rigidity`` on each seeded
  pair at ``--quad 32x64``; a quarter of the pairs are non-isometric controls.
* ``sampled_grid``: ``geometry`` with all six checks on a sampled surface
  at ``resolution = 40x80``.
* ``regraph_image``: ``transport.transform_surface`` on seeded pairs with a
  32x64 regraph grid, checked by mapping every point back.

Each run is one process and one thread driving a closed loop: the next
verdict starts only when the previous one returns, and a new input starts
only if it is expected to end nearer to ``--seconds`` than the last one
did, so a run lasts ``--seconds`` give or take half an input.  Verdicts are
in-process calls, so interpreter start-up is measured apart, as ``setup_s``:
the median time of seven fresh interpreters that import the CLI and finish
one small warm-up verdict.

Times are wall times in reference seconds.  On a shared host the speed of
one core drifts by a fifth or more in phases of tens of seconds, as other
tenants load the caches and sibling threads it shares, longer than a run
can average out.  So a fixed reference loop of the benchmark's own
(``reference``: a Python loop over numpy scalars and whole-array numpy
arithmetic, no program code) runs between consecutive verdicts, and each
verdict's wall time is divided by the mean time of the reference loop on
either side of it and multiplied by ``REFERENCE_S``: a time in reference
seconds is the time on a core where the reference loop takes
``REFERENCE_S``.  The set-up probes are scaled the same way, by a
reference process on either side of each (``process_seconds``) and
``REFERENCE_PROCESS_S``.  Raw wall, CPU and reference times are kept in
the run record.

``--trace 0`` runs every verdict twice, requires identical bytes, and
reports the end-to-end metrics: ``verdict_s`` is the median scaled time of
all these runs, and ``nodes_per_s`` divides the nodes they evaluated by
the sum of their scaled times.
``--trace 1`` runs every verdict untraced and under the span recorder, in an
order that alternates from verdict to verdict, requires identical bytes, and
reports the per-layer metrics (per traced verdict) and the tracing overhead.
Units and directions of the metrics come from ``BENCHMARK.json``.
Inputs, the run record and the spans are written under ``.bench_out/``.
The last line of standard output is one JSON object whose ``correct`` is
false when any outcome differed from its expectation; the failed cases are
listed, with their inputs, on the lines above it.  A completed run exits 0;
``--workload all`` exits 1 if any workload reported a failed check.
"""

import argparse
import hashlib
import importlib.util
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pair_analytic", "sampled_grid", "regraph_image")
SETUP_REPEATS = 7
REPEATS = 2  # untraced runs of each verdict, each a timed sample
REFERENCE_S = 0.01  # reported times are wall times on a core where reference() takes this
REFERENCE_PROCESS_S = 0.3  # set-up times are wall times where process_seconds() gives this
REFERENCE_SHARE = 0.1  # reference loop time after each timed call, per second of the call
REFERENCE_MIN_S = 0.05  # and at least this


def reported_metrics(trace):
    """Entries of BENCHMARK.json for the metrics a run reports: per-layer when traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "dsrigidity").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed, size, seconds, trace):
    import numpy
    from dsrigidity import backend
    from workloads import SURFACES_PER_VERDICT

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend.active_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "size": f"{size[0]}x{size[1]}",
        "nodes_per_verdict": size[0] * size[1] * SURFACES_PER_VERDICT[workload],
        "seconds": seconds,
        "trace": trace,
    }


def _warmup_case(workload, seed, directory):
    from inputs import write_input
    from workloads import WARMUP_SIZES

    return write_input(workload, seed, 0, WARMUP_SIZES[workload], directory, "warmup")[0]


def reference():
    """Fixed work that gauges the core's speed: 8 to 12 ms on a current x86-64 server core.

    Its parts are those the verdicts spend their time on: a Python loop over
    numpy scalars with ``math`` calls, and whole-array numpy arithmetic.
    """
    import numpy as np  # after use_sources() has pinned numpy to one thread

    grid = np.linspace(0.1, 1.0, 2048)
    out = np.empty((2, 2))
    for k in range(1024):
        x = grid[k]
        for i in range(2):
            for j in range(2):
                out[i, j] = x * math.sin(x) + math.cosh(x) * grid[k + i + j] - 0.5 * x * x
    a = grid
    for _ in range(100):
        a = np.sin(a) * np.exp(-a) + np.sqrt(a + 1.0)
        out += np.einsum("i,j->ij", a[:2], a[-2:])
    return out


def loop_seconds(call_wall):
    """Mean wall time of reference() over runs lasting ``REFERENCE_SHARE`` of
    ``call_wall`` and at least ``REFERENCE_MIN_S``, so that the mean speaks for
    as long a stretch as the call it scales."""
    budget = max(REFERENCE_MIN_S, REFERENCE_SHARE * call_wall)
    runs, start = 0, time.perf_counter()
    while True:
        reference()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / runs


def process_seconds(_call_wall):
    """Wall time of a fresh interpreter that imports numpy and runs reference() 16 times.

    Start-up and imports depend on the host's memory and file-cache state more
    than on the speed of a core, which an in-process loop does not see.
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); from run import reference; "
            "[reference() for _ in range(16)]")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=150)
    return time.perf_counter() - start


class Pace:
    """Wall time of each timed call and of a reference on either side of it.

    ``reference_seconds(call_wall)`` runs the reference and returns its time;
    it is called once before the first call and once after each call.
    """

    def __init__(self, reference_seconds):
        self.reference_seconds = reference_seconds
        self.last = reference_seconds(0.0)

    def timed(self, func, *args):
        """(result, CPU s, wall s, reference s) of one call of ``func``."""
        before = self.last
        start, start_cpu = time.perf_counter(), time.process_time()
        result = func(*args)
        cpu, wall = time.process_time() - start_cpu, time.perf_counter() - start
        self.last = self.reference_seconds(wall)
        return result, cpu, wall, (before + self.last) / 2.0


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _probe(case):
    """Run the set-up probe once in a fresh interpreter; returns its CPU seconds."""
    start_cpu = _children_cpu()
    proc = subprocess.run(
        [sys.executable, str(HERE / "warmup.py"), case.command, case.config_path,
         f"{case.size[0]}x{case.size[1]}"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return _children_cpu() - start_cpu


def setup_seconds(case, repeats):
    """Median scaled time, and the raw (CPU, wall, reference) times, of the set-up probes."""
    pace = Pace(process_seconds)
    runs = [pace.timed(_probe, case) for _ in range(repeats)]
    scaled = [wall / ref * REFERENCE_PROCESS_S for _, _, wall, ref in runs]
    return statistics.median(scaled), [run[:1] + run[2:] for run in runs]


class Tally:
    """Verdicts attempted, failed verdicts with their inputs, tolerance headroom."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.headroom = []

    def add(self, case, reasons, headroom=None):
        """Count one verdict; it failed if any of ``reasons`` is not None."""
        self.attempted += 1
        reasons = [reason for reason in reasons if reason is not None]
        if reasons:
            self.failures.append(
                {"input": case.config_path, "command": case.command, "reason": "; ".join(reasons)}
            )
        if headroom is not None:
            self.headroom.append(headroom)


def _traced_execute(recorder, case):
    from workloads import execute

    with recorder.recording("verdict"):
        return execute(case)


def measure(workload, seed, seconds, size, directory, recorder=None):
    """Closed loop over seeded inputs for about ``seconds`` seconds.

    Without a recorder each case runs ``REPEATS`` times.  With one, each case runs untraced and traced, traced
    first on every other case so that neither side always runs warm.
    Returns (tally, per-case list of the (CPU, wall, reference) seconds of
    its untraced runs, per-case traced-over-untraced scaled time ratios).
    """
    from inputs import write_input
    from workloads import execute, grade, same_output

    tally = Tally()
    times, ratios = [], []
    reference()  # first calls of numpy functions are slower
    pace = Pace(loop_seconds)
    start = time.perf_counter()
    index = 0
    while True:
        cycle = time.perf_counter()
        for case in write_input(workload, seed, index, size, directory):
            if recorder is None:
                runs = [pace.timed(execute, case) for _ in range(REPEATS)]
                mismatch = "re-run is not byte-identical"
            else:
                plain, traced = (execute, case), (_traced_execute, recorder, case)
                if len(times) % 2:
                    traced_run, plain_run = pace.timed(*traced), pace.timed(*plain)
                else:
                    plain_run, traced_run = pace.timed(*plain), pace.timed(*traced)
                runs = [plain_run, traced_run]
                ratios.append((traced_run[2] / traced_run[3]) / (plain_run[2] / plain_run[3]))
                mismatch = "traced run differs from the untraced run"
            result = runs[0][0]
            reason, headroom = grade(case, result)
            same = all(same_output(result, again[0]) for again in runs[1:])
            tally.add(case, [reason, None if same else mismatch], headroom)
            untraced = runs if recorder is None else runs[:1]
            times.append([(cpu, wall, ref) for _, cpu, wall, ref in untraced])
        index += 1
        now = time.perf_counter()
        if now - start + (now - cycle) / 2.0 > seconds:
            break
    return tally, times, ratios


def run_workload(workload, seed, seconds, trace, size=None, setup_repeats=SETUP_REPEATS):
    """Run one workload; returns the result record (metrics, env, failures)."""
    import spans
    from workloads import DEFAULT_SIZES, SURFACES_PER_VERDICT, execute

    size = tuple(size or DEFAULT_SIZES[workload])
    directory = ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    env = environment(workload, seed, size, seconds, trace)

    warmup = _warmup_case(workload, seed, directory)
    setup, setup_raw = setup_seconds(warmup, setup_repeats) if trace == 0 else (None, [])
    warm = execute(warmup)
    if warm.error is not None:
        raise RuntimeError(f"warm-up verdict failed: {warm.error}")

    recorder = spans.Recorder() if trace else None
    tally, times, ratios = measure(workload, seed, seconds, size, directory, recorder)
    samples = [sample for runs in times for sample in runs]
    scaled = [wall / ref * REFERENCE_S for _, wall, ref in samples]

    failed = len(tally.failures)
    values = {"tol_headroom_dec": min(tally.headroom) if tally.headroom else 0.0,
              "failed_frac": failed / tally.attempted}
    nodes = size[0] * size[1] * SURFACES_PER_VERDICT[workload]
    if trace:
        values.update(spans.layer_metrics(recorder.spans, len(ratios)))
        values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        (directory / "spans.json").write_text(json.dumps(recorder.spans))
    else:
        values.update({
            "setup_s": setup,
            "verdict_s": statistics.median(scaled),
            "nodes_per_s": nodes * len(scaled) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    record = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported_metrics(trace)},
        "env": env,
        "tol_headroom_dec": values["tol_headroom_dec"],
        "setup_cpu_wall_reference_s": setup_raw,
        "verdict_scaled_s": scaled,
        "verdict_cpu_wall_reference_s": times,
        "traced_over_untraced": ratios,
        "failures": tally.failures,
    }
    (directory / "result.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record):
    print("env " + json.dumps(record["env"], sort_keys=True))
    better = {m["name"]: m["better"] for m in reported_metrics(record["env"]["trace"])}
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']} "
              f"({better[name]} is better)")
    print(f"verdicts {record['attempted']} attempted in {len(record['verdict_scaled_s'])} timed runs, "
          f"{record['failed']} failed (failed_frac {record['failed'] / record['attempted']:.6g}), "
          f"tol_headroom_dec {record['tol_headroom_dec']:.6g}")
    for failure in record["failures"]:
        print(f"FAILED {failure['command']} {failure['input']}: {failure['reason']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args):
    """Every workload in its own process; returns 1 if any outcome check failed."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_sources():
    """Import ``dsrigidity`` from this checkout's ``src``; returns an error or None."""
    if not (SRC / "dsrigidity" / "__init__.py").is_file():
        return f"no dsrigidity sources under {SRC}"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, before numpy loads
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dsrigidity

    if Path(dsrigidity.__file__).resolve().parent != SRC / "dsrigidity":
        return f"imported dsrigidity from {dsrigidity.__file__}, not from {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = use_sources()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

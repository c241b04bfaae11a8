"""Benchmark driver: one workload, one seed, one process, one task at a time.

    python3 bench/run.py --workload {certify,exact,decide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Set-up (import, input
generation, writing input files) is repeated several times and timed.  Then
whole passes over the workload's fixed task list repeat for about
``--seconds``.  Every duration is scaled by the host's speed at the time,
measured with a fixed reference computation (see :class:`Speed`).  Every
task's output is checked: its first execution independently, later
executions for identical output, and, with the default seed, against
``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones; it also writes the spans of the first traced pass to
``.bench_run/``.  The last line on standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback

import oracles
import tracing
import workloads

DEFAULT_SEED = 1
SETUP_REPEATS = 9
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WALL_TIME = re.compile(r'"wall_time_ms": [-+.0-9eE]+')


def import_library():
    """Import the package from the checkout's src/, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "erdosrogers" or m.startswith("erdosrogers.")]:
        del sys.modules[name]
    api = importlib.import_module("erdosrogers")
    importlib.import_module("erdosrogers.cli")
    return api


def set_up(workload: str, seed: int, workdir: str):
    """One full set-up; returns the library module and the task list."""
    make_inputs, make_tasks = workloads.WORKLOADS[workload]
    api = import_library()
    inputs = make_inputs(seed)
    if workload == "certify":
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        patterns = workloads.write_patterns(workdir)
        return api, make_tasks(api, inputs, workdir, patterns)
    return api, make_tasks(api, inputs)


# A fixed 3-graph for the reference computation (the benchmark's own code,
# never the library's), and the time that computation takes on the 2-vCPU
# x86 VM the benchmark was tuned on, when that host runs at full speed.
REFERENCE_GRAPH = (12, workloads.random_edges(workloads.random.Random("reference"), 12, 0.3))
REFERENCE_S = 0.0007


def reference_work() -> None:
    n, edges = REFERENCE_GRAPH
    oracles.max_free_subset(n, oracles.k4_copies(edges))
    oracles.has_copy(workloads.C5_MINUS, 5, edges, n)
    oracles.isomorphic(n, edges, edges)


class Speed:
    """How fast the host runs, from the reference computation timed between tasks.

    A shared host slows down by up to 2x, for seconds to minutes, with the
    load of its other tenants.  So every measured duration is scaled by
    ``REFERENCE_S`` over the time the reference took around it: durations
    are reported as on a host where the reference takes ``REFERENCE_S``.
    A change to the library does not touch the reference, so it moves the
    scaled durations as it moves the measured ones.
    """

    GAP_S = 0.05  # at most this long between probes, except during a task

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def probe_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.GAP_S:
            self.probe()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, scaled by the median of the two
        probes before and the two after it."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_right(self.ends, start + seconds)
        around = self.times[max(0, before - 2):before] + self.times[after:after + 2]
        return seconds * REFERENCE_S / statistics.median(around)


class Pass:
    """The executions of one pass: (task index, seconds, error, same), where
    ``seconds`` is scaled by :class:`Speed` and ``same`` says whether the
    outcome equals the task's first one.  ``measured_s`` is the unscaled
    total."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.runs: list[tuple] = []
        self.measured_s = 0.0


def report_bytes(stdout: str) -> int:
    """Size of a JSON report with its wall-time digits blanked, so the count
    repeats exactly from run to run."""
    return len(WALL_TIME.sub('"wall_time_ms": 0', stdout).encode())


def run_pass(tasks, firsts: dict, speed: Speed, tracer=None) -> Pass:
    """Run every task of the list once, timing only the calls into the library.

    ``firsts`` maps a task index to the (error, summary) of its first
    execution in the run; later outputs are compared to it and dropped, so
    memory does not grow with the number of passes.
    """
    result = Pass(tracer)
    timed = []
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.current_task = index
        error, raw, summary = None, None, None
        speed.probe_if_due()
        t0 = time.perf_counter()
        try:
            raw = task.run()
        except Exception as exc:  # a failing task is recorded, the run goes on
            error = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - t0
        if error is None:
            if tracer is not None and isinstance(raw, workloads.CliOutcome):
                tracer.count("cli.report_bytes", report_bytes(raw.stdout))
            try:
                summary = task.summarize(raw)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        outcome = (error, summary)
        same = firsts.setdefault(index, outcome) == outcome
        timed.append((index, t0, seconds, error, same))
    speed.probe()
    for index, t0, seconds, error, same in timed:
        result.runs.append((index, speed.scale(t0, seconds), error, same))
        result.measured_s += seconds
    return result


def judge(tasks, passes, firsts, reference) -> tuple[int, int, list]:
    """Count failed executions; returns (failed, wrong, messages).

    An execution fails if it raised, or its output fails the independent
    check (first execution of the task), differs from the task's first
    execution, or differs from the pinned reference.  ``wrong`` counts only
    the output failures, not the raises.
    """
    verdicts = {}
    for index, (error, summary) in firsts.items():
        if error is not None:
            continue
        task = tasks[index]
        try:
            verdict = task.check(summary)
        except Exception:
            verdict = "check crashed: " + traceback.format_exc(limit=3)
        if verdict is None and task.name in reference:
            if task.pin(summary) != reference[task.name]:
                verdict = f"differs from reference {reference[task.name]!r}"
        verdicts[index] = verdict
    failed = wrong = 0
    messages = []
    for p in passes:
        for index, _, error, same in p.runs:
            name = tasks[index].name
            if error is not None:
                failed += 1
                wrong += error.startswith("unreadable")
                messages.append(f"{name}: {error}")
            elif verdicts.get(index) is not None:
                failed += 1
                wrong += 1
                messages.append(f"{name}: {verdicts[index]}")
            elif not same:
                failed += 1
                wrong += 1
                messages.append(f"{name}: output differs between executions")
    return failed, wrong, sorted(set(messages))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def task_medians(tasks, passes) -> list[float]:
    """Each task's median scaled duration over all its executions, in task
    order.  A burst of noise slows one execution of a task, not its median."""
    durations = [[] for _ in tasks]
    for p in passes:
        for index, seconds, _, _ in p.runs:
            durations[index].append(seconds)
    return [statistics.median(ds) for ds in durations]


def end_to_end(tasks, setup_times, passes, attempted, failed) -> dict:
    ms = [d * 1000.0 for d in task_medians(tasks, passes)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(ms) / 1000.0, "s"),
        "task_ms.p50": (statistics.median(ms), "ms"),
        "task_ms.p90": (percentile(ms, 90), "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tasks, traced, untraced) -> tuple[dict, list]:
    """Median self times and first-pass counts; counts must agree across passes."""
    per_pass = [p.tracer.layer_metrics() for p in traced]
    out, mismatches = {}, []
    for name, kind, _ in tracing.METRICS:
        values = [m[name] for m in per_pass]
        if kind == "self":
            out[name] = (statistics.median(values), "s")
        else:
            if any(v != values[0] for v in values):
                mismatches.append(f"{name} differs between traced passes: {values}")
            unit = "frac" if kind == "ratio" else "B" if "bytes" in name else "count"
            out[name] = (values[0], unit)
    overhead = sum(task_medians(tasks, traced)) / sum(task_medians(tasks, untraced)) - 1.0
    out["trace.overhead_frac"] = (overhead, "frac")
    return out, mismatches


def format_reference(doc: dict) -> str:
    """JSON with one line per pinned task, so a changed pin shows as one line."""
    blocks = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines = ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(pin, separators=(',', ':'))}"
                for name, pin in sorted(value.items())
            )
            blocks.append(f" {json.dumps(key)}: {{\n{lines}\n }}")
        else:
            blocks.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's checked outputs as the default-seed reference")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "erdosrogers", "__init__.py")):
        print(f"bench: no library sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Inputs are passed to erog as paths relative to the checkout root, so
    # reports (and their byte counts) do not depend on where it lives.
    os.chdir(ROOT)
    workdir = os.path.join(os.path.relpath(RUN_DIR, ROOT), f"work-{args.workload}")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    speed = Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = time.perf_counter()
        api, tasks = set_up(args.workload, args.seed, workdir)
        seconds = time.perf_counter() - t0
        speed.probe()
        setup_times.append(speed.scale(t0, seconds))
    if not os.path.abspath(api.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"bench: imported {api.__file__}, not the checkout's library", file=sys.stderr)
        return 2
    gc.collect()

    untraced, traced, firsts = [], [], {}
    start = time.perf_counter()
    while True:
        tracer = None
        if args.trace and len(traced) < len(untraced):
            tracer = tracing.Tracer()
            tracer.install(api)
        try:
            p = run_pass(tasks, firsts, speed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        (traced if tracer is not None else untraced).append(p)
        # Start another pass only while it is expected to end by --seconds,
        # so a run never lasts much longer than asked.
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(untraced + traced)
        enough = len(traced) >= 1 if args.trace else True
        if enough and elapsed + per_pass > args.seconds:
            break

    passes = untraced + traced
    reference = {}
    if args.seed == DEFAULT_SEED and not args.write_reference:
        with open(REFERENCE) as f:
            reference = json.load(f)[args.workload]
    failed, wrong, messages = judge(tasks, passes, firsts, reference)
    attempted = sum(len(p.runs) for p in passes)
    for line in messages:
        print(f"bench: {args.workload}: {line}", file=sys.stderr)

    if args.trace:
        metrics, mismatches = per_layer(tasks, traced, untraced)
        for line in mismatches:
            print(f"bench: {args.workload}: {line}", file=sys.stderr)
        traced[0].tracer.dump(os.path.join(
            RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        wrong += len(mismatches)
    else:
        metrics = end_to_end(tasks, setup_times, passes, attempted, failed)

    if args.write_reference:
        if wrong:
            print("bench: not writing a reference from a run with wrong outputs",
                  file=sys.stderr)
            return 1
        doc = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                doc = json.load(f)
        doc["seed"] = DEFAULT_SEED
        # Tasks that raise today get no entry, so a fix is not flagged.
        doc[args.workload] = {
            tasks[index].name: tasks[index].pin(summary)
            for index, (error, summary) in sorted(firsts.items())
            if error is None
        }
        with open(REFERENCE, "w") as f:
            f.write(format_reference(doc))

    samples = [0] * len(tasks)
    for p in untraced:
        for index, *_ in p.runs:
            samples[index] += 1
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={len(tasks)} passes={len(untraced)}+{len(traced)} "
          f"untraced_samples_per_task={min(samples)}..{max(samples)} "
          f"measured_pass_s={statistics.median(p.measured_s for p in untraced):.3f} "
          f"reference_ms={1000 * statistics.median(speed.times):.3f} "
          f"attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

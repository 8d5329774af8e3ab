"""knowmatch benchmark: one workload, one process, one sequential caller.

    python3 bench/run.py --workload slash_train --seed 7 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``knowmatch`` from
``src/`` there and writes only under ``.bench_work/``. Workloads are listed
in ``bench/workloads.py``.

A run sets up the workload five times: each set-up imports the program in
a fresh interpreter and generates the inputs (and, for the scoring
workload, its checkpoint). One untimed pass of ``run_prepare``,
``run_train`` (training workloads) and ``evaluate`` on the test split warms
up and writes every artifact. Then the public harness calls repeat in a
closed loop until ``--seconds``, warm-up included, are used up, each phase
at least twice: the next call is always to the phase that has had the
least wall time so far. So each phase gets an equal share of the run, and
the short phases are called between the long ones all through it, not in
one burst.

Every call is timed twice: in wall seconds and in CPU seconds of the
calling thread, which runs all of the program's work. On a shared virtual
machine the hypervisor and other tenants can take a third of the wall
clock for minutes at a time; thread CPU seconds exclude that time, and
also exclude the BLAS worker threads, which on these matrix sizes only
spin (a run with ``OPENBLAS_NUM_THREADS=1`` has the same wall time, and its
wall time equals this thread time). Even thread CPU time per call swings
by up to 1.7 times there, as neighbours share the physical cores, for
stretches of seconds to minutes, so call times gather in a fast and a slow
mode whose shares change from run to run. Sampled all through the run, the
mean call of a phase repeats better from run to run than the fastest call
(which needs the neighbours to pause) or the median call (which jumps from
one mode to the other). So the figures in the JSON result
(``pipeline_cpu_s``, ``prepare_pairs_per_cpu_s``, ``eval_pairs_per_cpu_s``)
come from each phase's mean call in thread CPU seconds, that is its pairs
over its CPU seconds in the run, ``pipeline`` being the sum over the three
phases; ``setup_s`` is the median thread CPU time of the five set-ups. The
wall-clock means (``pipeline_s``, ``prepare_pairs_per_s``,
``train_pairs_per_s``, ``eval_pairs_per_s``) are printed, and the fastest
calls are in the report. If the program starts doing useful work on other
threads, the gated figures must move to wall time.

Every phase call and every output check is one operation; ``error_rate`` is
failed operations over attempted ones. The checks: each call returns, the
prepared split sizes equal the generated ones, every serialized length fits
``max_len`` (checked on each distinct batch file), every logged loss is
finite, ``evaluate`` scores exactly the test pairs, and every artifact
(inputs, batch files, checkpoint, loss log, metrics) hashes the same on
every call of the run.

With ``--trace 1`` the calls of each phase alternate untraced and traced
(see ``bench/spans.py``), then the encoder step split is timed on a fixed
sample of the workload's own batches, and the per-layer metrics are
reported.

BLAS threads are left as the environment sets them and only recorded.
The last line of standard output is the JSON result; the line before it
is a JSON report with the environment stamp, artifact hashes, checks and
every figure measured.
"""

from __future__ import annotations

import argparse
import hashlib
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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

SETUPS = 5
MIN_CALLS = 2   # timed calls of each phase, however short the run
PHASES = ("prepare", "train", "eval")

# In the JSON result with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "pipeline_cpu_s": "cpu_s",
    "prepare_pairs_per_cpu_s": "1/cpu_s",
    "eval_pairs_per_cpu_s": "1/cpu_s",
    "peak_rss_mb": "MB",
}
# Printed and reported only: wall-clock means, figures that do not exist
# on the scoring workload, and the error rate (0 on a passing run).
REPORTED = {
    "setup_wall_s": "s",
    "pipeline_s": "s",
    "prepare_pairs_per_s": "1/s",
    "train_pairs_per_s": "1/s",
    "train_pairs_per_cpu_s": "1/cpu_s",
    "eval_pairs_per_s": "1/s",
    "error_rate": "fraction",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import ``knowmatch`` from this checkout's ``src/``, never from
    anywhere else."""
    src = ROOT / "src"
    if not (src / "knowmatch" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no knowmatch sources under {src}")
    sys.path.insert(0, str(src))
    import knowmatch

    if Path(knowmatch.__file__).resolve().parent != src / "knowmatch":
        raise SystemExit(f"benchmark: imported knowmatch from {knowmatch.__file__}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


class Timings:
    """Per-phase wall and thread-CPU seconds of every call."""

    def __init__(self) -> None:
        self.wall = {p: [] for p in PHASES}
        self.cpu = {p: [] for p in PHASES}

    def add(self, phase: str, wall: float, cpu: float) -> None:
        self.wall[phase].append(wall)
        self.cpu[phase].append(cpu)

    def rates(self, kind: str, stat, pairs: dict[str, int], epochs: int) -> dict[str, float]:
        """Phase throughputs and the pipeline seconds, from ``stat`` (min or
        mean) of each phase's call times on clock ``kind``."""
        seconds = {p: stat(c) if c else math.nan for p, c in getattr(self, kind).items()}
        return {
            "pipeline": sum(v for v in seconds.values() if not math.isnan(v)),
            "prepare": sum(pairs.values()) / seconds["prepare"],
            "train": pairs.get("train", 0) * epochs / seconds["train"],
            "eval": pairs["test"] / seconds["eval"],
        }

    def calls(self, phase: str) -> int:
        return len(self.wall[phase])

    def counts(self) -> dict[str, int]:
        return {p: len(c) for p, c in self.wall.items() if c}


class Run:
    """Operations, checks and artifact hashes of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.checks: Counter[str] = Counter()
        self.failures: list[str] = []
        self.hashes: dict[str, set[str]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def call(self, name: str, fn):
        """Call one phase; returns (wall s, CPU s, result), result None on error."""
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed call is a measured outcome
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - wall, time.thread_time() - cpu, result

    def fingerprint(self, name: str, path: Path) -> bool:
        """Record the file's hash; True if this run has not seen it before."""
        if not path.is_file():
            return False
        seen = self.hashes.setdefault(name, set())
        digest = _sha256(path)
        new = digest not in seen
        seen.add(digest)
        return new

    def check_determinism(self) -> None:
        for name, seen in sorted(self.hashes.items()):
            self.check(f"deterministic {name}", len(seen) == 1, f"{len(seen)} distinct hashes")


class Bench:
    """Runs one workload's phases against the harness."""

    def __init__(self, harness, workload, inputs, run: Run, tracer=None) -> None:
        self.inputs = inputs
        self.run = run
        self.config = inputs.config
        self.out_dir = Path(inputs.config.out_dir)
        self.harness = harness
        self.tracer = tracer
        self.records = {p: [] for p in PHASES}   # traced calls' spans
        # Taken before tracing wraps the harness names, so checks are not traced.
        self.read_batch_file = harness.read_batch_file
        self.calls = {
            "prepare": lambda: harness.run_prepare(self.config),
            "train": lambda: harness.run_train(self.config),
            "eval": lambda: harness.evaluate(self.config, "test", checkpoint=inputs.checkpoint),
        }
        if not workload.trains:
            del self.calls["train"]
        self.f1: float | None = None
        self.final_loss: float | None = None

    def call(self, phase: str, timings: Timings | None, traced: bool = False) -> float | None:
        """Call one phase and check its outputs; returns its wall seconds,
        None if it raised. Times go to ``timings`` unless it is None."""
        fn = self.calls[phase]
        if traced:
            import spans

            with spans.instrument(self.harness, self.tracer), self.tracer.span(f"harness.{phase}"):
                wall, cpu, result = self.run.call(phase, fn)
            self.records[phase].append(self.tracer.take())
        else:
            wall, cpu, result = self.run.call(phase, fn)
        if result is None:
            return None
        if timings is not None:
            timings.add(phase, wall, cpu)
        self.after(phase, result)
        return wall

    def after(self, phase: str, result) -> None:
        """Fingerprint a call's artifacts and check its outputs."""
        run, out = self.run, self.out_dir
        if phase == "prepare":
            batch_files = sorted((out / "batches").glob("*.jsonl"))
            new = [p for p in batch_files if run.fingerprint(f"batches/{p.name}", p)]
            run.check(
                "prepared split sizes", result.get("splits") == self.inputs.pairs,
                f"{result.get('splits')} != {self.inputs.pairs}",
            )
            if new:
                lengths = [len(line["tokens"]) for path in new for line in self.read_batch_file(path)]
                run.check(
                    "serialized length <= max_len",
                    max(lengths, default=0) <= self.config.max_len,
                    f"max {max(lengths, default=0)}",
                )
        elif phase == "train":
            run.fingerprint("checkpoint.bin", out / "checkpoint.bin")
            run.fingerprint("loss_log.jsonl", out / "loss_log.jsonl")
            with open(out / "loss_log.jsonl", encoding="utf-8") as fh:
                losses = [json.loads(line)["loss"] for line in fh if line.strip()]
            run.check(
                "losses finite",
                len(losses) == result["steps"] and all(math.isfinite(v) for v in losses),
                f"{len(losses)} logged for {result['steps']} steps",
            )
            self.final_loss = result["final_loss"]
        else:
            run.fingerprint("metrics_test.json", out / "metrics_test.json")
            scored = len(result.per_example_correct)
            self.f1 = result.f1
            run.check(
                "evaluate scores the test pairs",
                scored == self.inputs.pairs["test"]
                and result.tp + result.fn == self.inputs.test_positives,
                f"{scored} scored, {result.tp + result.fn} positives",
            )

    def measure(self, seconds: float, plain: Timings, traced: Timings) -> int:
        """Warm up, then call the phases in a closed loop until ``seconds``
        have passed since the warm-up began; returns the number of timed
        calls. With a tracer, each phase's calls alternate untraced (into
        ``plain``) and traced (into ``traced``)."""
        start = time.perf_counter()
        for phase in self.calls:
            if self.call(phase, None) is None:
                return 0
        spent = dict.fromkeys(self.calls, 0.0)   # wall seconds per phase
        last = dict.fromkeys(self.calls, 0.0)    # wall seconds of its last call
        done = Counter()
        while True:
            phase = min(self.calls, key=lambda p: (done[p] >= MIN_CALLS, spent[p]))
            if done[phase] >= MIN_CALLS and time.perf_counter() - start + last[phase] > seconds:
                return sum(done.values())
            tracing = self.tracer is not None and done[phase] % 2 == 1
            wall = self.call(phase, traced if tracing else plain, traced=tracing)
            if wall is None:
                return sum(done.values())
            spent[phase] += wall
            last[phase] = wall
            done[phase] += 1


def _import_seconds() -> tuple[float, float]:
    """(wall, CPU) seconds of ``import knowmatch.harness`` in a fresh
    interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "w, c = time.perf_counter(), time.thread_time(); import knowmatch.harness; "
        "print(time.perf_counter() - w, time.thread_time() - c)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    wall, cpu = proc.stdout.split()
    return float(wall), float(cpu)


def _setup(workload, work: Path, seed: int, size, run: Run):
    """Set up SETUPS times; returns (inputs, median wall s, median CPU s)."""
    walls, cpus = [], []
    inputs = None
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        import_wall, import_cpu = _import_seconds()
        wall, cpu = time.perf_counter(), time.thread_time()
        inputs = workload.make_inputs(work, seed, size)
        walls.append(import_wall + time.perf_counter() - wall)
        cpus.append(import_cpu + time.thread_time() - cpu)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            run.fingerprint(f"inputs/{path.relative_to(work)}", path)
    return inputs, statistics.median(walls), statistics.median(cpus)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    _import_program()
    from knowmatch import harness

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]

    run = Run()
    inputs, setup_wall, setup_cpu = _setup(
        workload, WORK_ROOT / workload.name, args.seed, size, run
    )
    bench = Bench(harness, workload, inputs, run, tracer=spans.Tracer() if args.trace else None)
    plain, traced = Timings(), Timings()
    timed_calls = bench.measure(args.seconds, plain, traced)
    run.check_determinism()

    pairs, epochs = inputs.pairs, inputs.config.epochs
    cpu_mean = plain.rates("cpu", statistics.fmean, pairs, epochs)
    cpu_best = plain.rates("cpu", min, pairs, epochs)
    wall = plain.rates("wall", statistics.fmean, pairs, epochs)
    figures = {
        "setup_s": setup_cpu,
        "pipeline_cpu_s": cpu_mean["pipeline"],
        "prepare_pairs_per_cpu_s": cpu_mean["prepare"],
        "eval_pairs_per_cpu_s": cpu_mean["eval"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": setup_wall,
        "pipeline_s": wall["pipeline"],
        "prepare_pairs_per_s": wall["prepare"],
        "eval_pairs_per_s": wall["eval"],
        "error_rate": len(run.failures) / run.attempted,
    }
    if workload.trains:
        figures["train_pairs_per_s"] = wall["train"]
        figures["train_pairs_per_cpu_s"] = cpu_mean["train"]
    units = {**END_TO_END, **REPORTED}

    if args.trace:
        layers = spans.layer_metrics(bench.records)
        traced_cpu = traced.rates("cpu", statistics.fmean, pairs, epochs)
        layers["trace_overhead_frac"] = traced_cpu["pipeline"] / cpu_mean["pipeline"] - 1.0
        if not run.failures:
            split = "train" if workload.trains else "test"
            layers.update(
                spans.step_split(
                    bench.out_dir / "batches" / f"{split}.jsonl",
                    inputs.checkpoint or bench.out_dir / "checkpoint.bin",
                    inputs.config.lr, sample=workload.step_sample, repeats=workload.step_repeats,
                )
            )
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, (unit, _better) in spans.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):  # only after a failed phase
            entry["value"] = 0.0

    print(
        f"workload {workload.name}  seed {args.seed}  size {args.size}  "
        f"timed calls {timed_calls}: untraced {plain.counts()}, traced {traced.counts()}"
    )
    for name, value in figures.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if args.trace:
        for name, entry in metrics.items():
            note = f"  (derived: {spans.DERIVED[name]})" if name in spans.DERIVED else ""
            print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}{note}")
    if bench.f1 is not None:
        print(f"  test_f1 {bench.f1:.4f} (reported, not gated)")
    if bench.final_loss is not None:
        print(f"  final_loss {bench.final_loss:.6f} (reported, not gated)")
    print(f"  operations {run.attempted}, failed {len(run.failures)}")
    for failure in run.failures:
        print(f"  FAILED {failure}")

    report = {
        "environment": _environment(args.seed),
        "workload": workload.name,
        "size": args.size,
        "calls": {p: plain.calls(p) + traced.calls(p) for p in PHASES},
        "figures": figures,
        "cpu_best": cpu_best,
        "units": units,
        "test_f1": bench.f1,
        "final_loss": bench.final_loss,
        "artifact_sha256": {k: sorted(v) for k, v in sorted(run.hashes.items())},
        "checks": dict(sorted(run.checks.items())),
        "failures": run.failures,
        "derived": spans.DERIVED if args.trace else {},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())

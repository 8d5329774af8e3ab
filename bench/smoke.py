"""Run every workload, with tracing off and on, and check what each run prints.

    python3 bench/smoke.py               # tiny inputs, about a minute
    python3 bench/smoke.py --size full   # benchmark inputs, about four minutes

For every run it checks that the run exits 0, that the result line carries
exactly the metrics ``BENCHMARK.json`` declares with their units, that the
output checks ran and passed, and that every end-to-end figure is printed
by name with its unit; it echoes each run's printed figures. It also checks
that the benchmark refuses to run, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PRINTED = {
    "setup_s": "s", "setup_wall_s": "s", "pipeline_cpu_s": "cpu_s", "pipeline_s": "s",
    "prepare_pairs_per_cpu_s": "1/cpu_s", "prepare_pairs_per_s": "1/s",
    "eval_pairs_per_cpu_s": "1/cpu_s", "eval_pairs_per_s": "1/s",
    "peak_rss_mb": "MB", "error_rate": "fraction",
}
TRAINING_ONLY = {"train_pairs_per_s": "1/s", "train_pairs_per_cpu_s": "1/cpu_s"}
CHECKS = ("prepared split sizes", "serialized length <= max_len", "evaluate scores the test pairs")
DETERMINISM = ("deterministic batches/test.jsonl", "deterministic metrics_test.json")
TRAINING_CHECKS = ("losses finite", "deterministic checkpoint.bin", "deterministic loss_log.jsonl")


def _run(cwd: Path, workload: str, trace: int, size: str) -> subprocess.CompletedProcess:
    seconds = SPEC["run_seconds"] if size == "full" else 1
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", str(seconds),
           "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int, size: str) -> None:
    proc = _run(ROOT, workload, trace, size)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected, f"{workload}: metrics {got} != {expected}"
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())

    report = json.loads(lines[-2])["report"]
    trains = "train_pairs_per_s" in report["figures"]
    wanted = CHECKS + DETERMINISM + (TRAINING_CHECKS if trains else ())
    missing = [name for name in wanted if not report["checks"].get(name)]
    assert not missing, f"{workload}: checks did not run: {missing}"
    assert report["calls"]["prepare"] >= 2 and report["calls"]["eval"] >= 2, report["calls"]
    assert report["environment"]["workload_seed"] == 3

    printed = {**PRINTED, **(TRAINING_ONLY if trains else {})}
    if trace:
        printed.update(expected)
    for name, unit in printed.items():
        assert any(line.split()[:3:2] == [name, unit] for line in lines), (
            f"{workload}: {name} not printed with unit {unit}"
        )
    print("\n".join(lines[:-2]))
    print(f"ok  {workload} trace {trace}: {result['attempted']} operations, none failed\n")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "slash_train", 0, "tiny")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the program sources"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    print(f"ok  bare directory refused (exit {proc.returncode})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    size = parser.parse_args().size
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace, size)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

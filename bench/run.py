"""Seeded sweep benchmark for boolbruhat.

    python3 bench/run.py --workload grade-s7|pairs-s8|boolean-scan-s9|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from `src/`.
Each workload runs in fresh interpreters (bench/worker.py), one at a time, so
program caches start cold and peak memory is the workload's own.

--trace 0 prints the end-to-end metrics: the median set-up time of several
fresh interpreters (`setup_s`), the time of the fixed case list (`sweep_s`),
the median and tail case times, peak memory and the failure share. The tail
is the highest percentile with at least ten cases beyond it.

--trace 1 runs the case list with every public library function wrapped
(bench/spans.py) and prints the per-layer metrics, with the tracing overhead
against a plain run of every fourth case.

Times are scaled to a fixed machine speed (bench/speed.py), because the
speed of a shared host drifts by tens of percent during a run; the unscaled
values are printed on a comment line and kept in the record.

Every answer is checked outside the timer. The last line of stdout is one
JSON object; the full record, with the Python version, n, seed, case count,
nproc, tail percentile and commit, is written to .bench_out/. The exit code
is 1 when any answer is wrong and 2 when there is no library to run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from spans import NOTE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grade-s7", "pairs-s8", "boolean-scan-s9")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # per workload
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    pass


def worker(name, seed, seconds, mode, deadline, *flags) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *flags]
    return json.loads(_run(cmd, deadline).splitlines()[-1])


def _run(cmd, deadline) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{' '.join(cmd[1:])} did not finish in time") from exc
    if done.returncode != 0:
        raise WorkerError(f"{' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten values
    beyond it; the maximum when there are too few values."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = count - TAIL_BEYOND
    return 100.0 * rank / count, ordered[rank - 1]


def end_to_end(sweep: dict, setups: list[dict], prefix: str = "") -> dict:
    """The end-to-end metrics; prefix "raw_" reads the unscaled times."""
    case_s = sweep[prefix + "case_s"]
    return {
        "setup_s": {"value": statistics.median(s[prefix + "setup_s"] for s in setups), "unit": "s"},
        "sweep_s": {"value": sweep[prefix + "sweep_s"], "unit": "s"},
        "case_ms_p50": {"value": 1000 * statistics.median(case_s), "unit": "ms"},
        "case_ms_tail": {"value": 1000 * tail(case_s)[1], "unit": "ms"},
        "peak_rss_mb": {"value": sweep["peak_rss_mb"], "unit": "MB"},
    }


def measure(name, seed, seconds, trace, deadline) -> dict:
    """Every worker run of one workload, folded into one record.

    --trace 1 runs the traced sweep and, for the overhead, a plain sweep of
    every OVERHEAD_SAMPLE-th case, which keeps the run well inside its time.
    """
    _run([sys.executable, "-c", "import boolbruhat"], deadline)  # compile once, untimed
    if trace:
        runs = [worker(name, seed, seconds, "sweep", deadline, "--trace"),
                worker(name, seed, seconds, "sweep", deadline, "--sample")]
    else:
        runs = [worker(name, seed, seconds, "sweep", deadline)]
    main = runs[0]
    record = {
        "workload": name,
        "n": main["n"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cases": main["cases"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "cold_caches": main["cold_caches"],
        "round_s": main["round_s"],
        "tail_percentile": tail(main["case_s"])[0],
    }
    if trace:
        record["metrics"] = dict(main["per_layer"])
        record["metrics"]["trace.overhead_frac"] = {
            "value": main["sample_sweep_s"] / runs[1]["sample_sweep_s"] - 1, "unit": "ratio"}
        record["absent"] = main["absent"]
        record["note"] = NOTE
        record["functions"] = main["functions"]
        record["counts"] = main["counts"]
    else:
        setups = [worker(name, seed, seconds, "setup", deadline)
                  for _ in range(SETUP_SAMPLES - 1)] + [main]
        record["metrics"] = end_to_end(main, setups)
        record["raw_metrics"] = end_to_end(main, setups, "raw_")
        record["setup_samples"] = [s["setup_s"] for s in setups]
    record["fail_frac"] = record["failed"] / record["attempted"]
    return record


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def commit():
    """HEAD of the checkout's git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.rglob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def report(record: dict, env: dict) -> None:
    name = record["workload"]
    print(
        f"# {name}: n={record['n']} seed={record['seed']} cases={record['cases']} "
        f"python={env['python']} nproc={env['nproc']} commit={env['commit'] or 'none'} "
        f"tail=p{record['tail_percentile']:.2f} ({TAIL_BEYOND} cases beyond)"
    )
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    if "raw_metrics" in record:
        raw = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in record["raw_metrics"].items())
        print(f"# {name} unscaled: {raw}")
    print(f"{name} fail_frac {record['fail_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for line in record["failures"]:
        print(f"# {name} failure: {line}")
    if record["trace"]:
        print(f"# {name} absent: {', '.join(record['absent']) or 'none'}")
        print(f"# {name} {record['note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boolbruhat" / "__init__.py").is_file():
        print(f"no library at {SRC / 'boolbruhat'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = monotonic() + DEADLINE_S * len(names)
    env = environment()
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds, bool(args.trace), deadline))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for record in records:
        report(record, env)
        path = OUT / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**env, **record}, indent=1))
    result = result_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_line(records) -> dict:
    """The final JSON object; metrics are prefixed by workload when several ran."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    return {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())

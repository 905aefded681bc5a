"""One measured sweep of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|sweep [--trace] [--sample]

Prints one JSON object on stdout. `setup` mode only times the import and the
once-per-sweep set-up; `sweep` mode also runs the fixed case list in a closed
loop, timing each case's program calls and checking its answers outside the
timer. With --trace the library is wrapped by `spans.Tracer` first.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from time import perf_counter

import speed

SETUP_PROBES = 5  # reference probes on each side of the timed set-up
SWEEP_PROBES = 5  # around each round's enumeration step and at the end
OVERHEAD_SAMPLE = 4  # the untimed-tracing comparison runs every 4th case


class ColdStartError(RuntimeError):
    """A program cache held entries before set-up began."""


def program_caches() -> dict:
    """Every functools cache bound in a loaded package module, by name."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "boolbruhat" or mod_name.startswith("boolbruhat.")):
            continue
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None)):
                found.setdefault(f"{obj.__module__}.{attr}", obj)
    return found


def clear_caches() -> None:
    for cache in program_caches().values():
        cache.cache_clear()


def cold_start_check() -> dict:
    """Entries per program cache; raises unless every one is empty, so that
    set-up time is never measured warm."""
    sizes = {name: cache.cache_info().currsize for name, cache in program_caches().items()}
    warm = {name: size for name, size in sizes.items() if size}
    if warm:
        raise ColdStartError(f"program caches not empty before set-up: {warm}")
    return sizes


def sweep(workload, n, ctx, plan, tracer=None, keep_verdicts=False, sample_only=False) -> dict:
    """Run every round of the plan; one case starts when the previous returns.

    sweep_s adds up the timed enumeration steps and program calls, so it runs
    from the first case to the last verdict with the checks left out. A case
    input's time is the median over the rounds that ran it. Times are scaled
    to the reference speed (speed.py); raw_* are as measured. sample_sweep_s
    counts only every OVERHEAD_SAMPLE-th case of each round, the only ones
    run when `sample_only` is set; the tracing overhead is read from it.
    """
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    speedo = speed.Speedometer()
    enum_at: list[tuple[float, float]] = []  # (start, end) per round
    case_at: list[tuple[float, float]] = []
    case_round: list[int] = []
    case_keys: list[tuple] = []
    case_sampled: list[bool] = []
    verdicts = []
    failures: list[str] = []
    attempted = failed = 0

    def fail(message):
        nonlocal failed
        failed += 1
        if len(failures) < 20:
            failures.append(message)

    for r, rnd in enumerate(plan):
        if r and workload.repeats_inputs:
            clear_caches()  # each repetition of the same inputs starts cold
        speedo.probes(SWEEP_PROBES)
        t0 = perf_counter()
        try:
            cases = workload.enumerate(ctx, n, rnd)
        except Exception as exc:  # the program failed; count it and go on
            cases = None
            error = exc
        t1 = perf_counter()
        enum_at.append((t0, t1))
        speedo.probes(SWEEP_PROBES)
        if cases is None:
            attempted += 1
            fail(f"enumeration raised {error!r}")
            continue
        for pos, i in enumerate(workload.order(rnd, cases)):
            sampled = pos % OVERHEAD_SAMPLE == 0
            if sample_only and not sampled:
                continue
            case = cases[i]
            attempted += 1
            t0 = perf_counter()
            try:
                result = workload.call(ctx, case)
            except Exception as exc:
                t1 = perf_counter()
                checks = None
                error = f"raised {exc!r}"
            else:
                t1 = perf_counter()
                with quiet():
                    try:
                        checks = workload.check(ctx, case, result)
                        error = ", ".join(k for k, ok in checks.items() if not ok)
                    except Exception as exc:
                        checks = None
                        error = f"check raised {exc!r}"
            case_at.append((t0, t1))
            case_round.append(r)
            case_sampled.append(sampled)
            case_keys.append(workload.key(case))
            if error:
                fail(f"{case_keys[-1]}: {error}")
            if keep_verdicts:
                verdicts.append((case_keys[-1], checks))
            speedo.probe()
        with quiet():
            try:
                round_checks = workload.check_round(ctx, n, cases)
            except Exception as exc:
                round_checks = {f"raised {exc!r}": False}
        for name, ok in round_checks.items():
            attempted += 1
            if not ok:
                fail(f"round check {name} failed")
    speedo.probes(SWEEP_PROBES)
    enum_s = speedo.scale(enum_at)
    case_s = speedo.scale(case_at)
    raw_case_s = [t1 - t0 for t0, t1 in case_at]
    round_s = list(enum_s)
    for r, seconds in zip(case_round, case_s):
        round_s[r] += seconds
    out = {
        "sweep_s": sum(round_s),
        "sample_sweep_s": sum(enum_s) + sum(s for s, k in zip(case_s, case_sampled) if k),
        "round_s": round_s,
        "case_s": per_input(case_keys, case_s),
        "raw_sweep_s": sum(t1 - t0 for t0, t1 in enum_at) + sum(raw_case_s),
        "raw_case_s": per_input(case_keys, raw_case_s),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if keep_verdicts:
        out["verdicts"] = verdicts
    return out


def per_input(keys, seconds) -> list[float]:
    """One time per distinct case input: the median over the rounds that ran
    it (pairs-s8 and boolean-scan-s9 run their inputs in several rounds)."""
    by_key: dict[tuple, list[float]] = {}
    for key, s in zip(keys, seconds):
        by_key.setdefault(key, []).append(s)
    return [statistics.median(v) for v in by_key.values()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "sweep"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--sample", action="store_true",
                        help="run only the cases the tracing overhead is read from")
    args = parser.parse_args(argv)

    speedo = speed.Speedometer()
    speedo.probes(SETUP_PROBES)
    t0 = perf_counter()
    import boolbruhat  # noqa: F401  (timed: part of set-up)

    import_s = perf_counter() - t0

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    n = workload.n
    plan = workload.plan(args.seed, args.seconds) if args.mode == "sweep" else []
    caches = cold_start_check()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
        before_setup = tracer.mark()
    t0 = perf_counter()
    ctx = workload.setup(n)
    raw_setup_s = import_s + perf_counter() - t0
    speedo.probes(SETUP_PROBES)
    out = {
        "n": n,
        "setup_s": raw_setup_s * speedo.overall(),
        "raw_setup_s": raw_setup_s,
        "cold_caches": caches,
    }
    if args.mode == "sweep":
        if tracer is not None:
            after_setup = tracer.mark()
        out.update(sweep(workload, n, ctx, plan, tracer, sample_only=args.sample))
        out["cases"] = len(out["case_s"])
        if tracer is not None:
            tracer.active = False
            setup_summary = tracer.summary(before_setup, after_setup)
            sweep_summary = tracer.summary(after_setup, tracer.mark())
            metrics, absent = spans.per_layer(
                tracer, setup_summary, sweep_summary, n,
                setup_scale=out["setup_s"] / raw_setup_s,
                sweep_scale=out["sweep_s"] / out["raw_sweep_s"],
            )
            out["per_layer"] = metrics
            out["absent"] = absent
            out["functions"] = sweep_summary["functions"]
            out["counts"] = sweep_summary["counts"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

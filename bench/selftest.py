"""Self-test of the benchmark at small n.

    PYTHONPATH=src python3 bench/selftest.py

Runs each workload's exhaustive case list at small n through the benchmark's
own sweep and requires every case's verdicts to agree with the library's
`verify.check_*` sweeps at the same n. Then injects wrong answers into this
process (grade returning a + 1, a closed form missing an element, a(v) + 1)
and requires them to be counted as failures, with verify still agreeing case
by case. Also checks the cold-start guard, that the traced run reports a
removed function's metrics as absent, and that a failed case makes the
command's result incorrect. Exits 1 on the first problem found.
"""
from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import replace

from boolbruhat import bgg_homology, boolean_intersect, permcore, rs_afunction, runs_matching, verify

import run
import spans
import worker
from workloads import WORKLOADS

# workload -> (n, {verdict name: verify check})
AGAINST = {
    "grade-s7": (5, {"thm6.8": verify.check_thm6_8}),
    "pairs-s8": (5, {"cor3.6": verify.check_cor3_6, "prop5.8": verify.check_prop5_8}),
    "boolean-scan-s9": (5, {"thm6.4": verify.check_thm6_4, "cor6.7": verify.check_cor6_7}),
}
REPORTED = re.compile(r"v=([\d,]+)(?: w=([\d,]+))?")
tracer_free_init = permcore.Permutation.__init__


def _images(text):
    return tuple(int(x) for x in text.split(","))


def reported_keys(problems) -> set:
    """Case keys named in verify's counterexample lines."""
    keys = set()
    for line in problems:
        m = REPORTED.match(line)
        if m is None:
            raise AssertionError(f"cannot read a case from {line!r}")
        keys.add(tuple(_images(g) for g in m.groups() if g is not None))
    return keys


def run_small(name, tracer=None):
    workload = WORKLOADS[name]
    n = AGAINST[name][0]
    worker.clear_caches()
    worker.cold_start_check()
    ctx = workload.setup(n)
    return worker.sweep(workload, n, ctx, workload.exhaustive_plan(n), tracer, keep_verdicts=True)


def agree(name, result) -> int:
    """Compare verdicts with verify; return how many cases failed."""
    n, checks = AGAINST[name]
    keys = {key for key, _ in result["verdicts"]}
    for check, verify_check in checks.items():
        bad = reported_keys(verify_check(n))
        if not bad <= keys:
            raise AssertionError(f"{name}: verify {check} reports cases the sweep lacks")
        for key, verdict in result["verdicts"]:
            ours = verdict is not None and verdict[check]
            if ours == (key in bad):
                raise AssertionError(f"{name}: {check} disagrees with verify on {key}")
    return result["failed"]


@contextmanager
def injected(obj, replacement):
    undo = []
    spans.patch_everywhere(obj, replacement, undo)
    try:
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def wrong_grade(original):
    def grade(w, signs, record=None):
        report = original(w, signs, record)
        return replace(report, grade=report.grade + 1)

    return grade


def wrong_closed_form(original):
    return lambda v, w: original(v, w)[:-1]


def wrong_a(original):
    return lambda w: original(w) + 1


INJECTIONS = {
    "grade-s7": (bgg_homology.grade, wrong_grade),
    "pairs-s8": (boolean_intersect.intersection_maximal_closed_form, wrong_closed_form),
    "boolean-scan-s9": (rs_afunction.a_function, wrong_a),
}


def check_sweeps() -> None:
    for name in AGAINST:
        result = run_small(name)
        if agree(name, result) != 0:
            raise AssertionError(f"{name}: failures on correct code: {result['failures']}")
        target, make = INJECTIONS[name]
        with injected(target, make(target)):
            result = run_small(name)
            failed = agree(name, result)
        if failed == 0:
            raise AssertionError(f"{name}: injected wrong answer was not counted")
        record = {"workload": name, "attempted": result["attempted"], "failed": failed, "metrics": {}}
        if run.result_line([record])["correct"]:
            raise AssertionError(f"{name}: a failed case left the result correct")
        print(f"ok {name}: agrees with verify; injected fault fails {failed} of {result['attempted']}")


def check_cold_guard() -> None:
    bgg_homology.build_sign_assignment(3)
    try:
        worker.cold_start_check()
    except worker.ColdStartError:
        pass
    else:
        raise AssertionError("cold-start guard missed a warm sign-assignment cache")
    worker.clear_caches()
    worker.cold_start_check()
    print("ok cold-start guard")


def check_absent() -> None:
    """A function renamed away reads as absent; the rest still measure."""
    gone = runs_matching.check_matching
    undo = []
    spans.patch_everywhere(gone, None, undo)
    for module, attr, _ in undo:
        delattr(module, attr)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        before = tracer.mark()
        result = run_small("grade-s7", tracer)
        tracer.active = False
        after = tracer.mark()
    finally:
        tracer.uninstall()
        for module, attr, original in undo:
            setattr(module, attr, original)
    summary = tracer.summary(before, after)
    metrics, absent = spans.per_layer(tracer, summary, summary, AGAINST["grade-s7"][0])
    if absent != ["runs_matching.check_matching_s"] or result["failed"]:
        raise AssertionError(f"absent metrics {absent}, failures {result['failures']}")
    if metrics["boolean_intersect.closed_form_calls"]["value"] != 0:
        raise AssertionError("a layer grade never calls reads nonzero")
    if metrics["bgg_homology.complexes"]["value"] == 0 or metrics["permcore.perm_new"]["value"] == 0:
        raise AssertionError("traced grade sweep recorded no work")
    if permcore.Permutation.__init__ is not tracer_free_init:
        raise AssertionError("tracer left Permutation.__init__ wrapped")
    print("ok traced run: removed function reported absent")


def main() -> int:
    try:
        check_cold_guard()
        check_sweeps()
        check_absent()
    except AssertionError as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

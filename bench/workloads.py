"""The benchmark's seeded sweep workloads over S_n.

Each workload turns (n, seed, seconds) into a fixed plan of rounds. A round
may start with a timed enumeration step (boolean-scan only); its cases are
then run one after another in a closed loop. For every case the workload
names the program calls a `boolbruhat verify` user would pay for (timed by
the caller) and the verdict on their results (computed outside the timer).

Inputs are made here, from the seed, and the program only ever sees
`Permutation` objects. Library functions are looked up on their modules at
call time, so wrappers installed by the tracer or the self-test are used.
"""
from __future__ import annotations

import itertools
import random

from boolbruhat import bgg_homology, boolean_intersect, bruhat, permcore
from boolbruhat import rs_afunction, runs_matching

# Seed-code cost of one unit of each workload on a 2-CPU x86 container
# (Python 3.11), used only to size a run from --seconds.
GRADE_PASS_S = 37.0  # one pass over the S_7 orbit list
PAIRS_CASE_S = 0.0036  # one (v, w) pair in S_8
PAIRS_ROUNDS = 3
SCAN_ROUND_S = 3.5  # one exhaustive boolean scan of S_9
SCAN_MIN_ROUNDS = 4


def boolean_words(n: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every word with distinct letters from {1..n-1}, grouped by the one-line
    notation it evaluates to.

    A word with distinct letters is reduced and boolean, and every boolean
    element arises this way, so the keys are exactly the boolean elements of
    S_n. Evaluation is done here, independently of the library.
    """
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for k in range(n):
        for subset in itertools.combinations(range(1, n), k):
            for word in itertools.permutations(subset):
                images = list(range(1, n + 1))
                for i in word:
                    images[i - 1], images[i] = images[i], images[i - 1]
                out.setdefault(tuple(images), []).append(word)
    return out


def symmetry_orbits(elements) -> list[list[tuple[int, ...]]]:
    """Orbits under the Bruhat automorphisms w -> w^-1 and w -> w0 w w0, each
    sorted, in order of their smallest member."""
    def inverse(p):
        q = [0] * len(p)
        for i, v in enumerate(p, start=1):
            q[v - 1] = i
        return tuple(q)

    def conjugate(p):
        n = len(p)
        return tuple(n + 1 - p[n - 1 - i] for i in range(n))

    seen: set[tuple[int, ...]] = set()
    orbits = []
    for p in sorted(elements):
        if p in seen:
            continue
        orbit = sorted({p, inverse(p), conjugate(p), conjugate(inverse(p))})
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


class Workload:
    """One sweep: how to plan it, set it up, run a case and judge it."""

    name = ""
    n = 0
    repeats_inputs = False  # whether every round runs the same cases

    def plan(self, seed: int, seconds: float) -> list[list]:
        """The fixed list of rounds; each round is a list of cases."""
        raise NotImplementedError

    def exhaustive_plan(self, n: int) -> list[list]:
        """Every case at degree n, for the self-test."""
        raise NotImplementedError

    def setup(self, n: int):
        """Once-per-sweep program calls; returns the sweep context."""
        return None

    def enumerate(self, ctx, n: int, round_cases):
        """Timed step at the start of a round; returns its cases."""
        return round_cases

    def order(self, round_input, cases):
        """Indices of the round's cases in the order they run."""
        return range(len(cases))

    def call(self, ctx, case):
        """The timed program calls of one case."""
        raise NotImplementedError

    def check(self, ctx, case, result) -> dict[str, bool]:
        """Named verdicts on one case's result, computed outside the timer."""
        raise NotImplementedError

    def check_round(self, ctx, n: int, cases) -> dict[str, bool]:
        """Named verdicts on a whole round, computed outside the timer."""
        return {}

    def key(self, case) -> tuple:
        """One-line notation of the case's inputs, to match verify's reports."""
        raise NotImplementedError


class GradeWorkload(Workload):
    """thm6.8: grade(v) == a(v) for boolean v in S_7."""

    name = "grade-s7"
    n = 7

    def plan(self, seed, seconds):
        # One seeded representative of every symmetry orbit of boolean
        # elements, two distinct ones for full-support orbits: those are the
        # cases that need all of S_7 (the rest live in a parabolic subgroup)
        # and the costliest, so doubling them keeps the tail percentile off
        # the gap between the costliest orbits and the rest for every seed.
        words = boolean_words(self.n)
        orbits = symmetry_orbits(words)
        rng = random.Random(f"{self.name}/{seed}")
        cases = []
        for _ in range(max(1, round(seconds / GRADE_PASS_S))):
            order = list(orbits)
            rng.shuffle(order)
            for orbit in order:
                full = len(words[orbit[0]][0]) == self.n - 1
                for images in rng.sample(orbit, min(len(orbit), 2 if full else 1)):
                    word = rng.choice(words[images])
                    cases.append(permcore.Permutation.from_word(word, self.n))
        return [cases]

    def exhaustive_plan(self, n):
        words = boolean_words(n)
        return [[permcore.Permutation.from_word(words[p][0], n) for p in sorted(words)]]

    def setup(self, n):
        return bgg_homology.build_sign_assignment(n)

    def call(self, signs, v):
        return bgg_homology.grade(v, signs).grade

    def check(self, signs, v, result):
        return {"thm6.8": result == rs_afunction.a_function(v)}

    def key(self, v):
        return (v.images,)


class PairsWorkload(Workload):
    """cor3.6 and prop5.8 on (boolean v, any w) pairs in S_8."""

    name = "pairs-s8"
    n = 8
    repeats_inputs = True

    def plan(self, seed, seconds):
        # Support sizes cycle through 1..n-1 so that every seed gets the same
        # mix of ideal sizes (2^k elements at most); letters, their order and
        # w are random. The list runs PAIRS_ROUNDS times and each pair's time
        # is its median: nearly half of the full-support pairs have v <= w and
        # so cost the same, and the tail percentile falls among them, where a
        # single timing would measure the host's noise rather than the pair.
        rng = random.Random(f"{self.name}/{seed}")
        n = self.n
        count = (n - 1) * max(1, round(seconds / PAIRS_CASE_S / PAIRS_ROUNDS / (n - 1)))
        cases = []
        for i in range(count):
            letters = rng.sample(range(1, n), 1 + i % (n - 1))
            images = list(range(1, n + 1))
            rng.shuffle(images)
            cases.append(
                (permcore.Permutation.from_word(letters, n), permcore.Permutation(images))
            )
        return [cases] * PAIRS_ROUNDS

    def exhaustive_plan(self, n):
        words = boolean_words(n)
        booleans = [permcore.Permutation.from_word(words[p][0], n) for p in sorted(words)]
        everyone = [permcore.Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        return [[(v, w) for v in booleans for w in everyone]]

    def call(self, ctx, case):
        v, w = case
        closed = boolean_intersect.intersection_maximal_closed_form(v, w)
        enumerated = bruhat.maximal_elements(bruhat.intersect_ideals(v, w))
        cert = runs_matching.build_matching(v, w)
        problem = runs_matching.check_matching(cert)
        bound = 0 if v.is_identity() else v.length - runs_matching.run_decompose(v).count
        return closed, enumerated, cert, problem, bound

    def check(self, ctx, case, result):
        closed, enumerated, cert, problem, bound = result
        singles = cert.singletons()
        return {
            "cor3.6": closed == enumerated,
            "prop5.8": problem is None and not (singles and singles[0].length > bound),
        }

    def key(self, case):
        return (case[0].images, case[1].images)


class ScanWorkload(Workload):
    """thm6.4 and cor6.7 on every boolean element of S_9."""

    name = "boolean-scan-s9"
    n = 9
    repeats_inputs = True

    def plan(self, seed, seconds):
        # The scan is exhaustive; the seed fixes the order in which each
        # round's elements are checked. Each element's time is the median of
        # at least SCAN_MIN_ROUNDS rounds, as one sub-millisecond timing
        # mostly measures the host's noise.
        rounds = max(SCAN_MIN_ROUNDS, round(seconds / SCAN_ROUND_S))
        return [random.Random(f"{self.name}/{seed}/{r}") for r in range(rounds)]

    def exhaustive_plan(self, n):
        return [random.Random(f"{self.name}/exhaustive")]

    def enumerate(self, ctx, n, rng):
        return permcore.boolean_permutations(n)

    def call(self, ctx, v):
        runs = 0 if v.is_identity() else runs_matching.run_decompose(v).count
        return rs_afunction.rs_shape(v).part(2), runs, rs_afunction.a_function(v)

    def check(self, ctx, v, result):
        row2, runs, a = result
        return {
            "thm6.4": row2 == runs,
            "cor6.7": a == runs,
            "patterns": permcore.is_boolean_by_patterns(v),
        }

    def check_round(self, ctx, n, cases):
        keys = [(v.length, v.images) for v in cases]
        return {
            "count": len(cases) == fibonacci(2 * n - 1),
            "order": all(a < b for a, b in zip(keys, keys[1:])),
        }

    def order(self, rng, cases):
        order = list(range(len(cases)))
        rng.shuffle(order)
        return order

    def key(self, v):
        return (v.images,)


def fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1; F_{2n-1} counts the boolean elements of S_n."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


WORKLOADS = {w.name: w for w in (GradeWorkload(), PairsWorkload(), ScanWorkload())}

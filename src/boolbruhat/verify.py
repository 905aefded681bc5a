"""Whole-statement verification sweeps.

Each check_* function exhaustively (or by seeded sample) tests one named
claim, one case at a time, and yields one verdict per case: a human-readable
counterexample line when the case fails, a false value when it holds. The
`sweep` decorator runs it, returns a `Sweep` (the counterexample lines, empty
on success, and `checked`, the number of cases) and registers it in
`THEOREM_CHECKS` under the claim's name, check_thm6_8 as "thm6.8". The
CLI reads each check's `verify` flags off its signature.
Oracles used here recompute results by independent means: reduced-word
enumeration for orientations, brute-force subset scans for selfish families,
and a subword closure for slimming.
"""
from __future__ import annotations

import functools
import random
from itertools import combinations

from .bgg_homology import (
    SignAssignment,
    _members,
    build_complex,
    build_sign_assignment,
    grade,
    homology_ranks,
    is_longest_parabolic_element,
    is_perfect,
)
from .boolean_intersect import (
    Orientation,
    _capped_selfish_count,
    intersection_maximal_closed_form,
    maximal_selfish,
    obstructions,
    orientation,
    selfish_count,
)
from .bruhat import intersect_ideals, maximal_elements, principal_ideal
from .permcore import (
    Permutation,
    all_permutations,
    boolean_permutations,
    enumerate_reduced_words,
    format_permutation,
    format_reduced_word,
    is_boolean,
    is_boolean_by_patterns,
    is_boolean_by_words,
    support,
)
from .rs_afunction import YoungShape, a_function, longest_parabolic_element, rs_shape
from .runs_matching import (
    MatchingCertificate,
    build_matching,
    check_matching,
    optimal_partner,
    optimal_rank,
    run_decompose,
    slim,
)


class Sweep(list):
    """The counterexample lines of one sweep, and `checked`, the number of
    cases it judged."""

    def __init__(self, verdicts):
        super().__init__()
        self.checked = 0
        for verdict in verdicts:
            self.checked += 1
            if verdict:
                self.append(verdict)


# claim name -> check, filled by `sweep`
THEOREM_CHECKS = {}


def sweep(check):
    """Make the verdict generator `check` return a `Sweep`, and register it
    in `THEOREM_CHECKS` under its claim's name."""

    @functools.wraps(check)
    def run(*args, **kwargs) -> Sweep:
        return Sweep(check(*args, **kwargs))

    THEOREM_CHECKS[check.__name__.removeprefix("check_").replace("_", ".")] = run
    return run


@sweep
def check_thm2_4(n: int):
    """The three characterizations of booleanness agree on S_n."""
    for w in all_permutations(n):
        answers = {
            is_boolean(w),
            is_boolean_by_patterns(w),
            is_boolean_by_words(w),
        }
        yield len(answers) != 1 and f"characterizations disagree on {format_permutation(w)}"


def _brute_maximal_selfish(universe) -> frozenset[frozenset[int]]:
    values = sorted(universe)
    selfish = []
    for r in range(len(values) + 1):
        for combo in combinations(values, r):
            if all(b - a != 1 for a, b in zip(combo, combo[1:])):
                selfish.append(frozenset(combo))
    return frozenset(
        s for s in selfish if not any(s < t for t in selfish)
    )


@sweep
def check_prop3_3(k_max: int = 15):
    """Recursion, product construction and brute force agree on Q_k; the
    brute force runs for k <= 16. A Q_{k_max} over the cap is refused first."""
    _capped_selfish_count([k_max])
    for k in range(1, k_max + 1):
        family = maximal_selfish(range(1, k + 1))
        yield len(family) != selfish_count(k) and (
            f"k={k}: count recursion gives {selfish_count(k)}, family has {len(family)}"
        )
        if k <= 16:
            yield family != _brute_maximal_selfish(range(1, k + 1)) and (
                f"k={k}: family differs from brute force"
            )


@sweep
def check_prop3_5(n: int):
    """Membership in B(v) /\\ B(w) is support avoidance of obstruction runs."""
    everyone = all_permutations(n)
    for v in boolean_permutations(n):
        below_v = [(x, support(x)) for x in principal_ideal(v).sorted_elements()]
        for w in everyone:
            forbidden = [r.letter_set for r in obstructions(v, w)]
            ideal = intersect_ideals(v, w)
            for x, letters in below_v:
                member = x in ideal.elements
                predicted = not any(f <= letters for f in forbidden)
                yield member != predicted and (
                    f"v={format_permutation(v)} w={format_permutation(w)} "
                    f"x={format_permutation(x)}: membership {member}, predicted {predicted}"
                )


@sweep
def check_cor3_6(n: int, sample: int | None = None, seed: int = 0):
    """Closed-form maximal elements equal the enumerated ones."""
    booleans = boolean_permutations(n)
    # the pairs are drawn one at a time, so the pair list is never held
    if sample is None:
        everyone = all_permutations(n)
        pairs = ((v, w) for v in booleans for w in everyone)
    else:
        # w is a seeded shuffle of 1..n, so S_n is never enumerated
        rng = random.Random(seed)
        pairs = (
            (rng.choice(booleans), Permutation(rng.sample(range(1, n + 1), n)))
            for _ in range(sample)
        )
    for v, w in pairs:
        closed = intersection_maximal_closed_form(v, w)
        enumerated = maximal_elements(intersect_ideals(v, w))
        yield closed != enumerated and (
            f"v={format_permutation(v)} w={format_permutation(w)}: "
            f"closed form {[format_permutation(x) for x in closed]} vs "
            f"enumerated {[format_permutation(x) for x in enumerated]}"
        )


def orientation_oracle(w: Permutation) -> dict[int, Orientation]:
    """The orientation of each pair {k, k+1} of letters of w, read from the
    first and last positions of k and k+1 in every reduced word of w, in
    one pass over the words."""
    words = enumerate_reduced_words(w)
    letters = set(next(iter(words)).letters)
    pairs = [k for k in sorted(letters) if k + 1 in letters]
    inc, dec = set(pairs), set(pairs)
    for rw in words:
        last = {a: i for i, a in enumerate(rw.letters)}
        first = {a: i for i, a in reversed(list(enumerate(rw.letters)))}
        inc -= {k for k in pairs if last[k] > first[k + 1]}
        dec -= {k for k in pairs if last[k + 1] > first[k]}
    return {k: Orientation.INCREASING if k in inc else Orientation.DECREASING if k in dec
            else Orientation.INTERLACED for k in pairs}


@sweep
def check_thm3_10(n: int):
    """One-line-notation orientation equals the reduced-word oracle. A case
    is a pair {k, k+1} of letters of a w of S_n."""
    for w in all_permutations(n):
        for k, slow in orientation_oracle(w).items():
            fast = orientation(w, k)
            yield fast != slow and (
                f"w={format_permutation(w)} k={k}: one-line {fast.value}, "
                f"words {slow.value}"
            )


def _certificate_problem(
    v: Permutation, w: Permutation, cert: MatchingCertificate, signs: SignAssignment
) -> tuple[str | None, list[int]]:
    """The failure text of cert as a matching of B(v) /\\ B(w) (v boolean),
    or None when it is one, and the indices of that ideal in increasing
    order, read off the sign assignment's boolean masks with no ideal walk."""
    masks = signs.masks
    both = masks.mask[signs.index[v.images]] & masks.mask[signs.index[w.images]]
    on = _members(both, masks.boolean)
    problem = check_matching(cert)
    if problem is None and sorted(signs.index[x.images] for x in cert.over.elements) != on:
        problem = "its ideal is not B(v) /\\ B(w)"
    return problem and f"certificate invalid: {problem}", on


def _homology_problem(
    v: Permutation, cert: MatchingCertificate, on: list[int], signs: SignAssignment
) -> str | None:
    """Lemmas 4.3 and 4.4 for a valid certificate over the ideal on: its
    complex has no homology but one class at l(z) - l(v) for the singleton
    z, and none when the matching is perfect."""
    ranks = homology_ranks(build_complex(on, v.length, signs))
    got = {pos: h for pos, h in ranks.items() if h}
    want = {z.length - v.length: 1 for z in cert.singletons()}
    return f"nonzero homology {got}, expected {want}" if got != want else None


def _matching_sweep(n: int, perfect: bool):
    """Verdicts for every (boolean v, w) pair of S_n whose matching is
    perfect (perfect=True) or almost perfect (perfect=False)."""
    signs = build_sign_assignment(n)
    for v in boolean_permutations(n):
        for w in signs.elements:
            cert = build_matching(v, w)
            if cert.is_perfect != perfect:
                continue
            problem, on = _certificate_problem(v, w, cert, signs)
            report = problem or _homology_problem(v, cert, on, signs)
            yield report and f"v={format_permutation(v)} w={format_permutation(w)}: {report}"


@sweep
def check_lem4_3(n: int):
    """Perfectly matched intersections give exact restricted complexes."""
    return _matching_sweep(n, perfect=True)


@sweep
def check_lem4_4(n: int):
    """Almost perfectly matched intersections have one 1-dimensional homology
    class at the singleton's position."""
    return _matching_sweep(n, perfect=False)


@sweep
def check_prop5_8(n: int):
    """Every constructed matching is perfect or bounded by l(v) - run(v).
    Each certificate is checked against the sign assignment's B(v) /\\ B(w),
    so S_n's sign assignment is built first, and refused above the cap."""
    signs = build_sign_assignment(n)
    for v in boolean_permutations(n):
        bound = optimal_rank(v)
        for w in signs.elements:
            cert = build_matching(v, w)
            problem, _ = _certificate_problem(v, w, cert, signs)
            singles = cert.singletons()
            report = problem or (
                singles and singles[0].length > bound
                and f"singleton rank {singles[0].length} exceeds {bound}"
            )
            yield report and f"v={format_permutation(v)} w={format_permutation(w)}: {report}"


def subword_closure(letters: tuple[int, ...], n: int) -> frozenset[tuple[int, ...]]:
    """The one-line tuples of all permutations with some reduced word
    occurring as a subword of letters.

    Left-to-right closure: extend each collected element u by the next
    letter a whenever that raises the length, that is when u(a) < u(a+1).
    """
    out = {tuple(range(1, n + 1))}
    for a in letters:
        out |= {u[:a - 1] + (u[a], u[a - 1]) + u[a + 1:] for u in out if u[a - 1] < u[a]}
    return frozenset(out)


@sweep
def check_lem5_6(n: int):
    """slim(s, i) is the unique Bruhat maximum of the deleted-word closure,
    and that closure is its full principal ideal, for every reduced word of
    every w of length 1 to 8 in S_n."""
    ideals: dict[Permutation, frozenset[tuple[int, ...]]] = {}
    for w in all_permutations(n):
        if not 1 <= w.length <= 8:
            continue
        for rw in enumerate_reduced_words(w):
            for i in range(1, len(rw) + 1):
                hat = rw.letters[:i - 1] + rw.letters[i:]
                closure = subword_closure(hat, n)
                top = slim(rw, i)
                if top not in ideals:
                    ideals[top] = frozenset(x.images for x in principal_ideal(top).elements)
                yield closure != ideals[top] and (
                    f"s={format_reduced_word(rw)} i={i}: closure is not "
                    f"B({format_permutation(top)})"
                )


@sweep
def check_thm5_10(n: int):
    """The concatenated per-run partner realizes singleton rank l(v) - run(v),
    and the matched complex has the forced homology class."""
    signs = build_sign_assignment(n)
    for v in boolean_permutations(n):
        if v.is_identity():
            continue
        w = optimal_partner(v)
        cert = build_matching(v, w)
        problem, on = _certificate_problem(v, w, cert, signs)
        lengths = [z.length for z in cert.singletons()]
        expected = optimal_rank(v)
        report = (
            problem
            or lengths != [expected]
            and f"singleton ranks {lengths}, expected one at {expected}"
            or _homology_problem(v, cert, on, signs)
        )
        yield report and f"v={format_permutation(v)}: {report}"


@sweep
def check_thm6_4(n: int):
    """Second row of the insertion shape counts minimal runs, boolean case."""
    for v in boolean_permutations(n):
        runs = run_decompose(v).count
        row2 = rs_shape(v).part(2)
        yield row2 != runs and f"v={format_permutation(v)}: second row {row2}, runs {runs}"


@sweep
def check_cor6_7(n: int):
    """a(v) equals the minimal run count for boolean v."""
    for v in boolean_permutations(n):
        runs = run_decompose(v).count
        a = a_function(v)
        yield a != runs and f"v={format_permutation(v)}: a={a}, runs {runs}"


@sweep
def check_thm6_8(n: int, sample: int | None = None, seed: int = 0):
    """Grade equals the a-function on boolean permutations."""
    signs = build_sign_assignment(n)
    booleans = boolean_permutations(n)
    if sample is not None:
        rng = random.Random(seed)
        # sample draws with replacement, so it may exceed the number of
        # boolean elements; each distinct element drawn is checked once
        booleans = sorted(
            set(rng.choices(booleans, k=sample)),
            key=lambda v: (v.length, v.images),
        )
    for v in booleans:
        got = grade(v, signs).grade
        want = a_function(v)
        yield got != want and f"v={format_permutation(v)}: grade {got}, a {want}"


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@sweep
def check_thm7_2(n: int):
    """Longest parabolic elements have grade equal to their length."""
    signs = build_sign_assignment(n)
    for parts in _partitions(n):
        w = longest_parabolic_element(YoungShape(parts), n)
        got = grade(w, signs).grade
        yield got != w.length and f"mu={parts}: grade {got} != {w.length}"


@sweep
def check_thm7_3(n: int):
    """Perfection is exactly being a longest parabolic element."""
    signs = build_sign_assignment(n)
    for w in signs.elements:
        homological = is_perfect(w, signs)
        combinatorial = is_longest_parabolic_element(w)
        yield homological != combinatorial and (
            f"w={format_permutation(w)}: perfect {homological}, "
            f"longest parabolic {combinatorial}"
        )

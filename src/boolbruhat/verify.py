"""Whole-statement verification sweeps.

Each check_* function exhaustively (or by seeded sample) tests one named
claim and returns a list of human-readable counterexamples, empty on success.
Oracles used here recompute results by independent means: reduced-word
enumeration for orientations, brute-force subset scans for selfish families,
and a subword closure for slimming.
"""
from __future__ import annotations

import random
from itertools import combinations

from .bgg_homology import (
    DEFAULT_DEGREE_CAP,
    SignAssignment,
    build_complex,
    build_sign_assignment,
    grade,
    grade_of_parabolic_longest,
    homology_ranks,
    is_longest_parabolic_element,
    is_perfect,
)
from .boolean_intersect import (
    Orientation,
    intersection_maximal_closed_form,
    maximal_selfish,
    obstructions,
    selfish_count,
)
from .bruhat import intersect_ideals, maximal_elements, principal_ideal
from .permcore import (
    Permutation,
    ReducedWord,
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
from .rs_afunction import a_function, rs_shape
from .runs_matching import (
    MatchingCertificate,
    build_matching,
    check_matching,
    optimal_partner,
    run_decompose,
    slim,
    verify_matching,
)


def check_thm2_4(n: int) -> list[str]:
    """The three characterizations of booleanness agree on S_n."""
    bad = []
    for w in all_permutations(n):
        answers = {
            is_boolean(w),
            is_boolean_by_patterns(w),
            is_boolean_by_words(w),
        }
        if len(answers) != 1:
            bad.append(f"characterizations disagree on {format_permutation(w)}")
    return bad


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


def check_prop3_3(k_max: int) -> list[str]:
    """Recursion, product construction and brute force agree on Q_k."""
    bad = []
    for k in range(1, k_max + 1):
        family = maximal_selfish(range(1, k + 1)).members
        if len(family) != selfish_count(k):
            bad.append(f"k={k}: count recursion gives {selfish_count(k)}, family has {len(family)}")
        if k <= 16 and family != _brute_maximal_selfish(range(1, k + 1)):
            bad.append(f"k={k}: family differs from brute force")
    return bad


def check_prop3_5(n: int) -> list[str]:
    """Membership in B(v) /\\ B(w) is support avoidance of obstruction runs."""
    bad = []
    for v in boolean_permutations(n):
        below_v = principal_ideal(v).elements
        for w in all_permutations(n):
            forbidden = [r.letter_set for r in obstructions(v, w).minimal_runs]
            ideal = intersect_ideals(v, w)
            for x in below_v:
                member = x in ideal.elements
                predicted = not any(f <= support(x) for f in forbidden)
                if member != predicted:
                    bad.append(
                        f"v={format_permutation(v)} w={format_permutation(w)} "
                        f"x={format_permutation(x)}: membership {member}, predicted {predicted}"
                    )
    return bad


def check_cor3_6(n: int, sample: int | None = None, seed: int = 0) -> list[str]:
    """Closed-form maximal elements equal the enumerated ones."""
    bad = []
    booleans = boolean_permutations(n)
    everyone = all_permutations(n)
    if sample is None:
        pairs = [(v, w) for v in booleans for w in everyone]
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(booleans), rng.choice(everyone)) for _ in range(sample)]
    for v, w in pairs:
        closed = intersection_maximal_closed_form(v, w)
        enumerated = maximal_elements(intersect_ideals(v, w))
        if closed != enumerated:
            bad.append(
                f"v={format_permutation(v)} w={format_permutation(w)}: "
                f"closed form {[format_permutation(x) for x in closed]} vs "
                f"enumerated {[format_permutation(x) for x in enumerated]}"
            )
    return bad


def orientation_oracle(w: Permutation, k: int) -> Orientation:
    """Orientation of {k, k+1} read from every reduced word of w."""
    inc = dec = True
    for rw in enumerate_reduced_words(w):
        pos_k = [i for i, l in enumerate(rw.letters) if l == k]
        pos_k1 = [i for i, l in enumerate(rw.letters) if l == k + 1]
        if not pos_k or not pos_k1:
            raise ValueError(f"{{{k},{k + 1}}} not in the support of w")
        if max(pos_k) > min(pos_k1):
            inc = False
        if max(pos_k1) > min(pos_k):
            dec = False
    if inc:
        return Orientation.INCREASING
    if dec:
        return Orientation.DECREASING
    return Orientation.INTERLACED


def check_thm3_10(n: int) -> list[str]:
    """One-line-notation orientation equals the reduced-word oracle."""
    from .boolean_intersect import orientation

    bad = []
    for w in all_permutations(n):
        supp = support(w)
        for k in sorted(supp):
            if k + 1 not in supp:
                continue
            fast, slow = orientation(w, k), orientation_oracle(w, k)
            if fast != slow:
                bad.append(
                    f"w={format_permutation(w)} k={k}: one-line {fast.value}, "
                    f"words {slow.value}"
                )
    return bad


def _matching_homology_report(
    v: Permutation, cert: MatchingCertificate, signs: SignAssignment
) -> str | None:
    """Lemma check for one pair: matched ideal forces the predicted homology."""
    problem = check_matching(cert)
    if problem is not None:
        return f"invalid certificate: {problem}"
    ranks = homology_ranks(build_complex(cert.over, v.length, signs))
    singles = cert.singletons()
    if not singles:
        if any(ranks.values()):
            return f"perfect matching but homology {ranks}"
        return None
    z = singles[0]
    expected = -(v.length - z.length)
    for pos, h in ranks.items():
        want = 1 if pos == expected else 0
        if h != want:
            return f"singleton at rank {z.length} but homology {ranks}"
    return None


def _matching_sweep(n: int, cap: int, perfect: bool) -> list[str]:
    """Homology reports for every (boolean v, w) pair of S_n whose matching
    is perfect (perfect=True) or almost perfect (perfect=False)."""
    signs = build_sign_assignment(n, cap)
    bad = []
    for v in boolean_permutations(n):
        for w in all_permutations(n):
            cert = build_matching(v, w)
            if cert.is_perfect != perfect:
                continue
            report = _matching_homology_report(v, cert, signs)
            if report is not None:
                bad.append(
                    f"v={format_permutation(v)} w={format_permutation(w)}: {report}"
                )
    return bad


def check_lem4_3(n: int, cap: int = DEFAULT_DEGREE_CAP) -> list[str]:
    """Perfectly matched intersections give exact restricted complexes."""
    return _matching_sweep(n, cap, perfect=True)


def check_lem4_4(n: int, cap: int = DEFAULT_DEGREE_CAP) -> list[str]:
    """Almost perfectly matched intersections have one 1-dimensional homology
    class at the singleton's position."""
    return _matching_sweep(n, cap, perfect=False)


def check_prop5_8(n: int) -> list[str]:
    """Every constructed matching is perfect or bounded by l(v) - run(v)."""
    bad = []
    for v in boolean_permutations(n):
        bound = v.length - run_decompose(v).count
        for w in all_permutations(n):
            cert = build_matching(v, w)
            if not verify_matching(cert):
                bad.append(
                    f"v={format_permutation(v)} w={format_permutation(w)}: "
                    f"certificate invalid: {check_matching(cert)}"
                )
                continue
            singles = cert.singletons()
            if singles and singles[0].length > bound:
                bad.append(
                    f"v={format_permutation(v)} w={format_permutation(w)}: "
                    f"singleton rank {singles[0].length} exceeds {bound}"
                )
    return bad


def subword_closure(letters: tuple[int, ...], n: int) -> frozenset[Permutation]:
    """All permutations with some reduced word occurring as a subword.

    Left-to-right closure: extend each collected element by the next letter
    whenever that extension is length-increasing.
    """
    out = {Permutation.identity(n)}
    for l in letters:
        grown = set()
        for u in out:
            nxt = u.right_simple(l)
            if nxt.length > u.length:
                grown.add(nxt)
        out |= grown
    return frozenset(out)


def check_lem5_6(n: int, max_len: int = 8) -> list[str]:
    """slim(s, i) is the unique Bruhat maximum of the deleted-word closure,
    and that closure is its full principal ideal."""
    bad = []
    ideals: dict[Permutation, frozenset[Permutation]] = {}
    for w in all_permutations(n):
        if not 1 <= w.length <= max_len:
            continue
        for rw in enumerate_reduced_words(w):
            for i in range(1, len(rw) + 1):
                hat = rw.letters[:i - 1] + rw.letters[i:]
                closure = subword_closure(hat, n)
                top = slim(rw, i)
                if top not in ideals:
                    ideals[top] = principal_ideal(top).elements
                if closure != ideals[top]:
                    bad.append(
                        f"s={format_reduced_word(rw)} i={i}: closure is not "
                        f"B({format_permutation(top)})"
                    )
    return bad


def check_thm5_10(
    n: int, with_homology: bool = True, cap: int = DEFAULT_DEGREE_CAP
) -> list[str]:
    """The concatenated per-run partner realizes singleton rank l(v) - run(v);
    optionally also checks the forced homology class of the matched complex."""
    signs = build_sign_assignment(n, cap) if with_homology else None
    bad = []
    for v in boolean_permutations(n):
        if v.is_identity():
            continue
        w = optimal_partner(v)
        cert = build_matching(v, w)
        if not verify_matching(cert):
            bad.append(
                f"v={format_permutation(v)}: certificate invalid: {check_matching(cert)}"
            )
            continue
        singles = cert.singletons()
        expected = v.length - run_decompose(v).count
        if len(singles) != 1 or singles[0].length != expected:
            bad.append(
                f"v={format_permutation(v)}: singleton ranks "
                f"{[z.length for z in singles]}, expected one at {expected}"
            )
            continue
        if signs is not None:
            report = _matching_homology_report(v, cert, signs)
            if report is not None:
                bad.append(f"v={format_permutation(v)}: {report}")
    return bad


def check_thm6_4(n: int) -> list[str]:
    """Second row of the insertion shape counts minimal runs, boolean case."""
    bad = []
    for v in boolean_permutations(n):
        runs = run_decompose(v).count
        row2 = rs_shape(v).part(2)
        if row2 != runs:
            bad.append(
                f"v={format_permutation(v)}: second row {row2}, runs {runs}"
            )
    return bad


def check_cor6_7(n: int) -> list[str]:
    """a(v) equals the minimal run count for boolean v."""
    bad = []
    for v in boolean_permutations(n):
        runs = run_decompose(v).count
        if a_function(v) != runs:
            bad.append(
                f"v={format_permutation(v)}: a={a_function(v)}, runs {runs}"
            )
    return bad


def check_thm6_8(
    n: int, sample: int | None = None, seed: int = 0, cap: int = DEFAULT_DEGREE_CAP
) -> list[str]:
    """Grade equals the a-function on boolean permutations."""
    signs = build_sign_assignment(n, cap)
    booleans = boolean_permutations(n)
    if sample is not None:
        rng = random.Random(seed)
        # with replacement, so the requested case count is honored even when
        # it exceeds the number of boolean elements
        booleans = sorted(
            set(rng.choices(booleans, k=sample)),
            key=lambda v: (v.length, v.images),
        )
    bad = []
    for v in booleans:
        got = grade(v, signs).grade
        want = a_function(v)
        if got != want:
            bad.append(f"v={format_permutation(v)}: grade {got}, a {want}")
    return bad


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def check_thm7_2(n: int, cap: int = DEFAULT_DEGREE_CAP) -> list[str]:
    """Longest parabolic elements have grade equal to their length."""
    from .rs_afunction import YoungShape

    signs = build_sign_assignment(n, cap)
    bad = []
    for parts in _partitions(n):
        report = grade_of_parabolic_longest(YoungShape(parts), n, signs)
        if report.grade != report.w.length:
            bad.append(f"mu={parts}: grade {report.grade} != {report.w.length}")
    return bad


def check_thm7_3(n: int, cap: int = DEFAULT_DEGREE_CAP) -> list[str]:
    """Perfection is exactly being a longest parabolic element."""
    signs = build_sign_assignment(n, cap)
    bad = []
    for w in all_permutations(n):
        homological = is_perfect(w, signs)
        combinatorial = is_longest_parabolic_element(w)
        if homological != combinatorial:
            bad.append(
                f"w={format_permutation(w)}: perfect {homological}, "
                f"longest parabolic {combinatorial}"
            )
    return bad


THEOREM_CHECKS = {
    "thm2.4": check_thm2_4,
    "prop3.3": check_prop3_3,
    "prop3.5": check_prop3_5,
    "cor3.6": check_cor3_6,
    "thm3.10": check_thm3_10,
    "lem4.3": check_lem4_3,
    "lem4.4": check_lem4_4,
    "prop5.8": check_prop5_8,
    "lem5.6": check_lem5_6,
    "thm5.10": check_thm5_10,
    "thm6.4": check_thm6_4,
    "cor6.7": check_cor6_7,
    "thm6.8": check_thm6_8,
    "thm7.2": check_thm7_2,
    "thm7.3": check_thm7_3,
}

# checks whose first argument is a letter-range bound rather than a degree
K_PARAM_CHECKS = {"prop3.3"}
SAMPLING_CHECKS = {"cor3.6", "thm6.8"}
# checks that build a sign assignment, and so take the degree cap
DEGREE_CAPPED_CHECKS = {"lem4.3", "lem4.4", "thm5.10", "thm6.8", "thm7.2", "thm7.3"}

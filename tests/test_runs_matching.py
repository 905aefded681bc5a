import hashlib
import random
import re
from collections import Counter
from itertools import permutations

import pytest

import boolbruhat
from boolbruhat import boolean_intersect, bruhat, permcore, runs_matching, verify
from boolbruhat.boolean_intersect import increasing_pairs, interval_components, obstructions
from boolbruhat.bruhat import (
    BruhatIdeal,
    RunWord,
    _down_images,
    bruhat_leq,
    ideal_to_dot,
    intersect_ideals,
    principal_ideal,
)
from boolbruhat.permcore import (
    Permutation,
    ReducedWord,
    all_permutations,
    boolean_permutations,
    enumerate_reduced_words,
    format_permutation,
    is_boolean,
    support,
)
from boolbruhat.runs_matching import (
    MatchingCertificate,
    Pair,
    Singleton,
    build_matching,
    check_matching,
    matching_to_dot,
    matching_to_json,
    optimal_partner,
    optimal_rank,
    run_decompose,
    slim,
)
from boolbruhat.verify import subword_closure


def word_min_runs(letters):
    """Fewest consecutive-run segments covering one fixed word."""
    total = len(letters)
    best = [0] + [total + 1] * total
    for i in range(1, total + 1):
        for j in range(i):
            seg = letters[j:i]
            up = all(b - a == 1 for a, b in zip(seg, seg[1:]))
            down = all(a - b == 1 for a, b in zip(seg, seg[1:]))
            if up or down:
                best[i] = min(best[i], best[j] + 1)
    return best[total]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_run_count_matches_all_words_oracle(n):
    for v in boolean_permutations(n):
        if v.is_identity():
            continue
        oracle = min(
            word_min_runs(rw.letters) for rw in enumerate_reduced_words(v)
        )
        dec = run_decompose(v)
        assert dec.count == oracle, format_permutation(v)
        assert dec.word.permutation() == v
        assert word_min_runs(dec.word.letters) == dec.count


def test_run_decomposition_of_long_example():
    v = Permutation.from_word((11, 4, 3, 10, 5, 2, 1, 6, 7, 9, 8), 12)
    assert v.images == (5, 1, 2, 3, 6, 7, 8, 12, 4, 9, 10, 11)
    dec = run_decompose(v)
    assert v.length == 11
    assert dec.count == 3
    assert dec.word.letters == (4, 3, 2, 1, 11, 10, 9, 5, 6, 7, 8)
    assert dec.runs == (
        RunWord(1, 3, "decreasing"),
        RunWord(9, 2, "decreasing"),
        RunWord(5, 3, "increasing"),
    )
    assert optimal_rank(v) == 8


def test_one_letter_runs_are_increasing():
    dec = run_decompose(Permutation.from_word((2, 1, 3), 4))
    assert dec.runs == (RunWord(1, 1, "decreasing"), RunWord(3, 0, "increasing"))
    assert dec.word.letters == (2, 1, 3)


def waits_for_order(v):
    """The block order as first written: a block waits for its
    letter-adjacent neighbour when the boundary pair puts the neighbour
    first, and the next block is the smallest-start block not waiting.
    Blocks are cut from the support sets: each support interval greedily
    into the longest blocks of one direction."""
    increasing = increasing_pairs(v)
    blocks = []
    for comp in interval_components(support(v)):
        j = 0
        while j < len(comp):
            rising = comp[j] in increasing
            i = j + 1
            while i < len(comp) and (comp[i - 1] in increasing) == rising:
                i += 1
            direction = "increasing" if rising or i == j + 1 else "decreasing"
            blocks.append(RunWord(comp[j], i - 1 - j, direction))
            j = i
    waits_for = {b: [] for b in blocks}
    for left, right in zip(blocks, blocks[1:]):
        top = left.start + left.span
        if right.start == top + 1:
            if top in increasing:
                waits_for[right].append(left)
            else:
                waits_for[left].append(right)
    ordered = []
    pending = list(blocks)
    while pending:
        b = next(b for b in pending if all(p in ordered for p in waits_for[b]))
        ordered.append(b)
        pending.remove(b)
    return tuple(ordered)


def test_chains_of_blocks_match_the_waits_for_order():
    for n in range(1, 11):
        for v in boolean_permutations(n):
            ordered = waits_for_order(v)
            dec = run_decompose(v)
            assert dec.runs == ordered, v
            assert dec.word.letters == tuple(a for r in ordered for a in r.letters), v


def test_run_decompose_rejects_non_boolean():
    with pytest.raises(ValueError):
        run_decompose(Permutation((3, 2, 1)))


def test_optimal_partner_of_single_run():
    v = Permutation.from_word((4, 3, 2, 1), 5)
    assert v.images == (5, 1, 2, 3, 4)
    w = optimal_partner(v)
    assert w == Permutation.from_word((3, 2, 1, 4, 3, 2), 5)
    assert w.images == (4, 5, 1, 2, 3)


def test_optimal_partner_realizes_the_bound():
    for n in (3, 4, 5):
        for v in boolean_permutations(n):
            cert = build_matching(v, optimal_partner(v))
            assert check_matching(cert) is None
            singles = cert.singletons()
            assert len(singles) == 1
            assert singles[0].length == optimal_rank(v)


def test_partner_of_long_example_leaves_rank_eight_singleton():
    v = Permutation.from_word((11, 4, 3, 10, 5, 2, 1, 6, 7, 9, 8), 12)
    cert = build_matching(v, optimal_partner(v))
    assert check_matching(cert) is None
    assert [z.length for z in cert.singletons()] == [8]


def test_slim_worked_example():
    s = ReducedWord((3, 2, 1, 2, 3, 2), 5)
    u = slim(s, 3)
    assert u == Permutation.from_word((3, 2, 3), 5)
    closure = {Permutation(x) for x in subword_closure(s.letters[:2] + s.letters[3:], 5)}
    booleans = {x for x in closure if is_boolean(x)}
    assert booleans == {
        Permutation.identity(5),
        Permutation.from_word((2,), 5),
        Permutation.from_word((3,), 5),
        Permutation.from_word((2, 3), 5),
        Permutation.from_word((3, 2), 5),
    }


def test_slim_position_out_of_range():
    s = ReducedWord((1, 2), 3)
    with pytest.raises(ValueError):
        slim(s, 3)


def test_matching_steps_partition_the_ideal():
    v = Permutation.from_word((1, 2, 3), 4)
    w = Permutation.from_word((3, 2, 1), 4)
    cert = build_matching(v, w)
    members = []
    for step in cert.steps:
        if isinstance(step, Singleton):
            members.append(step.element)
        else:
            members.extend((step.lower, step.upper))
    assert sorted(m.images for m in members) == sorted(
        x.images for x in cert.over.elements
    )
    assert check_matching(cert) is None


@pytest.mark.parametrize(
    "n, digest",
    [
        (4, "f1e6b5d926d8592429226f486bd4c79a4ed2ab7ef6d2f9c3ce2a06f9631f3e86"),
        (5, "d0964dd3112f3b3e7990a43f69de2482bdab6dfbecf4aeb77af5b9d1178336e3"),
    ],
)
def test_matching_steps_and_their_order_are_pinned(n, digest):
    text = "\n".join(
        matching_to_json(build_matching(v, w))
        for v in boolean_permutations(n)
        for w in all_permutations(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_checker_rejects_corrupted_certificates():
    v = Permutation.from_word((1, 3), 4)
    cert = build_matching(v, v)
    assert check_matching(cert) is None

    missing = MatchingCertificate(cert.steps[1:], cert.over)
    assert "not covered" in check_matching(missing)

    foreign = MatchingCertificate(
        cert.steps + (Singleton(Permutation((4, 3, 2, 1))),), cert.over
    )
    assert "outside the ideal" in check_matching(foreign)

    reversed_steps = MatchingCertificate(tuple(reversed(cert.steps)), cert.over)
    assert check_matching(reversed_steps) is not None


def test_checker_rejects_non_cover_pairs():
    e = Permutation.identity(3)
    top = Permutation.from_word((1, 2), 3)
    ideal = intersect_ideals(top, top)
    bogus = MatchingCertificate(
        (
            Pair(Permutation.from_word((2,), 3), top),
            Pair(e, Permutation.from_word((1,), 3)),
        ),
        ideal,
    )
    assert "not a cover" not in (check_matching(bogus) or "")
    really_bogus = MatchingCertificate(
        (
            Pair(e, top),
            Pair(
                Permutation.from_word((1,), 3),
                Permutation.from_word((2,), 3),
            ),
        ),
        ideal,
    )
    assert "not a cover" in check_matching(really_bogus)
    reversed_pair = MatchingCertificate(
        (
            Pair(top, Permutation.from_word((2,), 3)),
            Pair(e, Permutation.from_word((1,), 3)),
        ),
        ideal,
    )
    assert "not a cover" in check_matching(reversed_pair)


def prefixes_are_coideals(cert):
    """Oracle: compare every element added by a step with every element
    still outside after it, by bruhat_leq (O(|I|^2) comparisons)."""
    outside = set(cert.over.elements)
    for step in cert.steps:
        added = (
            (step.element,) if isinstance(step, Singleton) else (step.lower, step.upper)
        )
        outside.difference_update(added)
        for x in added:
            for y in outside:
                if x.length < y.length and bruhat_leq(x, y):
                    return False
    return True


@pytest.mark.parametrize("n", [5, 6])
def test_coideal_check_matches_the_pairwise_oracle(n):
    rng = random.Random(n)
    outcomes = Counter()
    for v in boolean_permutations(n):
        for _ in range(2):
            w = Permutation(rng.sample(range(1, n + 1), n))
            cert = build_matching(v, w)
            orders = [list(cert.steps)]
            for _ in range(3):
                orders.append(rng.sample(cert.steps, len(cert.steps)))
            if len(cert.steps) > 1:
                k = rng.randrange(len(cert.steps) - 1)
                swapped = list(cert.steps)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                orders.append(swapped)
            for steps in orders:
                shuffled = MatchingCertificate(tuple(steps), cert.over)
                valid = check_matching(shuffled) is None
                assert valid == prefixes_are_coideals(shuffled), (v, w, steps)
                outcomes[valid] += 1
    assert outcomes[True] and outcomes[False]


def test_checker_rejects_an_ideal_that_is_not_down_closed():
    v = Permutation.from_word((1, 3), 4)
    cert = build_matching(v, v)
    assert cert.is_perfect
    e = Permutation.identity(4)
    (bottom,) = [s for s in cert.steps if isinstance(s, Pair) and s.lower == e]
    ideal = cert.over
    cut = BruhatIdeal(
        ideal.degree,
        ideal.elements - {e},
        ideal.maximal,
    )
    steps = tuple(
        Singleton(s.upper) if s is bottom else s for s in cert.steps
    )
    holed = MatchingCertificate(steps, cut)
    assert prefixes_are_coideals(holed)
    assert "outside the ideal" in check_matching(holed)


def down_cover_check(cert):
    """Oracle: check_matching as it was on general ideals of S_n, listing
    the down-covers of every element afresh from its one-line notation."""
    elements = cert.over.elements
    seen = set()
    step_of = {}
    for k, step in enumerate(cert.steps):
        for x in _step_members(step):
            if x not in elements:
                return f"step element {format_permutation(x)} outside the ideal"
            if x in seen:
                return f"element {format_permutation(x)} appears twice"
            seen.add(x)
            step_of[x.images] = k
    if seen != elements:
        missing = next(iter(elements - seen))
        return f"element {format_permutation(missing)} not covered by any step"

    if len(cert.singletons()) > 1:
        return "more than one singleton"

    first = None
    for k, step in enumerate(cert.steps):
        for y in _step_members(step):
            paired = False
            for t in _down_images(y.images):
                j = step_of.get(t)
                if j is None:
                    return (
                        f"element {format_permutation(Permutation(t))} covered "
                        f"by {format_permutation(y)} is outside the ideal"
                    )
                if j <= k:
                    if j == k:
                        paired = True
                    elif first is None or j < first[0]:
                        first = (j, t, y)
            if not paired and isinstance(step, Pair) and y is step.upper:
                return (
                    f"pair ({format_permutation(step.lower)}, "
                    f"{format_permutation(step.upper)}) is not a cover"
                )
    if first is not None:
        j, t, y = first
        return (
            f"prefix through {type(cert.steps[j]).__name__} is not a coideal: "
            f"{format_permutation(Permutation(t))} <= {format_permutation(y)}"
        )
    return None


def _step_members(step):
    return (step.element,) if isinstance(step, Singleton) else (step.lower, step.upper)


def _message_kind(problem):
    if problem is None:
        return None
    return re.sub(r"\d+(,\d+)*", "x", problem)


def corrupted(cert, rng):
    """The certificate and copies of it with shuffled, dropped, duplicated
    and swapped steps, with the uppers of two pairs exchanged, and with one
    element cut out of both the ideal and its step (which leaves an ideal
    that need not be down-closed), as it is and shuffled."""
    steps = list(cert.steps)
    out = [cert, MatchingCertificate(tuple(rng.sample(steps, len(steps))), cert.over)]
    k = rng.randrange(len(steps))
    out.append(MatchingCertificate(tuple(steps[:k] + steps[k + 1:]), cert.over))
    out.append(MatchingCertificate(tuple(steps + [steps[k]]), cert.over))
    if len(steps) > 1:
        swapped = list(steps)
        i = rng.randrange(len(steps) - 1)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        out.append(MatchingCertificate(tuple(swapped), cert.over))
    pairs = [i for i, s in enumerate(steps) if isinstance(s, Pair)]
    if len(pairs) > 1:
        i, j = rng.sample(pairs, 2)
        crossed = list(steps)
        crossed[i] = Pair(steps[i].lower, steps[j].upper)
        crossed[j] = Pair(steps[j].lower, steps[i].upper)
        out.append(MatchingCertificate(tuple(crossed), cert.over))
    if pairs:
        i = rng.choice(pairs)
        cut, kept = rng.sample((steps[i].lower, steps[i].upper), 2)
        holed = steps[:i] + [Singleton(kept)] + steps[i + 1:]
        over = BruhatIdeal(cert.over.degree, cert.over.elements - {cut}, cert.over.maximal)
        out.append(MatchingCertificate(tuple(holed), over))
        out.append(MatchingCertificate(tuple(rng.sample(holed, len(holed))), over))
    return out


def test_check_matches_the_down_cover_oracle():
    rng = random.Random(34)
    cases = [(v, w) for v in boolean_permutations(5) for w in all_permutations(5)]
    every6 = all_permutations(6)
    cases += [(v, rng.choice(every6)) for v in boolean_permutations(6) for _ in range(3)]
    kinds = Counter()
    for v, w in cases:
        for cert in corrupted(build_matching(v, w), rng):
            got, want = check_matching(cert), down_cover_check(cert)
            assert got == want, (v, w, cert.steps)
            kinds[_message_kind(got)] += 1
    assert {
        None,
        "element x not covered by any step",
        "element x appears twice",
        "more than one singleton",
        "element x covered by x is outside the ideal",
        "pair (x, x) is not a cover",
        "prefix through Pair is not a coideal: x <= x",
        "prefix through Singleton is not a coideal: x <= x",
    } <= set(kinds), kinds


def test_check_tells_letter_orders_apart():
    # the ideal of s1s2s3 with s3s2 in place of s2s3: same supports, but
    # s1s2s3 covers s2s3, not s3s2, so the ideal is not down-closed
    v = Permutation.from_word((1, 2, 3), 4)
    honest, impostor = Permutation.from_word((2, 3), 4), Permutation.from_word((3, 2), 4)

    def swap(x):
        return impostor if x == honest else x

    cert = build_matching(v, v)
    assert check_matching(cert) is None
    steps = tuple(
        Singleton(swap(s.element)) if isinstance(s, Singleton) else Pair(swap(s.lower), swap(s.upper))
        for s in cert.steps
    )
    over = BruhatIdeal(4, frozenset(map(swap, cert.over.elements)), frozenset(map(swap, cert.over.maximal)))
    forged = MatchingCertificate(steps, over)
    assert support(impostor) == support(honest)
    problem = check_matching(forged)
    assert problem == down_cover_check(forged)
    assert problem == "element 1,3,4,2 covered by 2,3,4,1 is outside the ideal"


def test_check_rejects_a_non_boolean_element():
    w0 = Permutation((3, 2, 1))
    ideal = principal_ideal(w0)
    s1, s2 = Permutation.from_word((1,), 3), Permutation.from_word((2,), 3)
    cert = MatchingCertificate(
        (
            Pair(Permutation.from_word((1, 2), 3), w0),
            Pair(s1, Permutation.from_word((2, 1), 3)),
            Pair(Permutation.identity(3), s2),
        ),
        ideal,
    )
    assert down_cover_check(cert) is None
    assert check_matching(cert) == "element 3,2,1 is not boolean"
    foreign = MatchingCertificate(cert.steps + (Singleton(Permutation((2, 3, 1, 4))),), ideal)
    assert "outside the ideal" in check_matching(foreign)


def test_the_pair_path_reads_no_down_covers_and_no_support_sets(monkeypatch):
    def unread(*args):
        raise AssertionError("read on the pair path")

    # every module that binds any of the names, so no import path escapes
    reals = {
        "_down_images": bruhat._down_images,
        "support": permcore.support,
        "descents": permcore.descents,
        "increasing_pairs": boolean_intersect.increasing_pairs,
    }
    modules = [getattr(boolbruhat, name) for name in dir(boolbruhat)]
    for module in (m for m in modules if type(m) is type(permcore)):
        for name, real in reals.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, unread)
    assert runs_matching._down_images is bruhat._down_images is unread
    assert permcore.support is permcore.descents is unread
    assert boolean_intersect.support is boolean_intersect.increasing_pairs is unread
    rng = random.Random(6)
    booleans = boolean_permutations(6)
    elems = all_permutations(6)
    for _ in range(80):
        v, w = rng.choice(booleans), rng.choice(elems)
        assert check_matching(build_matching(v, w)) is None, (v, w)
        run_decompose(v)
        obstructions(v, w)


def test_the_matched_ideal_is_the_intersection_on_s5():
    shorter_w = 0
    for v in boolean_permutations(5):
        for w in all_permutations(5):
            over = build_matching(v, w).over
            want = intersect_ideals(v, w)
            assert (over.elements, over.maximal) == (want.elements, want.maximal), (v, w)
            shorter_w += w.length < v.length
    assert shorter_w > 100


def test_certificate_exports():
    v = Permutation.from_word((1, 3), 4)
    cert = build_matching(v, v)
    js = matching_to_json(cert)
    assert '"pair"' in js
    dot = matching_to_dot(cert)
    assert "penwidth=3" in dot


def reparsed_matching_dot(cert, name="matching"):
    """Oracle: ideal_to_dot with its cover lines re-parsed, pair edges made
    bold, and the singletons circled before the closing brace."""
    lines = ideal_to_dot(cert.over, name).splitlines()
    ids = {x: f"n{i}" for i, x in enumerate(cert.over.sorted_elements())}
    pair_edges = {
        (ids[s.lower], ids[s.upper]) for s in cert.steps if isinstance(s, Pair)
    }
    out = []
    for line in lines:
        stripped = line.strip()
        if "->" in stripped:
            src, dst = stripped.rstrip(";").split(" -> ")
            if (src, dst) in pair_edges:
                line = f"  {src} -> {dst} [penwidth=3];"
        out.append(line)
    for s in cert.singletons():
        out.insert(len(out) - 1, f"  {ids[s]} [peripheries=2];")
    return "\n".join(out)


@pytest.mark.parametrize("n", [4, 5])
def test_matching_dot_matches_the_reparsed_ideal_dot(n):
    every = [Permutation(p) for p in permutations(range(1, n + 1))]
    for v in boolean_permutations(n):
        for w in every:
            cert = build_matching(v, w)
            assert matching_to_dot(cert) == reparsed_matching_dot(cert), (v, w)
    assert matching_to_dot(cert, "m") == reparsed_matching_dot(cert, "m")


def test_lemma_sweep_builds_each_matching_once(monkeypatch):
    calls = Counter()
    real = verify.build_matching

    def counting(v, w, *args):
        calls[(v, w)] += 1
        return real(v, w, *args)

    monkeypatch.setattr(verify, "build_matching", counting)
    assert verify.check_lem4_3(3) == []
    assert len(calls) == len(boolean_permutations(3)) * 6
    assert set(calls.values()) == {1}


def test_matching_sweeps_check_each_certificate_once(monkeypatch):
    checked = []
    real = verify.check_matching

    def counting(cert):
        checked.append(cert)
        return real(cert)

    monkeypatch.setattr(verify, "check_matching", counting)
    booleans = boolean_permutations(4)
    swept = verify.check_thm5_10(4)
    assert swept == []
    assert len(checked) == swept.checked == len(booleans) - 1
    for check, perfect in ((verify.check_lem4_3, True), (verify.check_lem4_4, False)):
        checked.clear()
        swept = check(4)
        assert swept == []
        matched = sum(
            build_matching(v, w).is_perfect == perfect
            for v in booleans
            for w in map(Permutation, permutations(range(1, 5)))
        )
        assert len(checked) == len({id(c) for c in checked}) == swept.checked == matched


def test_matching_sweeps_report_an_invalid_certificate(monkeypatch):
    real = verify.build_matching

    def dropping(v, w):
        cert = real(v, w)
        return MatchingCertificate(cert.steps[1:], cert.over)

    monkeypatch.setattr(verify, "build_matching", dropping)
    v = Permutation((2, 1, 3))
    problem = check_matching(dropping(v, v))
    assert "not covered by any step" in problem
    assert f"v=2,1,3 w=2,1,3: certificate invalid: {problem}" in verify.check_lem4_3(3)
    assert f"v=2,1,3: certificate invalid: {problem}" in verify.check_thm5_10(3)


def test_matching_sweeps_report_a_certificate_of_another_ideal(monkeypatch):
    """A valid certificate of B(v) /\\ B(e) handed out for every pair: every
    pair whose intersection is larger is reported."""
    real = verify.build_matching
    monkeypatch.setattr(
        verify, "build_matching", lambda v, w: real(v, Permutation.identity(v.n))
    )
    pairs = [(v, w) for v in boolean_permutations(4) for w in all_permutations(4)]
    wrong = sum(len(intersect_ideals(v, w).elements) > 1 for v, w in pairs)
    assert 0 < wrong < len(pairs)
    for check, message in (
        (verify.check_prop5_8, ": certificate invalid: its ideal is not B(v) /\\ B(w)"),
        (verify.check_lem4_4, ": certificate invalid: its ideal is not B(v) /\\ B(w)"),
    ):
        swept = check(4)
        assert swept.checked == len(pairs)
        assert len(swept) == wrong
        assert all(line.endswith(message) for line in swept)
    # every handed-out matching has its singleton, so none is perfect
    assert verify.check_lem4_3(4).checked == 0


def test_matching_sweeps_report_a_homology_mismatch(monkeypatch):
    """An extra homology class at position 0 fails every matched pair, and
    each line states the nonzero homology against the expected."""
    real = verify.homology_ranks

    def extra_class(c):
        ranks = real(c)
        ranks[0] += 1
        return ranks

    monkeypatch.setattr(verify, "homology_ranks", extra_class)
    line = re.compile(r": nonzero homology \{0: (1|2|1, -\d+: 1)\}, expected \{(-?\d+: 1)?\}$")
    for check in (verify.check_lem4_3, verify.check_lem4_4, verify.check_thm5_10):
        swept = check(3)
        assert 0 < len(swept) == swept.checked
        assert all(line.search(report) for report in swept), swept
    booleans = boolean_permutations(3)
    assert verify.check_thm5_10(3).checked == len(booleans) - 1
    assert set(verify.check_lem4_3(3)) == {
        f"v={format_permutation(v)} w={format_permutation(w)}: "
        "nonzero homology {0: 1}, expected {}"
        for v in booleans
        for w in all_permutations(3)
        if build_matching(v, w).is_perfect
    }

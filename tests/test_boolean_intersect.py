import random
import re

import pytest

from boolbruhat.boolean_intersect import (
    Orientation,
    _maximal_admissible,
    _run_candidates,
    _run_leq,
    increasing_pairs,
    interval_components,
    intersection_maximal_closed_form,
    maximal_selfish,
    obstructions,
    orientation,
    selfish_count,
    subword_element,
)
import boolbruhat
from boolbruhat import boolean_intersect, bruhat, permcore, verify
from boolbruhat.bruhat import bruhat_leq, intersect_ideals, maximal_elements, run_word_leq
from boolbruhat.permcore import (
    CapExceededError,
    DegreeMismatchError,
    Permutation,
    all_permutations,
    boolean_permutations,
    canonical_reduced_word,
    parse_permutation,
    support,
)
from boolbruhat.verify import (
    _brute_maximal_selfish,
    check_cor3_6,
    check_prop3_5,
    orientation_oracle,
)


def fs(*xs):
    return frozenset(xs)


def test_selfish_lists_small_universes():
    assert maximal_selfish(range(1, 2)) == {fs(1)}
    assert maximal_selfish(range(1, 3)) == {fs(1), fs(2)}
    assert maximal_selfish(range(1, 4)) == {fs(1, 3), fs(2)}
    assert maximal_selfish(range(1, 5)) == {fs(1, 3), fs(2, 4), fs(1, 4)}
    assert maximal_selfish(range(1, 6)) == {
        fs(1, 3, 5),
        fs(2, 5),
        fs(2, 4),
        fs(1, 4),
    }


def test_selfish_counts_follow_two_step_recursion():
    assert [selfish_count(k) for k in range(1, 8)] == [1, 2, 2, 3, 4, 5, 7]
    for k in range(4, 16):
        assert selfish_count(k) == selfish_count(k - 2) + selfish_count(k - 3)


@pytest.mark.parametrize("k", range(1, 13))
def test_selfish_family_matches_brute_force(k):
    assert maximal_selfish(range(1, k + 1)) == _brute_maximal_selfish(
        range(1, k + 1)
    )


def test_selfish_universe_is_a_set():
    assert maximal_selfish([1, 1, 2]) == maximal_selfish([1, 2])


def test_selfish_family_factors_over_gaps():
    family = maximal_selfish({1, 2, 5, 6, 7})
    assert family == {
        fs(1, 5, 7),
        fs(1, 6),
        fs(2, 5, 7),
        fs(2, 6),
    }


def test_interval_components():
    assert interval_components({1, 2, 4, 5, 6, 8}) == [(1, 2), (4, 5, 6), (8,)]
    assert interval_components([]) == []


def test_orientation_table_for_two_specific_permutations():
    v = parse_permutation("3,1,2,6,4,7,8,9,5")
    w = parse_permutation("3,2,5,1,8,4,7,6,9")
    expected = {
        1: (Orientation.DECREASING, Orientation.INTERLACED),
        4: (Orientation.DECREASING, Orientation.INCREASING),
        5: (Orientation.INCREASING, Orientation.DECREASING),
        6: (Orientation.INCREASING, Orientation.INTERLACED),
    }
    for k, (ov, ow) in expected.items():
        assert orientation(v, k) == ov
        assert orientation(w, k) == ow


def test_orientation_requires_support():
    with pytest.raises(ValueError):
        orientation(Permutation((2, 1, 3)), 2)


@pytest.mark.parametrize("n", [3, 4])
def test_orientation_agrees_with_word_oracle(n):
    from boolbruhat.permcore import all_permutations

    for w in all_permutations(n):
        supp = support(w)
        oracle = orientation_oracle(w)
        for k in sorted(supp):
            if k + 1 in supp:
                assert orientation(w, k) == oracle[k]


def test_increasing_pairs_agree_with_word_oracle():
    for n in range(2, 8):
        for v in boolean_permutations(n):
            supp = support(v)
            pairs = [k for k in sorted(supp) if k + 1 in supp]
            assert increasing_pairs(v) <= set(pairs)
            oracle = orientation_oracle(v)
            for k in pairs:
                increasing = oracle[k] is Orientation.INCREASING
                assert (k in increasing_pairs(v)) == increasing, (v, k)


def test_obstruction_runs_for_two_known_pairs():
    v = Permutation.from_word((3, 2, 1), 4)
    w = Permutation.from_word((2, 1, 3, 2), 4)
    obs = obstructions(v, w)
    runs = {(r.start, r.span, r.direction) for r in obs}
    assert runs == {(1, 2, "decreasing")}

    v = Permutation.from_word((3, 2, 1, 4, 5), 6)
    w = Permutation.from_word((4, 5, 2, 1, 3, 2, 4), 6)
    obs = obstructions(v, w)
    runs = {(r.start, r.span, r.direction) for r in obs}
    assert runs == {(1, 2, "decreasing"), (3, 2, "increasing")}
    assert not all(r.span <= 1 for r in obs)


def test_obstructions_reject_mixed_degrees():
    small, big = Permutation((2, 1, 3)), Permutation((1, 3, 2, 4))
    for v, w in ((small, big), (Permutation((2, 1, 4, 3)), small)):
        with pytest.raises(DegreeMismatchError, match=f"degrees {v.n} and {w.n} differ"):
            obstructions(v, w)
        with pytest.raises(DegreeMismatchError):
            intersection_maximal_closed_form(v, w)


def candidates_of(v):
    """The run candidates of a boolean v, read off its masks."""
    supp = permcore._support_mask(v.images)
    return _run_candidates(supp, permcore._increasing_mask(v.images, supp))


def brute_minimal_runs(v, w):
    """Oracle: the candidates not below w whose letter sets are minimal
    among those of all such candidates, each compared by bruhat_leq."""
    bad = [r for r in candidates_of(v) if not bruhat_leq(r.permutation(v.n), w)]
    return {r for r in bad if not any(s.letter_set < r.letter_set for s in bad)}


def test_obstructions_match_the_brute_force():
    rng = random.Random(36)
    for n in range(2, 7):
        for v in boolean_permutations(n):
            for _ in range(4):
                w = Permutation(rng.sample(range(1, n + 1), n))
                obs = obstructions(v, w)
                assert obs == brute_minimal_runs(v, w), (v, w)


def test_subword_element_picks_letters_in_word_order():
    v = parse_permutation("3,1,2,6,4,7,8,9,5")
    x = subword_element(v, {2, 1, 5, 7})
    assert support(x) == fs(1, 2, 5, 7)
    assert x.length == 4


def test_subword_element_agrees_with_canonical_word_filter():
    for n in range(2, 7):
        for v in boolean_permutations(n):
            supp = sorted(support(v))
            outside = min(set(range(1, n + 1)) - set(supp))
            letters = supp + [outside]
            word = canonical_reduced_word(v).letters
            for mask in range(1 << len(letters)):
                keep = {x for i, x in enumerate(letters) if mask >> i & 1}
                oracle = Permutation.from_word([i for i in word if i in keep], n)
                assert subword_element(v, keep) == oracle, (v, keep)


def test_closed_form_on_worked_nine_point_example():
    v = parse_permutation("3,1,2,6,4,7,8,9,5")
    w = parse_permutation("3,2,5,1,8,4,7,6,9")
    maxima = intersection_maximal_closed_form(v, w)
    assert {m.images for m in maxima} == {
        (3, 1, 2, 4, 6, 5, 8, 7, 9),
        (3, 1, 2, 5, 4, 7, 8, 6, 9),
    }
    assert maxima == maximal_elements(intersect_ideals(v, w))


def test_closed_form_on_self_inverse_example():
    v = parse_permutation("3,1,2,6,4,7,8,9,5")
    maxima = intersection_maximal_closed_form(v, v.inverse())
    assert len(maxima) == 8
    assert {frozenset(support(m)) for m in maxima} == {
        fs(1, 4, 6, 8),
        fs(1, 4, 7),
        fs(1, 5, 7),
        fs(1, 5, 8),
        fs(2, 4, 6, 8),
        fs(2, 4, 7),
        fs(2, 5, 7),
        fs(2, 5, 8),
    }


def test_closed_form_with_nonadjacent_conflicting_pairs():
    # conflicting pairs {1,2} and {3,4} with {2,3} compatible: the support
    # {2,3} must appear even though it is not selfish as a plain subset
    v = Permutation.from_word((1, 2, 3, 4), 5)
    w = parse_permutation("3,1,5,2,4")
    maxima = intersection_maximal_closed_form(v, w)
    assert {frozenset(support(m)) for m in maxima} == {
        fs(1, 3),
        fs(1, 4),
        fs(2, 3),
        fs(2, 4),
    }
    assert maxima == maximal_elements(intersect_ideals(v, w))


def quadratic_maximal_admissible(universe, forbidden):
    """Oracle: every subset of universe, then the admissible ones that no
    other admissible subset strictly contains."""
    values = sorted(universe)
    subsets = [
        frozenset(x for i, x in enumerate(values) if m >> i & 1)
        for m in range(1 << len(values))
    ]
    admissible = [t for t in subsets if not any(f <= t for f in forbidden)]
    return {t for t in admissible if not any(t < other for other in admissible)}


def test_bitmask_maxima_match_the_quadratic_scan():
    rng = random.Random(30)
    for size in range(10):
        for _ in range(12):
            universe = rng.sample(range(1, 14), size)
            # runs of consecutive letters, the shape of obstruction runs
            intervals = [
                frozenset(iv[i:j])
                for iv in interval_components(universe)
                for i in range(len(iv))
                for j in range(i + 1, len(iv) + 1)
            ]
            families = [[], rng.sample(intervals, min(len(intervals), rng.randint(1, 4)))]
            if universe:
                families.append([frozenset({rng.choice(universe)})])
                families.append(
                    [frozenset(rng.sample(universe, rng.randint(1, size))) for _ in range(3)]
                )
            for forbidden in families:
                got = _maximal_admissible(universe, forbidden)
                assert got == quadratic_maximal_admissible(universe, forbidden), (
                    universe, forbidden,
                )
    assert _maximal_admissible({2, 5, 6}, []) == {fs(2, 5, 6)}
    assert _maximal_admissible({2, 5, 6}, [fs(5)]) == {fs(2, 6)}
    assert _maximal_admissible(set(), []) == {fs()}


def test_general_branch_refuses_above_the_cap(monkeypatch):
    v = Permutation.from_word((3, 2, 1, 4, 5), 6)
    w = Permutation.from_word((4, 5, 2, 1, 3, 2, 4), 6)
    assert len(support(v)) == 5
    assert not all(r.span <= 1 for r in obstructions(v, w))
    want = intersection_maximal_closed_form(v, w)
    monkeypatch.setattr(boolean_intersect, "ENUMERATION_CAP", 2**5)
    assert intersection_maximal_closed_form(v, w) == want
    monkeypatch.setattr(boolean_intersect, "ENUMERATION_CAP", 2**5 - 1)
    with pytest.raises(CapExceededError, match=r"2\^5 subsets, more than the cap 31"):
        intersection_maximal_closed_form(v, w)


def test_closed_form_of_self_intersection_is_the_element():
    for images in [(1, 2, 3), (2, 1, 3), (3, 1, 2)]:
        v = Permutation(images)
        assert intersection_maximal_closed_form(v, v) == [v]


def test_sampled_closed_form_check_reaches_degree_twelve():
    assert check_cor3_6(12, sample=20, seed=0) == []


def test_exhaustive_closed_form_check_draws_its_pairs_one_at_a_time(monkeypatch):
    handed = []

    class Counting:
        def __init__(self, elements):
            self.elements = elements

        def __iter__(self):
            for w in self.elements:
                handed.append(w)
                yield w

    def refuse(v, w):
        raise RuntimeError("first case")

    monkeypatch.setattr(verify, "all_permutations", lambda n: Counting(all_permutations(n)))
    monkeypatch.setattr(verify, "intersection_maximal_closed_form", refuse)
    with pytest.raises(RuntimeError, match="first case"):
        check_cor3_6(4)
    assert len(handed) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_membership_is_obstruction_run_avoidance(n):
    assert check_prop3_5(n) == []


def test_membership_check_reports_missing_obstructions(monkeypatch):
    monkeypatch.setattr(verify, "obstructions", lambda v, w: frozenset())
    bad = check_prop3_5(3)
    assert bad and all(re.match(r"v=\S+ w=\S+ x=\S+: membership False, predicted True$", line)
                       for line in bad)


def test_run_test_agrees_with_run_word_leq():
    rng = random.Random(38)
    for n in range(2, 7):
        everything = all_permutations(n)
        for v in boolean_permutations(n):
            candidates = candidates_of(v)
            for w in everything if n < 6 else rng.sample(everything, 40):
                leq = _run_leq(w)
                for r in candidates:
                    assert leq(r) == run_word_leq(r, w), (v, w, r)


def test_closed_form_reads_the_support_mask_at_most_twice(monkeypatch):
    """is_boolean reads it once, and the closed form once more for the
    support and increasing-pair masks that obstructions and the maxima
    share."""
    calls = []
    real = permcore._support_mask

    def counted(images):
        calls.append(images)
        return real(images)

    # every module that binds it, so no import path escapes
    modules = [getattr(boolbruhat, name) for name in dir(boolbruhat)]
    for module in (m for m in modules if type(m) is type(permcore)):
        if getattr(module, "_support_mask", None) is real:
            monkeypatch.setattr(module, "_support_mask", counted)
    assert boolean_intersect._support_mask is permcore._support_mask is counted
    rng = random.Random(39)
    booleans = boolean_permutations(7)
    everything = all_permutations(7)
    for _ in range(200):
        v, w = rng.choice(booleans), rng.choice(everything)
        calls.clear()
        intersection_maximal_closed_form(v, w)
        assert 1 <= len(calls) <= 2, (v, w, len(calls))


def test_closed_form_does_not_read_the_ideal_walk_test(monkeypatch):
    """The enumeration side of cor3.6 walks ideals through
    bruhat._leq_below; the closed form must not share it."""
    rng = random.Random(6)
    booleans = boolean_permutations(6)
    everything = all_permutations(6)
    pairs = [(rng.choice(booleans), rng.choice(everything)) for _ in range(300)]
    want = [intersection_maximal_closed_form(v, w) for v, w in pairs]
    monkeypatch.setattr(bruhat, "_leq_below", lambda w: lambda images, rank: False)
    assert any(maximal_elements(intersect_ideals(v, w)) != f for (v, w), f in zip(pairs, want))
    assert [intersection_maximal_closed_form(v, w) for v, w in pairs] == want

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from boolbruhat import bruhat
from boolbruhat.bruhat import (
    RunWord,
    bruhat_leq,
    down_covers,
    ideal_to_dot,
    ideal_to_json,
    intersect_ideals,
    maximal_elements,
    principal_ideal,
    run_word_leq,
)
from boolbruhat.permcore import (
    CapExceededError,
    Permutation,
    all_permutations,
    boolean_permutations,
    enumerate_reduced_words,
    is_boolean,
)
from boolbruhat.runs_matching import build_matching


def subword_leq(u, w):
    """Oracle: u <= w iff some reduced word of w has a reduced word of u
    as a subword."""
    if u.is_identity():
        return True
    targets = {rw.letters for rw in enumerate_reduced_words(u)}
    shortest = min(len(t) for t in targets)
    for rw in enumerate_reduced_words(w):
        s = rw.letters
        for positions in itertools.combinations(range(len(s)), shortest):
            if tuple(s[p] for p in positions) in targets:
                return True
    return False


@pytest.mark.parametrize("n", [2, 3, 4])
def test_comparison_matches_subword_oracle(n):
    elems = all_permutations(n)
    for u in elems:
        for w in elems:
            assert bruhat_leq(u, w) == subword_leq(u, w), (u, w)


def test_down_covers_are_the_elements_one_rank_below():
    for n in (4, 5):
        elems = all_permutations(n)
        for w in elems:
            expected = {
                x for x in elems if x.length == w.length - 1 and bruhat_leq(x, w)
            }
            assert down_covers(w) == expected


def test_principal_ideal_of_boolean_is_hypercube():
    for v in boolean_permutations(5):
        ideal = principal_ideal(v)
        assert len(ideal.elements) == 2 ** v.length
        # hypercube: every element covers exactly its rank many others
        for x in ideal.elements:
            below = [p for p in ideal.covers if p[1] == x]
            assert len(below) == x.length


def test_principal_ideal_cap(monkeypatch):
    w0 = Permutation(tuple(range(6, 0, -1)))
    monkeypatch.setattr(bruhat, "ENUMERATION_CAP", 10)
    with pytest.raises(CapExceededError):
        principal_ideal(w0)


def test_intersection_covers_match_ambient_covers():
    for v in boolean_permutations(4):
        for w in all_permutations(4):
            ideal = intersect_ideals(v, w)
            expected = {
                (x, y)
                for y in ideal.elements
                for x in down_covers(y)
                if x in ideal.elements
            }
            assert set(ideal.covers) == expected
    elems = all_permutations(4)
    for w in elems:
        for u in elems:
            for ideal in (principal_ideal(w), intersect_ideals(w, u)):
                # one object per element: every cover member is one of the
                # elements, and each element has its own length
                own = {id(x) for x in ideal.elements}
                assert all(id(x) in own and id(y) in own for x, y in ideal.covers)
                for x in ideal.elements:
                    assert x.length == Permutation(x.images).length
            part = intersect_ideals(w, u)
            assert part.elements == {
                x for x in elems if bruhat_leq(x, w) and bruhat_leq(x, u)
            }
            assert part.covers == intersect_ideals(u, w).covers


def test_ideals_and_intersections_match_brute_force_on_s5():
    elems = all_permutations(5)
    leq = {(x, w): bruhat_leq(x, w) for x in elems for w in elems}
    covered_by = {y: down_covers(y) for y in elems}

    def expected(members):
        covers = [(x, y) for y in members for x in covered_by[y] if x in members]
        covers.sort(key=lambda p: (p[0].length, p[0].images, p[1].images))
        maximal = members - {x for y in members for x in covered_by[y]}
        return members, maximal, tuple(covers)

    for w in elems:
        ideal = principal_ideal(w)
        below_w = {x for x in elems if leq[x, w]}
        assert (ideal.elements, ideal.maximal, ideal.covers) == expected(below_w)
        for u in elems:
            part = intersect_ideals(w, u)
            both = {x for x in below_w if leq[x, u]}
            got = (part.elements, part.maximal, part.covers)
            assert got == expected(both), (w, u)
            assert all(x.length == Permutation(x.images).length for x in part.elements)


def test_intersection_compares_only_elements_without_a_kept_up_cover(monkeypatch):
    calls = []
    factory = bruhat._leq_below

    def counting_factory(big):
        real = factory(big)

        def counting(images, rank):
            calls.append(images)
            return real(images, rank)

        return counting

    monkeypatch.setattr(bruhat, "_leq_below", counting_factory)
    elems = all_permutations(4)
    for w in elems:
        for u in elems:
            calls.clear()
            part = intersect_ideals(w, u)
            small = w if w.length <= u.length else u
            walked = principal_ideal(small)
            kept_up = {x for x, y in walked.covers if y in part.elements}
            assert sorted(calls) == sorted(
                x.images for x in walked.elements if x not in kept_up
            )
        calls.clear()
        intersect_ideals(w, w)
        assert calls == [w.images]
    # the subword walk of a boolean operand, in both argument orders
    for v in boolean_permutations(5):
        for u in all_permutations(5):
            for w in ((v, u), (u, v)):
                calls.clear()
                part = intersect_ideals(*w)
                walked = principal_ideal(min(w, key=lambda x: x.length))
                kept_up = {x for x, y in walked.covers if y in part.elements}
                assert sorted(calls) == sorted(
                    x.images for x in walked.elements if x not in kept_up
                ), w


def test_comparator_matches_bruhat_leq_on_s5():
    # at every rank: the matching asks about ranks above l(w) too
    elems = all_permutations(5)
    for w in elems:
        leq = bruhat._leq_below(w)
        for x in elems:
            assert leq(x.images, x.length) == bruhat_leq(x, w), (x, w)


def test_intersections_with_boolean_elements_match_brute_force_on_s8():
    rng = random.Random(8)
    booleans = boolean_permutations(8)
    for _ in range(300):
        v = rng.choice(booleans)
        images = list(range(1, 9))
        rng.shuffle(images)
        w = Permutation(images)
        ideal = principal_ideal(v)
        members = {x for x in ideal.elements if bruhat_leq(x, w)}
        covers = tuple(p for p in ideal.covers if p[1] in members)
        maximal = members - {x for y in members for x in down_covers(y)}
        part = intersect_ideals(v, w)
        assert part.elements == members, (v, w)
        assert part.maximal == maximal, (v, w)
        assert part.covers == covers, (v, w)
        assert intersect_ideals(w, v).covers == covers


def test_intersection_is_commutative_and_an_ideal():
    v = Permutation((2, 3, 4, 5, 1))
    w = Permutation((3, 1, 5, 2, 4))
    ideal = intersect_ideals(v, w)
    assert ideal.elements == intersect_ideals(w, v).elements
    for y in ideal.elements:
        for x in down_covers(y):
            assert x in ideal.elements


def test_maximal_elements_have_no_internal_up_cover():
    v = Permutation((2, 3, 4, 5, 1))
    w = Permutation((3, 1, 5, 2, 4))
    ideal = intersect_ideals(v, w)
    maxima = maximal_elements(ideal)
    for m in maxima:
        assert not any(m in down_covers(y) for y in ideal.elements)
    for x in ideal.elements:
        assert any(bruhat_leq(x, m) for m in maxima)


def test_the_pairs_path_lists_no_covers():
    # the cor3.6 maxima and a checked matching read an ideal's elements and
    # maxima only; the covers are listed only when something reads them
    from boolbruhat.boolean_intersect import intersection_maximal_closed_form
    from boolbruhat.runs_matching import check_matching

    rng = random.Random(36)
    booleans = boolean_permutations(6)
    elems = all_permutations(6)
    for _ in range(60):
        v, w = rng.choice(booleans), rng.choice(elems)
        ideal = intersect_ideals(v, w)
        assert maximal_elements(ideal) == intersection_maximal_closed_form(v, w)
        cert = build_matching(v, w)
        assert check_matching(cert) is None
        for walked in (ideal, cert.over):
            assert "covers" not in walked.__dict__, (v, w)
    assert ideal.covers is ideal.covers
    assert "covers" in ideal.__dict__


def test_run_word_letters_and_comparison():
    r = RunWord(2, 2, "decreasing")
    assert r.letters == (4, 3, 2)
    assert r.letter_set == frozenset({2, 3, 4})
    w0 = Permutation((5, 4, 3, 2, 1))
    assert run_word_leq(r, w0)
    assert not run_word_leq(RunWord(1, 1, "increasing"), Permutation((2, 1, 3)).inverse() * Permutation((2, 1, 3)))


def test_exports_mention_every_element():
    ideal = principal_ideal(Permutation((3, 1, 2)))
    dot = ideal_to_dot(ideal)
    js = ideal_to_json(ideal)
    for x in ideal.elements:
        label = ",".join(str(i) for i in x.images)
        assert label in dot
        assert label in js


def _same_ideal(got, want):
    return (
        got.elements == want.elements
        and got.maximal == want.maximal
        and ideal_to_json(got) == ideal_to_json(want)
    )


def test_subword_walk_matches_the_cover_walk_on_s5_and_s6():
    # every ordered pair of S_5 whose walked operand is boolean; for the
    # others intersect_ideals is itself the cover walk, and the brute-force
    # test on S_5 checks it
    elems = all_permutations(5)
    for v in elems:
        for w in elems:
            small, big = (v, w) if v.length <= w.length else (w, v)
            if not is_boolean(small):
                continue
            want = bruhat._cover_walk(small, bruhat._leq_below(big))
            assert _same_ideal(intersect_ideals(v, w), want), (v, w)
    for v in boolean_permutations(6):
        assert _same_ideal(principal_ideal(v), bruhat._cover_walk(v)), v


def test_subword_walk_matches_the_cover_walk_on_boolean_pairs_of_s8():
    rng = random.Random(17)
    booleans = boolean_permutations(8)
    shorter_w = 0
    for case in range(300):
        v = rng.choice(booleans)
        if case % 2:
            w = rng.choice(booleans)
        else:
            images = list(range(1, 9))
            rng.shuffle(images)
            w = Permutation(images)
        small, big = (v, w) if v.length <= w.length else (w, v)
        want = bruhat._cover_walk(small, bruhat._leq_below(big))
        assert _same_ideal(intersect_ideals(v, w), want), (v, w)
        assert _same_ideal(intersect_ideals(w, v), want), (w, v)
        shorter_w += w.length < v.length
    assert shorter_w >= 30


def test_boolean_top_over_the_cap_fails_before_building_images(monkeypatch):
    def no_images(identity, word):
        raise AssertionError("subword images built before the cap check")

    monkeypatch.setattr(bruhat, "ENUMERATION_CAP", 8)
    v = Permutation.from_word((1, 2, 3), 5)
    assert len(principal_ideal(v).elements) == 8
    monkeypatch.setattr(bruhat, "_subword_tuples", no_images)
    for top in (Permutation.from_word((4, 1, 2, 3), 5), Permutation.from_word(range(1, 30), 30)):
        with pytest.raises(CapExceededError):
            principal_ideal(top)
        with pytest.raises(CapExceededError):
            intersect_ideals(top, Permutation(tuple(range(top.n, 0, -1))))
        # the matching walks B(v) whatever w is
        with pytest.raises(CapExceededError):
            build_matching(top, Permutation.identity(top.n))


def test_walk_does_not_read_the_closed_form(monkeypatch):
    from boolbruhat import boolean_intersect

    monkeypatch.setattr(boolean_intersect, "increasing_pairs", lambda v: frozenset())
    monkeypatch.setattr(
        boolean_intersect, "subword_element", lambda v, letters: Permutation.identity(v.n)
    )
    rng = random.Random(6)
    booleans = boolean_permutations(6)
    elems = all_permutations(6)
    for _ in range(60):
        v, w = rng.choice(booleans), rng.choice(elems)
        want = {x for x in elems if bruhat_leq(x, v) and bruhat_leq(x, w)}
        assert intersect_ideals(v, w).elements == want, (v, w)
        assert intersect_ideals(w, v).elements == want, (w, v)

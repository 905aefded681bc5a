import itertools

import pytest
from hypothesis import given, strategies as st

from boolbruhat.bruhat import (
    IdealCapExceededError,
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
    Permutation,
    all_permutations,
    boolean_permutations,
    enumerate_reduced_words,
)


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
    elems = all_permutations(4)
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


def test_principal_ideal_cap():
    w0 = Permutation(tuple(range(6, 0, -1)))
    with pytest.raises(IdealCapExceededError):
        principal_ideal(w0, cap=10)


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
        below_w = principal_ideal(w)
        for u in elems:
            part = below_w.below(u)
            assert part.elements == {
                x for x in elems if bruhat_leq(x, w) and bruhat_leq(x, u)
            }
            assert part.covers == intersect_ideals(w, u).covers


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

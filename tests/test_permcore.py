import itertools

import pytest
from hypothesis import given, settings, strategies as st

from boolbruhat import permcore
from boolbruhat.permcore import (
    DegreeMismatchError,
    NotReducedError,
    Permutation,
    ReducedWord,
    CapExceededError,
    _capped_boolean_count,
    _word_iter,
    all_permutations,
    boolean_permutations,
    canonical_reduced_word,
    descents,
    enumerate_reduced_words,
    format_permutation,
    format_reduced_word,
    is_boolean,
    is_boolean_by_patterns,
    is_boolean_by_words,
    parse_permutation,
    parse_reduced_word,
    pattern_contains,
    support,
)
from boolbruhat.verify import check_thm2_4, subword_closure

perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
)


def test_length_counts_inversions():
    assert Permutation((3, 1, 2)).length == 2
    assert Permutation.identity(4).length == 0
    assert Permutation((4, 3, 2, 1)).length == 6


def test_length_matches_brute_force_inversion_count_on_s6():
    for images in itertools.permutations(range(1, 7)):
        inversions = sum(
            images[i] > images[j] for i in range(6) for j in range(i + 1, 6)
        )
        assert Permutation(images).length == inversions


@pytest.mark.parametrize("images", [(1, 1, 3), (0, 1, 2), (2, 3, 4), ()])
def test_non_permutations_are_rejected(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_word_evaluation_is_right_to_left():
    n = 4
    letters = (2, 1, 3)
    direct = Permutation.from_word(letters, n)
    composed = Permutation.identity(n)
    for i in letters:
        composed = composed * Permutation.simple(i, n)
    assert direct == composed


def test_word_length_is_counted_per_swap():
    """from_word adds +1 or -1 per letter; on every word of up to 6 letters
    over S_5, reduced or not, that agrees with counting inversions."""
    for size in range(7):
        for word in itertools.product(range(1, 5), repeat=size):
            w = Permutation.from_word(word, 5)
            assert w.length == Permutation(w.images).length, word


def test_word_errors_keep_their_text():
    with pytest.raises(ValueError, match=r"^generator index 5 out of range for S_5$"):
        Permutation.from_word((1, 5), 5)
    with pytest.raises(ValueError, match=r"^generator index 0 out of range for S_3$"):
        Permutation.simple(0, 3)
    # a bad letter is reported before the degree
    with pytest.raises(ValueError, match=r"^generator index 1 out of range for S_0$"):
        Permutation.from_word((1,), 0)
    for n in (0, -2):
        with pytest.raises(ValueError, match=r"^not a permutation of \[1,0\]: \(\)$"):
            Permutation.from_word((), n)


def test_multiplication_requires_same_degree():
    with pytest.raises(DegreeMismatchError):
        Permutation((2, 1)) * Permutation((1, 2, 3))


@given(perms)
def test_inverse_and_length(w):
    assert (w * w.inverse()).is_identity()
    assert w.inverse().length == w.length


@given(perms)
def test_support_matches_canonical_word_letters(w):
    assert support(w) == frozenset(canonical_reduced_word(w).letters)
    assert permcore._support_mask(w.images) == sum(1 << k for k in support(w))


def test_reduced_word_validation():
    word = ReducedWord((1, 2, 1), 3)
    assert word.permutation() == Permutation((3, 2, 1))
    assert word.permutation() is word.permutation()
    assert word == ReducedWord([1, 2, 1], 3)
    assert repr(word) == "ReducedWord(letters=(1, 2, 1), degree=3)"
    with pytest.raises(NotReducedError):
        ReducedWord((1, 1), 3)
    with pytest.raises(NotReducedError):
        ReducedWord((1, 2, 1, 2), 3)


def test_reduced_words_of_4132():
    w = Permutation((4, 1, 3, 2))
    words = {rw.letters for rw in enumerate_reduced_words(w)}
    assert words == {(3, 2, 1, 3), (3, 2, 3, 1), (2, 3, 2, 1)}


def test_canonical_word_is_lex_smallest():
    for n in range(1, 6):
        for w in all_permutations(n):
            words = sorted(rw.letters for rw in enumerate_reduced_words(w))
            assert canonical_reduced_word(w).letters == words[0], w
    # the longest element of S_50 has length 1225, past the recursion limit
    w0 = Permutation(range(50, 0, -1))
    staircase = tuple(i for k in range(1, 50) for i in range(k, 0, -1))
    assert canonical_reduced_word(w0).letters == staircase


def test_enumeration_guard_raises(monkeypatch):
    with pytest.raises(CapExceededError, match="guard"):
        enumerate_reduced_words(Permutation(tuple(range(7, 0, -1))))
    w0 = Permutation((4, 3, 2, 1))
    assert len(enumerate_reduced_words(w0)) == 16
    monkeypatch.setattr(permcore, "ENUMERATION_CAP", 15)
    with pytest.raises(CapExceededError, match="reduced words"):
        enumerate_reduced_words(w0)


def _words_by_breadth(n):
    """Oracle: the reduced words of every element of S_n, grown a letter at
    a time; a word is kept when its evaluation's length is its size."""
    words = {Permutation.identity(n): {()}}
    level = [()]
    while level:
        level = [
            word + (a,)
            for word in level
            for a in range(1, n)
            if Permutation.from_word(word + (a,), n).length == len(word) + 1
        ]
        for word in level:
            words.setdefault(Permutation.from_word(word, n), set()).add(word)
    return words


def test_reduced_words_match_a_breadth_first_oracle():
    for n in range(1, 6):
        oracle = _words_by_breadth(n)
        assert len(oracle) == len(all_permutations(n))
        for w in all_permutations(n):
            assert {rw.letters for rw in enumerate_reduced_words(w)} == oracle[w], w
            walk = list(_word_iter(w))
            assert all(a < b for a, b in zip(walk, walk[1:])), w


def test_word_walks_build_no_permutation_per_letter(monkeypatch):
    w0 = Permutation((5, 4, 3, 2, 1))
    built = []
    init = Permutation.__init__
    of_valid = Permutation._of_valid

    def counted(self, images):
        built.append(images)
        init(self, images)

    def counted_valid(images, length):
        built.append(images)
        return of_valid(images, length)

    # both ways of building one: __init__ and the unchecked _of_valid
    monkeypatch.setattr(Permutation, "__init__", counted)
    monkeypatch.setattr(Permutation, "_of_valid", counted_valid)
    walk = list(_word_iter(w0))
    assert len(walk) == 768 and built == []
    assert len(enumerate_reduced_words(w0)) == 768 and len(built) == 768
    built.clear()
    assert len(subword_closure(walk[0] + walk[-1], 5)) == 120 and built == []


def test_descents_both_sides():
    w = Permutation((3, 1, 4, 2))
    assert descents(w, "right") == frozenset({1, 3})
    assert descents(w, "left") == frozenset({2})
    for w in all_permutations(5):
        assert descents(w, "left") == descents(w.inverse(), "right")
    # the masks against the definitions, and each view against its mask
    for n in range(1, 7):
        for w in all_permutations(n):
            x = w.images
            right, left = permcore._descent_masks(x)
            for k in range(n + 2):
                assert (right >> k & 1) == (1 <= k < n and x[k - 1] > x[k]), (w, k)
                assert (left >> k & 1) == (1 <= k < n and x.index(k + 1) < x.index(k)), (w, k)
            assert descents(w, "right") == {k for k in range(n) if right >> k & 1}
            assert descents(w, "left") == {k for k in range(n) if left >> k & 1}
            assert support(w) == {k for k in range(n) if permcore._support_mask(x) >> k & 1}


def test_pattern_containment():
    assert pattern_contains(Permutation((4, 1, 3, 2)), Permutation((3, 2, 1)))
    assert not pattern_contains(Permutation((2, 1, 4, 3)), Permutation((3, 2, 1)))


@settings(deadline=None)
@given(perms)
def test_boolean_characterizations_agree(w):
    assert is_boolean(w) == is_boolean_by_patterns(w) == is_boolean_by_words(w)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_boolean_counts_small_degrees():
    assert [len(boolean_permutations(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 5, 13, 34]
    for n in range(6, 13):
        assert len(boolean_permutations(n)) == fibonacci(2 * n - 1), n


def test_boolean_generator_matches_the_filter():
    for n in range(1, 9):
        oracle = [w for w in all_permutations(n) if is_boolean(w)]
        got = boolean_permutations(n)
        assert got == oracle, n
        assert [w.length for w in got] == [w.length for w in oracle], n
    for w in all_permutations(5):
        every_word_distinct = all(
            len(set(rw.letters)) == len(rw.letters) for rw in enumerate_reduced_words(w)
        )
        assert is_boolean_by_words(w) == every_word_distinct
    assert check_thm2_4(7) == []


def test_boolean_enumeration_is_capped():
    assert _capped_boolean_count(15) == fibonacci(29)
    with pytest.raises(CapExceededError):
        boolean_permutations(16)


def test_parse_and_format_round_trip():
    w = parse_permutation("3,1,2,6,4,7,8,9,5")
    assert format_permutation(w) == "3,1,2,6,4,7,8,9,5"
    assert parse_permutation("(11),4,3,(10),5,2,1,6,7,9,8,12").n == 12
    rw = parse_reduced_word("2 3 2 1", 4)
    assert format_reduced_word(rw) == "2 3 2 1"


def test_all_permutations_sorted_by_length():
    lengths = [w.length for w in all_permutations(4)]
    assert lengths == sorted(lengths)
    assert len(set(all_permutations(4))) == 24


def test_all_permutations_is_capped():
    with pytest.raises(CapExceededError):
        all_permutations(10)


def test_every_exported_name_resolves():
    import boolbruhat

    for name in boolbruhat.__all__:
        assert hasattr(boolbruhat, name), name

import pytest
from hypothesis import given, strategies as st

from boolbruhat.permcore import Permutation, all_permutations, boolean_permutations
from boolbruhat.rs_afunction import (
    YoungShape,
    a_function,
    longest_parabolic_element,
    rs_shape,
)
from boolbruhat.runs_matching import run_decompose
from boolbruhat.verify import check_cor6_7, check_thm6_4

perms = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
)


def longest_increasing(seq):
    import bisect

    tails = []
    for x in seq:
        k = bisect.bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def test_shape_validation():
    with pytest.raises(ValueError):
        YoungShape((2, 3))
    with pytest.raises(ValueError):
        YoungShape((1, 0))
    assert YoungShape((3, 1)).size == 4
    assert YoungShape((3, 1)).part(2) == 1
    assert YoungShape((3, 1)).part(5) == 0
    assert str(YoungShape((3, 1))) == "3,1"


def test_shape_examples():
    assert rs_shape(Permutation((1, 2, 3))).parts == (3,)
    assert rs_shape(Permutation((3, 2, 1))).parts == (1, 1, 1)
    assert rs_shape(Permutation((2, 1, 4, 3))).parts == (2, 2)
    assert rs_shape(Permutation((4, 1, 3, 2))).parts == (2, 1, 1)


@given(perms)
def test_first_row_is_longest_increasing_subsequence(w):
    assert rs_shape(w).part(1) == longest_increasing(w.images)


@given(perms)
def test_shape_of_inverse_is_the_same(w):
    assert rs_shape(w.inverse()) == rs_shape(w)


def test_a_function_values():
    for n in (2, 3, 4, 5):
        w0 = Permutation(tuple(range(n, 0, -1)))
        assert a_function(w0) == n * (n - 1) // 2
        assert a_function(Permutation.identity(n)) == 0
    # one fixed value by hand: shape (2,2), a = 0*2 + 1*2, or C(2,2) + C(2,2)
    # over its two columns of height 2
    assert a_function(Permutation((2, 1, 4, 3))) == 2


def test_a_function_is_the_sum_over_columns():
    for n in range(1, 7):
        for w in all_permutations(n):
            parts = rs_shape(w).parts
            columns = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
            assert a_function(w) == sum(c * (c - 1) // 2 for c in columns), w


def test_second_row_counts_runs_for_boolean_elements():
    for n in (3, 4, 5, 6):
        for v in boolean_permutations(n):
            if v.is_identity():
                continue
            assert rs_shape(v).part(2) == run_decompose(v).count


def test_boolean_sweeps_reach_degree_ten():
    assert check_thm6_4(10) == []
    assert check_cor6_7(10) == []


def test_longest_parabolic_elements():
    mu = YoungShape((2, 2))
    assert longest_parabolic_element(mu, 4) == Permutation((2, 1, 4, 3))
    assert longest_parabolic_element(YoungShape((3, 1)), 4) == Permutation(
        (3, 2, 1, 4)
    )
    assert longest_parabolic_element(YoungShape((1, 1, 1)), 3).is_identity()
    with pytest.raises(ValueError):
        longest_parabolic_element(mu, 5)


def test_parabolic_longest_element_has_parabolic_length():
    w = longest_parabolic_element(YoungShape((3, 2, 1)), 6)
    assert w.length == 3 + 1
    assert all(w.images[i] <= 6 for i in range(6))
    assert sorted(w.images) == list(range(1, 7))

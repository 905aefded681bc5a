"""Acceptance gate: one test per release criterion, each printing a
single PASS line with the scale it covered."""
import time

from boolbruhat.bgg_homology import (
    build_sign_assignment,
    differential_squares_to_zero,
    grade,
    grade_table,
    is_exact,
    restricted_complex,
)
from boolbruhat.boolean_intersect import (
    intersection_maximal_closed_form,
    maximal_selfish,
    orientation,
)
from boolbruhat.permcore import (
    Permutation,
    all_permutations,
    parse_permutation,
    support,
)
from boolbruhat.rs_afunction import a_function
from boolbruhat.verify import (
    check_cor3_6,
    check_lem4_3,
    check_lem4_4,
    check_lem5_6,
    check_prop3_3,
    check_prop5_8,
    check_thm3_10,
    check_thm5_10,
    check_thm6_4,
    check_thm6_8,
    check_thm7_2,
    check_thm7_3,
    subword_closure,
)

V9 = parse_permutation("3,1,2,6,4,7,8,9,5")
W9 = parse_permutation("3,2,5,1,8,4,7,6,9")


def test_criterion_01_rank_two_grade_table():
    start = time.perf_counter()
    rows = grade_table(3, build_sign_assignment(3))
    elapsed = time.perf_counter() - start
    assert [r["grade"] for r in rows] == [0, 1, 1, 1, 1, 3]
    assert elapsed < 1.0
    print(f"PASS criterion 1: rank-two grades (0,1,1,1,1,3) in {elapsed:.3f}s")


def test_criterion_02_grade_equals_a_on_boolean_elements():
    for n in (3, 4, 5, 6, 7, 8):
        assert check_thm6_8(n) == []
    assert check_thm6_8(6, sample=200, seed=0) == []
    print(
        "PASS criterion 2: grade = a, boolean, exhaustive n<=8 + 200 draws with"
        " replacement at n=6, each distinct element checked once"
    )


def test_criterion_03_rank_three_mismatches():
    signs = build_sign_assignment(4)
    off = {
        w
        for w in all_permutations(4)
        if grade(w, signs).grade != a_function(w)
    }
    assert off == {
        Permutation.from_word((2, 1, 3, 2), 4),
        Permutation.from_word((1, 2, 3, 2, 1), 4),
    }
    print("PASS criterion 3: grade != a exactly at [2132] and [12321] in S_4")


def test_criterion_04_parabolic_grades_and_perfection():
    for n in (2, 3, 4, 5):
        assert check_thm7_2(n) == []
    for n in (2, 3, 4, 5, 6, 7):
        assert check_thm7_3(n) == []
    print(
        "PASS criterion 4: parabolic grade = length (n<=5) and perfection iff"
        " longest parabolic (n<=7)"
    )


def test_criterion_05_second_row_counts_runs():
    start = time.perf_counter()
    for n in range(2, 9):
        assert check_thm6_4(n) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: second shape row = run count, n<=8, {elapsed:.1f}s")


def test_criterion_06_selfish_counts_and_lists():
    assert check_prop3_3(15) == []
    fs = frozenset
    assert maximal_selfish(range(1, 5)) == {
        fs({1, 3}),
        fs({2, 4}),
        fs({1, 4}),
    }
    assert maximal_selfish(range(1, 6)) == {
        fs({1, 3, 5}),
        fs({2, 5}),
        fs({2, 4}),
        fs({1, 4}),
    }
    print("PASS criterion 6: selfish counts k<=15, explicit lists k<=5")


def test_criterion_07_closed_form_vs_enumeration():
    assert check_cor3_6(5) == []
    assert check_cor3_6(6, sample=1000, seed=0) == []
    maxima = intersection_maximal_closed_form(V9, W9)
    assert set(maxima) == {
        Permutation.from_word((5, 2, 1, 7), 9),
        Permutation.from_word((2, 1, 4, 6, 7), 9),
    }
    eight = intersection_maximal_closed_form(V9, V9.inverse())
    assert {frozenset(support(m)) for m in eight} == {
        frozenset(s)
        for s in (
            {1, 4, 6, 8},
            {1, 4, 7},
            {1, 5, 7},
            {1, 5, 8},
            {2, 4, 6, 8},
            {2, 4, 7},
            {2, 5, 7},
            {2, 5, 8},
        )
    }
    print("PASS criterion 7: closed form = enumeration, S_5 full + 1000 S_6 pairs")


def test_criterion_08_orientation_oracle_and_table():
    for n in (3, 4, 5):
        assert check_thm3_10(n) == []
    table = {
        1: ("decreasing", "interlaced"),
        4: ("decreasing", "increasing"),
        5: ("increasing", "decreasing"),
        6: ("increasing", "interlaced"),
    }
    for k, (ov, ow) in table.items():
        assert orientation(V9, k).value == ov
        assert orientation(W9, k).value == ow
    print("PASS criterion 8: orientation = word oracle n<=5, table reproduced")


def test_criterion_09_optimal_matchings_and_their_homology():
    for n in (3, 4, 5, 6):
        assert check_thm5_10(n) == []
    for n in (3, 4, 5):
        assert check_lem4_3(n) == []
        assert check_lem4_4(n) == []
    print("PASS criterion 9: optimal matchings almost perfect, homology at -run(v), n<=6")


def test_criterion_10_singleton_rank_bound():
    assert check_prop5_8(5) == []
    print("PASS criterion 10: singleton rank <= l(v) - run(v), S_5 exhaustive")


def test_criterion_11_slimming():
    assert check_lem5_6(5) == []
    s = (3, 2, 1, 2, 3, 2)
    from boolbruhat.permcore import ReducedWord, is_boolean
    from boolbruhat.runs_matching import slim

    top = slim(ReducedWord(s, 5), 3)
    assert top == Permutation.from_word((3, 2, 3), 5)
    closure = {Permutation(x) for x in subword_closure(s[:2] + s[3:], 5)}
    assert {x for x in closure if is_boolean(x)} == {
        Permutation.identity(5),
        Permutation.from_word((2,), 5),
        Permutation.from_word((3,), 5),
        Permutation.from_word((2, 3), 5),
        Permutation.from_word((3, 2), 5),
    }
    print("PASS criterion 11: slimming vs closure, words of length <= 8 in S_5")


def test_criterion_12_complex_structure():
    for n in (2, 3, 4, 5, 6):
        signs = build_sign_assignment(n)
        w0 = Permutation(tuple(range(n, 0, -1)))
        assert differential_squares_to_zero(restricted_complex(w0, w0, signs))
    for n in (2, 3, 4, 5):
        signs = build_sign_assignment(n)
        w0 = Permutation(tuple(range(n, 0, -1)))
        assert is_exact(restricted_complex(w0, w0, signs))
        for w in all_permutations(n):
            if w.is_identity():
                continue
            assert is_exact(restricted_complex(w, w, signs))
    print("PASS criterion 12: d o d = 0 (n<=6), full and principal exactness (n<=5)")

import pytest

from boolbruhat import bgg_homology
from boolbruhat.bgg_homology import (
    DegreeCapExceededError,
    GradeReport,
    SignAssignment,
    build_sign_assignment,
    diamond_violations,
    differential_squares_to_zero,
    grade,
    grade_of_parabolic_longest,
    grade_table,
    grade_table_csv,
    homology_ranks,
    integer_rank,
    is_exact,
    is_longest_parabolic_element,
    is_perfect,
    restricted_complex,
)
from boolbruhat.bruhat import bruhat_leq
from boolbruhat.permcore import Permutation, all_permutations, boolean_permutations
from boolbruhat.rs_afunction import YoungShape, a_function
from boolbruhat.verify import check_thm7_2


def w3(*letters):
    return Permutation.from_word(letters, 3)


def test_hand_built_rank_three_sign_assignment_is_valid():
    e, s, t = Permutation.identity(3), w3(1), w3(2)
    st, ts, w0 = w3(1, 2), w3(2, 1), w3(1, 2, 1)
    signs = SignAssignment(
        3,
        {
            (e, s): 1,
            (e, t): 1,
            (s, st): -1,
            (t, st): 1,
            (s, ts): 1,
            (t, ts): -1,
            (st, w0): 1,
            (ts, w0): 1,
        },
    )
    assert diamond_violations(signs) == []


def test_single_cover_sign_is_the_root_value():
    signs = build_sign_assignment(2)
    e, s = Permutation.identity(2), Permutation((2, 1))
    assert signs.sign[(e, s)] == 1
    flipped = build_sign_assignment(2, flip_roots=True)
    assert flipped.sign[(e, s)] == -1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generated_assignment_has_no_diamond_violations(n):
    assert diamond_violations(build_sign_assignment(n)) == []


def test_degree_cap():
    with pytest.raises(DegreeCapExceededError):
        build_sign_assignment(8)


def test_sign_assignment_is_built_once_per_degree_and_root_choice():
    first = build_sign_assignment(3)
    assert build_sign_assignment(3, 7) is first
    assert build_sign_assignment(3, flip_roots=False) is first
    build_sign_assignment(4)
    with pytest.raises(DegreeCapExceededError):
        build_sign_assignment(4, cap=3)


def test_integer_rank_examples():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2


def test_differential_squares_to_zero_everywhere():
    signs = build_sign_assignment(4)
    w0 = Permutation((4, 3, 2, 1))
    for u in all_permutations(4):
        c = restricted_complex(w0, u, signs)
        assert differential_squares_to_zero(c)


def test_restricted_complex_matches_brute_force():
    signs = build_sign_assignment(4)
    elems = all_permutations(4)
    for w in elems:
        for u in elems:
            below = [x for x in elems if bruhat_leq(x, w) and bruhat_leq(x, u)]
            basis = [
                sorted((x for x in below if x.length == w.length - i), key=lambda x: x.images)
                for i in range(w.length + 1)
            ]
            matrices = [()] + [
                tuple(
                    tuple(
                        signs.sign[(x, y)] if bruhat_leq(x, y) else 0
                        for x in basis[i]
                    )
                    for y in basis[i - 1]
                )
                for i in range(1, w.length + 1)
            ]
            c = restricted_complex(w, u, signs)
            assert c.dims == tuple(len(b) for b in basis), (w, u)
            assert c.matrices == tuple(matrices), (w, u)


def test_full_order_complex_is_exact():
    for n in (3, 4):
        signs = build_sign_assignment(n)
        w0 = Permutation(tuple(range(n, 0, -1)))
        assert is_exact(restricted_complex(w0, w0, signs))


def test_homology_of_crossed_rank_two_elements():
    signs = build_sign_assignment(3)
    c = restricted_complex(w3(1, 2), w3(2, 1), signs)
    assert c.dims == (0, 2, 1)
    assert homology_ranks(c) == {0: 0, -1: 1, -2: 0}


def test_grade_table_of_rank_two():
    signs = build_sign_assignment(3)
    rows = grade_table(3, signs)
    assert [r["grade"] for r in rows] == [0, 1, 1, 1, 1, 3]
    assert [r["a"] for r in rows] == [0, 1, 1, 1, 1, 3]
    csv_text = grade_table_csv(rows)
    assert csv_text.splitlines()[0] == "w,length,a,grade,perfect,witness_u"
    assert len(csv_text.splitlines()) == 7


def test_grade_equals_a_value_in_rank_three_except_two_elements():
    signs = build_sign_assignment(4)
    expected_off = {
        Permutation.from_word((2, 1, 3, 2), 4),
        Permutation.from_word((1, 2, 3, 2, 1), 4),
    }
    off = set()
    for w in all_permutations(4):
        if grade(w, signs).grade != a_function(w):
            off.add(w)
    assert off == expected_off


def test_grade_pruning_matches_an_unpruned_scan():
    def unpruned_grade(w, signs):
        positions = [
            -p
            for u in all_permutations(w.n)
            for p, h in homology_ranks(restricted_complex(w, u, signs)).items()
            if h
        ]
        return min(positions)

    for n, elems in ((4, all_permutations(4)), (5, boolean_permutations(5))):
        signs = build_sign_assignment(n)
        for w in elems:
            assert grade(w, signs).grade == unpruned_grade(w, signs), w


def test_parabolic_longest_elements_are_perfect():
    signs = build_sign_assignment(4)
    report = grade_of_parabolic_longest(YoungShape((2, 2)), 4, signs)
    assert report.w == Permutation((2, 1, 4, 3))
    assert report.grade == 2
    assert is_perfect(report.w, signs)


def test_thm7_2_check_reports_a_wrong_grade(monkeypatch):
    monkeypatch.setattr(
        bgg_homology, "grade", lambda w, signs: GradeReport(w, w.length + 1, w)
    )
    assert len(check_thm7_2(3)) == 3


def test_grades_do_not_depend_on_the_root_choice():
    for n in (3, 4):
        plain = build_sign_assignment(n)
        flipped = build_sign_assignment(n, flip_roots=True)
        for w in all_permutations(n):
            assert grade(w, plain).grade == grade(w, flipped).grade


def test_longest_parabolic_recognition():
    assert is_longest_parabolic_element(Permutation((2, 1, 4, 3)))
    assert is_longest_parabolic_element(Permutation((3, 2, 1)))
    assert is_longest_parabolic_element(Permutation.identity(3))
    assert not is_longest_parabolic_element(Permutation((2, 4, 1, 3)))
    assert not is_longest_parabolic_element(Permutation((1, 2, 4, 3, 5)).inverse() * Permutation((1, 3, 2, 4, 5)))

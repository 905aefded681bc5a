import dataclasses
import random

import pytest

from boolbruhat import bgg_homology, bruhat, verify
from boolbruhat.bgg_homology import (
    GradeReport,
    SignAssignment,
    _cover_count,
    _ideal_indices,
    _members,
    build_complex,
    build_sign_assignment,
    diamond_violations,
    differential_squares_to_zero,
    grade,
    grade_table,
    grade_table_csv,
    homology_ranks,
    integer_rank,
    is_exact,
    is_longest_parabolic_element,
    is_perfect,
    restricted_complex,
)
from boolbruhat.boolean_intersect import interval_components
from boolbruhat.bruhat import bruhat_leq, down_covers, intersect_ideals
from boolbruhat.permcore import (
    CapExceededError,
    DegreeMismatchError,
    Permutation,
    all_permutations,
    boolean_permutations,
    descents,
    is_boolean,
    support,
)
from boolbruhat.rs_afunction import YoungShape, a_function, longest_parabolic_element
from boolbruhat.verify import check_thm7_2


def w3(*letters):
    return Permutation.from_word(letters, 3)


def test_hand_built_rank_three_sign_assignment_is_valid():
    e, s, t = Permutation.identity(3), w3(1), w3(2)
    st, ts, w0 = w3(1, 2), w3(2, 1), w3(1, 2, 1)
    pairs = {
        (e, s): 1,
        (e, t): 1,
        (s, st): -1,
        (t, st): 1,
        (s, ts): 1,
        (t, ts): -1,
        (st, w0): 1,
        (ts, w0): 1,
    }
    elements = all_permutations(3)
    index = {x.images: k for k, x in enumerate(elements)}
    built = build_sign_assignment(3)
    # the report order does not depend on the order of the sign keys
    for order in (list(pairs.items()), list(reversed(pairs.items()))):
        sign = [{} for _ in elements]
        for (x, y), value in order:
            sign[index[y.images]][index[x.images]] = value
        signs = SignAssignment(3, elements, index, built.down, sign)
        assert diamond_violations(signs) == []
        assert signs.elements == all_permutations(3)
        assert signs.index == built.index
        assert [sorted(covers) for covers in sign] == [list(c) for c in built.down]
        sign[index[w0.images]][index[st.images]] = -1
        assert diamond_violations(signs) == [(t, w0), (s, w0)]


def test_sign_assignment_holds_one_object_per_element():
    # the covers are held once, in down
    fields = tuple(f.name for f in dataclasses.fields(SignAssignment))
    assert fields == ("degree", "elements", "index", "down", "sign")
    signs = build_sign_assignment(4)
    assert signs.elements == all_permutations(4)
    assert len(signs.index) == len(signs.elements) == len(signs.down) == len(signs.sign)
    # the index keys are the elements' own one-line tuples, and the signs
    # name elements only by position
    assert all(
        key is x.images and signs.index[key] == k
        for k, (key, x) in enumerate(zip(signs.index, signs.elements))
    )
    assert all(
        type(j) is int and 0 <= j < len(signs.elements)
        for covers in signs.down
        for j in covers
    )


def test_down_lists_are_the_sorted_cover_indices():
    for n in range(2, 6):
        signs = build_sign_assignment(n)
        index = {x: k for k, x in enumerate(signs.elements)}
        assert len(signs.down) == len(signs.elements)
        for k, x in enumerate(signs.elements):
            assert list(signs.down[k]) == sorted(index[y] for y in down_covers(x))
            assert signs.index[x.images] == k


def test_single_cover_sign_is_the_root_value():
    # the first down-cover of each element, here the only one, gets +1
    signs = build_sign_assignment(2)
    e, s = Permutation.identity(2), Permutation((2, 1))
    sign = signs.signed([signs.index[s.images]])
    assert sign[signs.index[s.images]] == {signs.index[e.images]: 1}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generated_assignment_has_no_diamond_violations(n):
    assert diamond_violations(build_sign_assignment(n)) == []


def _reference_signs(n):
    """The sign solve as first written: diamonds found by tuple membership,
    constraints held in dicts keyed by element index, and each coupling
    component solved by breadth-first propagation from +1 at its smallest
    member."""
    elements = all_permutations(n)
    index = {x.images: k for k, x in enumerate(elements)}
    down = [
        tuple(sorted(index[t] for t in bruhat._down_images(x.images)))
        for x in elements
    ]
    sign = []
    for k, dk in enumerate(down):
        diamonds = [
            (j1, j2, i)
            for a, j1 in enumerate(dk)
            for j2 in dk[a + 1 :]
            for i in down[j1]
            if i in down[j2]
        ]
        constraints = {j: [] for j in dk}
        for j1, j2, i in diamonds:
            parity = -sign[j1][i] * sign[j2][i]
            constraints[j1].append((j2, parity))
            constraints[j2].append((j1, parity))
        value = {}
        for j in dk:
            if j in value:
                continue
            value[j] = 1
            queue = [j]
            while queue:
                cur = queue.pop()
                for other, parity in constraints[cur]:
                    want = value[cur] * parity
                    if other not in value:
                        value[other] = want
                        queue.append(other)
                    elif value[other] != want:
                        raise ValueError(f"inconsistent below {elements[k]!r}")
        sign.append({j: value[j] for j in dk})
    return sign


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sign_solve_matches_the_reference_solve(n):
    signs = build_sign_assignment(n)
    sign = signs.signed(range(len(signs.elements)))
    want = _reference_signs(n)
    assert sign == want
    assert [list(s) for s in sign] == [list(s) for s in want]


def test_signs_of_one_ideal_equal_the_whole_pass():
    """A fresh assignment over the same covers, signed on B(w) alone, has
    the fully signed assignment's values there and nothing outside it."""
    rng = random.Random(7)
    for n in (4, 5, 6, 7):
        full = build_sign_assignment(n)
        size = len(full.elements)
        want = full.signed(range(size))
        for top in rng.sample(range(size), 100) if n == 7 else range(size):
            fresh = SignAssignment(n, full.elements, full.index, full.down, [None] * size)
            got = fresh.signed([top])
            below = _ideal_indices(full.down, top)
            for k, value in enumerate(got):
                if k in below:
                    assert list(value.items()) == list(want[k].items()), (n, top, k)
                else:
                    assert value is None, (n, top, k)


def test_grading_the_booleans_signs_only_boolean_elements():
    signs = bgg_homology._build_sign_assignment.__wrapped__(7)
    assert signs.sign == [None] * 5040
    for w in boolean_permutations(7):
        grade(w, signs)
    signed = {k for k, value in enumerate(signs.sign) if value is not None}
    assert signed and signed <= set(signs.masks.boolean)
    # the signed elements form an order ideal
    assert all(j in signed for k in signed for j in signs.down[k])


def test_a_broken_diamond_sign_is_reported(monkeypatch):
    # the top element's last down-cover sign negated: every diamond through
    # that edge breaks, and nothing above it reads the wrong sign
    signs = bgg_homology._build_sign_assignment.__wrapped__(4)
    top = len(signs.elements) - 1
    real = bgg_homology._sign_covers

    def negate_last(signs, k):
        value = real(signs, k)
        if k == top:
            value[signs.down[k][-1]] *= -1
        return value

    monkeypatch.setattr(bgg_homology, "_sign_covers", negate_last)
    bad = diamond_violations(signs)
    assert bad and {z for _, z in bad} == {signs.elements[top]}


def test_inconsistent_diamond_system_raises(monkeypatch):
    # s1 s2 in S_4 given the extra down-cover s3: its three down-edges then
    # pairwise share the diamond over e, an odd cycle of sign flips
    real = bruhat._down_images

    def extra_cover(images):
        yield from real(images)
        if images == (2, 3, 1, 4):
            yield (1, 2, 4, 3)

    monkeypatch.setattr(bgg_homology, "_down_images", extra_cover)
    signs = bgg_homology._build_sign_assignment.__wrapped__(4)
    with pytest.raises(AssertionError, match="inconsistent diamond system"):
        diamond_violations(signs)


def test_down_cover_with_no_diamond_to_an_earlier_one_raises(monkeypatch):
    # s3 s4 s3 in S_5 given the extra down-cover s1 s2, which sorts after
    # its two real down-covers and shares no lower cover with either
    real = bruhat._down_images

    def extra_cover(images):
        yield from real(images)
        if images == (1, 2, 5, 4, 3):
            yield (2, 3, 1, 4, 5)

    monkeypatch.setattr(bgg_homology, "_down_images", extra_cover)
    signs = bgg_homology._build_sign_assignment.__wrapped__(5)
    top = signs.index[(1, 2, 5, 4, 3)]
    with pytest.raises(AssertionError, match="shares no diamond") as raised:
        build_complex(sorted(_ideal_indices(signs.down, top)), 3, signs)
    assert repr(Permutation((2, 3, 1, 4, 5))) in str(raised.value)
    assert repr(Permutation((1, 2, 5, 4, 3))) in str(raised.value)


def test_cover_count_matches_the_built_assignment():
    for n in range(2, 8):
        signs = build_sign_assignment(n)
        assert _cover_count(n) == sum(map(len, signs.down)), n


def test_degree_cap(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"S_{n} enumerated before the cap check")

    monkeypatch.setattr(bgg_homology, "all_permutations", unreachable)
    with pytest.raises(CapExceededError, match="3733920 covers"):
        build_sign_assignment(9)


def test_sign_assignment_is_built_once_per_degree(monkeypatch):
    first = build_sign_assignment(3)
    assert build_sign_assignment(3) is first
    with pytest.raises(TypeError):
        build_sign_assignment(3, 7)
    build_sign_assignment(4)
    # S_4 has 58 covers; the cap is checked even for a cached assignment
    monkeypatch.setattr(bgg_homology, "ENUMERATION_CAP", 57)
    with pytest.raises(CapExceededError):
        build_sign_assignment(4)


def test_integer_rank_examples():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [3, 4]]) == 2
    assert integer_rank([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2


def _bit_rows(matrix):
    """Each row as an int with bit c set where column c is odd."""
    return [sum(1 << c for c, v in enumerate(row) if v % 2) for row in matrix]


def test_gf2_rank_is_the_log_of_the_row_span():
    rng = random.Random(2)
    for _ in range(300):
        n_rows, n_columns = rng.randint(0, 6), rng.randint(1, 7)
        rows = [rng.getrandbits(n_columns) for _ in range(n_rows)]
        span = {0}
        for row in rows:
            span |= {s ^ row for s in span}
        assert 1 << bgg_homology._gf2_rank(rows) == len(span), rows


def test_gf2_rank_is_at_most_the_rational_rank():
    rng = random.Random(3)
    for _ in range(300):
        n_rows, n_columns = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((-1, 0, 1)) for _ in range(n_columns)] for _ in range(n_rows)]
        assert bgg_homology._gf2_rank(_bit_rows(m)) <= integer_rank(m), m
    # rank 1 over GF(2), 2 over Q
    assert bgg_homology._gf2_rank(_bit_rows([[1, 1], [1, -1]])) == 1


def test_a_position_gf2_cannot_decide_falls_back_to_the_exact_rank(monkeypatch):
    """s1s2 and s2s1 over s1 and s2, with the matrix [[1, 1], [1, -1]]
    (columns s1, s2): GF(2) sees homology at position 0, the exact rank
    shows none."""
    elements = all_permutations(3)
    index = {x.images: k for k, x in enumerate(elements)}
    e, s1, s2, s1s2, s2s1 = (index[w3(*word).images] for word in ((), (1,), (2,), (1, 2), (2, 1)))
    sign = [{} for _ in elements]
    sign[s1], sign[s2] = {e: 1}, {e: 1}
    sign[s1s2], sign[s2s1] = {s1: 1, s2: 1}, {s1: 1, s2: -1}
    signs = SignAssignment(3, elements, index, [tuple(sorted(c)) for c in sign], sign)
    on = sorted((s1, s2, s1s2, s2s1))
    c = build_complex(on, 2, signs)
    # one-line order puts s2 = 132 before s1 = 213
    assert c.matrices[1] == ((1, 1), (-1, 1))
    assert homology_ranks(c) == {0: 0, -1: 0, -2: 0}
    calls = []

    def counting(rows):
        calls.append(rows)
        return integer_rank(rows)

    monkeypatch.setattr(bgg_homology, "integer_rank", counting)
    assert bgg_homology._first_nonzero_position(on, 2, signs, 3) is None
    assert c.matrices[1] in calls


def test_an_overcounting_gf2_rank_changes_a_grade(monkeypatch):
    real = bgg_homology._gf2_rank
    monkeypatch.setattr(bgg_homology, "_gf2_rank", lambda rows: real(rows) + 1)
    cases = [(4, all_permutations(4)), (5, boolean_permutations(5))]
    assert any(
        grade(w, signs) != _unpruned_grade(w, signs, None, 1)
        for n, elems in cases
        for signs in [build_sign_assignment(n)]
        for w in elems
    )


def test_differential_squares_to_zero_everywhere():
    signs = build_sign_assignment(4)
    w0 = Permutation((4, 3, 2, 1))
    for u in all_permutations(4):
        c = restricted_complex(w0, u, signs)
        assert differential_squares_to_zero(c)


def test_restricted_complex_matches_brute_force():
    signs = build_sign_assignment(4)
    sign = signs.signed(range(len(signs.elements)))
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
                        sign[signs.index[y.images]][signs.index[x.images]]
                        if bruhat_leq(x, y)
                        else 0
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
        """The least nonzero homology position over all u, and the first u
        in (length, one-line) order that reaches it."""
        first = {}
        for u in all_permutations(w.n):
            ranks = homology_ranks(restricted_complex(w, u, signs))
            i = min((-p for p, h in ranks.items() if h), default=None)
            if i is not None:
                first.setdefault(i, u)
        best = min(first)
        return best, first[best]

    for n, elems in ((4, all_permutations(4)), (5, boolean_permutations(5))):
        signs = build_sign_assignment(n)
        for w in elems:
            report = grade(w, signs)
            assert (report.grade, report.witness_u) == unpruned_grade(w, signs), w


def test_grade_reads_bruhat_order_only_from_the_sign_assignment(monkeypatch):
    signs = build_sign_assignment(4)
    elements = signs.elements
    expected = [grade(w, signs) for w in elements]
    complexes = [restricted_complex(w, u, signs) for w in elements for u in elements]

    def forbidden(*args):
        raise AssertionError("Bruhat order read from outside signs.down")

    for name in ("principal_ideal", "bruhat_leq", "intersect_ideals", "down_covers"):
        monkeypatch.setattr(bruhat, name, forbidden)
        monkeypatch.setattr(bgg_homology, name, forbidden, raising=False)
    assert [grade(w, signs) for w in elements] == expected
    unpatched = iter(complexes)
    for w in elements:
        for u in elements:
            c, want = restricted_complex(w, u, signs), next(unpatched)
            assert (c.dims, c.matrices) == (want.dims, want.matrices), (w, u)


def test_grade_rejects_a_sign_assignment_of_another_degree():
    with pytest.raises(DegreeMismatchError):
        grade(Permutation((2, 1, 3)), build_sign_assignment(4))
    with pytest.raises(DegreeMismatchError):
        grade_table(3, build_sign_assignment(4))
    with pytest.raises(DegreeMismatchError):
        restricted_complex(Permutation((2, 1, 3)), w3(1), build_sign_assignment(4))
    with pytest.raises(DegreeMismatchError):
        restricted_complex(Permutation((2, 1, 3, 4)), w3(1), build_sign_assignment(4))


def test_parabolic_longest_elements_are_perfect():
    signs = build_sign_assignment(4)
    w = longest_parabolic_element(YoungShape((2, 2)), 4)
    assert w == Permutation((2, 1, 4, 3))
    assert grade(w, signs).grade == 2
    assert is_perfect(w, signs)


def test_thm7_2_check_reports_a_wrong_grade(monkeypatch):
    monkeypatch.setattr(
        verify, "grade", lambda w, signs: GradeReport(w, w.length + 1, w)
    )
    assert len(check_thm7_2(3)) == 3


def _gauged(signs, rng):
    """signs with the sign of each cover j < k multiplied by g(k) g(j), for
    a random g: S_n -> {+-1}; a valid assignment whose matrices differ from
    the plain ones by a different row and column sign pattern per complex."""
    g = [rng.choice((-1, 1)) for _ in signs.elements]
    sign = [
        {j: g[k] * g[j] * s for j, s in covers.items()}
        for k, covers in enumerate(signs.signed(range(len(signs.elements))))
    ]
    return SignAssignment(signs.degree, signs.elements, signs.index, signs.down, sign)


def test_grades_do_not_change_under_a_gauge_change():
    cases = [(n, all_permutations(n)) for n in (3, 4, 5, 6)]
    cases.append((7, boolean_permutations(7)))
    for n, elems in cases:
        plain = build_sign_assignment(n)
        gauged = _gauged(plain, random.Random(n))
        assert gauged.sign != plain.sign
        assert diamond_violations(gauged) == []
        for w in elems:
            want, got = {}, {}
            assert grade(w, gauged, got) == grade(w, plain, want), w
            assert got == want, w
            assert is_perfect(w, gauged) == is_perfect(w, plain), w


def test_longest_parabolic_recognition():
    assert is_longest_parabolic_element(Permutation((2, 1, 4, 3)))
    assert is_longest_parabolic_element(Permutation((3, 2, 1)))
    assert is_longest_parabolic_element(Permutation.identity(3))
    assert not is_longest_parabolic_element(Permutation((2, 4, 1, 3)))
    assert not is_longest_parabolic_element(Permutation((1, 2, 4, 3, 5)).inverse() * Permutation((1, 3, 2, 4, 5)))
    # against blockwise order reversal on the intervals of the support
    for n in range(1, 7):
        for w in all_permutations(n):
            images = list(range(1, n + 1))
            for comp in interval_components(support(w)):
                lo, hi = comp[0], comp[-1] + 1
                images[lo - 1 : hi] = range(hi, lo - 1, -1)
            assert is_longest_parabolic_element(w) == (w.images == tuple(images)), w


def test_boolean_scan_matches_the_per_w_pass():
    """grade on boolean w, which reads the distinct precomputed masks,
    against the unpruned copy forced onto the per-w pass over all of S_n,
    which serves every other w: same grade, witness and record."""
    for n in range(4, 8):
        signs = build_sign_assignment(n)
        for w in boolean_permutations(n):
            got, want = {}, {}
            report = grade(w, signs, got)
            assert report == _unpruned_grade(w, signs, want, 1, _unpruned_ideal_scan), w
            assert got == want, w


def test_only_non_boolean_w_walk_their_ideal(monkeypatch):
    signs = build_sign_assignment(4)

    def forbidden(*args):
        raise AssertionError("ideal walked")

    monkeypatch.setattr(bgg_homology, "_ideal_indices", forbidden)
    boolean, other = Permutation((2, 3, 1, 4)), Permutation((3, 2, 1, 4))
    assert grade(boolean, signs).grade == 1
    with pytest.raises(AssertionError, match="ideal walked"):
        grade(other, signs)


def test_non_boolean_grades_of_s7_match_the_unpruned_copy():
    signs = build_sign_assignment(7)
    others = [w for w in signs.elements if not is_boolean(w)]
    for w in random.Random(7).sample(others, 16):
        got, want = {}, {}
        assert grade(w, signs, got) == _unpruned_grade(w, signs, want, 1), w
        assert got == want, w


def test_boolean_masks_are_the_intersections_with_boolean_ideals():
    def check(masks, signs, v, u):
        k, j = signs.index[v.images], signs.index[u.images]
        got = {signs.elements[i] for i in _members(masks.mask[k] & masks.mask[j], masks.boolean)}
        assert got == intersect_ideals(v, u).elements, (v, u)

    # (boolean elements, distinct masks)
    counts = {6: (89, 513), 7: (233, 2761), 8: (610, 15767)}
    for n in (4, 5, 6, 7, 8):
        signs = build_sign_assignment(n)
        masks = signs.masks
        # the oracle for the booleans: k is boolean exactly when the highest
        # bit of mask[k] is its own
        own_top = [
            k for k, m in enumerate(masks.mask) if masks.boolean[m.bit_length() - 1] == k
        ]
        assert own_top == masks.boolean
        if n in counts:
            assert (len(masks.boolean), len(masks.distinct)) == counts[n]
        if n > 6:
            continue
        booleans = boolean_permutations(n)
        assert [signs.elements[k] for k in masks.boolean] == booleans
        for k, x in enumerate(signs.elements):
            assert masks.right[k] == sum(1 << i for i in descents(x, "right"))
            assert masks.left[k] == sum(1 << i for i in descents(x, "left"))
        first = {}
        for k, m in enumerate(masks.mask):
            first.setdefault(m, k)
        assert masks.distinct == [(k, m) for m, k in first.items()]
        if n < 6:
            for v in booleans:
                for u in signs.elements:
                    check(masks, signs, v, u)
        else:
            rng = random.Random(6)
            for _ in range(300):
                check(masks, signs, rng.choice(booleans), rng.choice(signs.elements))


def test_boolean_masks_are_built_by_the_first_grade_not_the_sign_build(monkeypatch):
    calls = []
    real = bgg_homology._boolean_masks

    def counting(signs):
        calls.append(signs)
        return real(signs)

    monkeypatch.setattr(bgg_homology, "_boolean_masks", counting)
    signs = bgg_homology._build_sign_assignment.__wrapped__(4)
    assert calls == [] and "masks" not in vars(signs)
    grade(Permutation((2, 1, 3, 4)), signs)
    grade(Permutation((4, 3, 2, 1)), signs)
    assert calls == [signs]
    assert signs.masks is signs.masks
    assert len(calls) == 1


def test_sparse_fill_matches_a_dense_fill():
    def dense(on, top_length, signs):
        basis = [[] for _ in range(top_length + 1)]
        for k in on:
            basis[top_length - signs.elements[k].length].append(k)
        matrices = ((),) + tuple(
            tuple(tuple(signs.sign[y].get(x, 0) for x in basis[i]) for y in basis[i - 1])
            for i in range(1, top_length + 1)
        )
        return tuple(len(b) for b in basis), matrices

    # each ideal whole, and cut as grade cuts it: without the elements
    # below length l(w) - bound, so the matrix into position bound + 1 has
    # rows and no columns
    for n, tops in ((4, all_permutations(4)), (5, boolean_permutations(5))):
        signs = build_sign_assignment(n)
        ideals = [_ideal_indices(signs.down, k) for k in range(len(signs.elements))]
        for w in tops:
            below_w = ideals[signs.index[w.images]]
            for below_u in ideals:
                whole = sorted(below_w & below_u)
                for bound in range(w.length + 1):
                    low = w.length - bound
                    on = [k for k in whole if signs.elements[k].length >= low]
                    c = build_complex(on, w.length, signs)
                    assert (c.dims, c.matrices) == dense(on, w.length, signs), (w, on)


# A copy of the grade scan before the prune and the cut: every u of the scan
# gets its whole complex built, through the module's build_complex and
# integer_rank, and member lists are read off the masks by a bin() string.
def _unpruned_first_nonzero_position(on, top_length, signs, stop_at):
    c = bgg_homology.build_complex(on, top_length, signs)
    prev_rank = 0
    for i in range(min(stop_at, c.top_length + 1)):
        nxt_rank = bgg_homology.integer_rank(c.matrices[i + 1]) if i + 1 <= c.top_length else 0
        if c.dims[i] - prev_rank - nxt_rank > 0:
            return i
        prev_rank = nxt_rank
    return None


def _unpruned_boolean_scan(signs, top):
    masks = signs.masks
    right, left = masks.right, masks.left
    own = [0] * len(signs.elements)
    for b, k in enumerate(masks.boolean):
        own[k] = 1 << b
    mw, w_bit, wr, wl = masks.mask[top], own[top], right[top], left[top]
    built = set()
    for k, m in masks.distinct:
        if m & w_bit or own[k] & mw or right[k] & wr or left[k] & wl:
            continue
        m &= mw
        if m not in built:
            built.add(m)
            yield k, [masks.boolean[b] for b, c in enumerate(bin(m)[:1:-1]) if c == "1"]


def _unpruned_ideal_scan(signs, top):
    down, right, left = signs.down, signs.masks.right, signs.masks.left
    ideal = sorted(_ideal_indices(down, top))
    bit = {k: b for b, k in enumerate(ideal)}
    w_bit, wr, wl = 1 << bit[top], right[top], left[top]
    built = set()
    mask_at = []
    for k, covers in enumerate(down):
        own = bit.get(k)
        mask = 0 if own is None else 1 << own
        for j in covers:
            mask |= mask_at[j]
        mask_at.append(mask)
        if own is not None or mask & w_bit or right[k] & wr or left[k] & wl:
            continue
        if mask not in built:
            built.add(mask)
            yield k, [ideal[b] for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _unpruned_grade(w, signs, record, enough, scan=None):
    e = Permutation.identity(w.n)
    if w == e:
        return GradeReport(w, 0, e)
    top = signs.index[w.images]
    if scan is None:
        scan = _unpruned_boolean_scan if is_boolean(w) else _unpruned_ideal_scan
    best, witness = w.length, e
    for k, on in scan(signs, top):
        if best <= enough:
            break
        i = _unpruned_first_nonzero_position(on, w.length, signs, best)
        u = signs.elements[k]
        if i is not None and i < best:
            best, witness = i, u
        if record is not None and i is not None:
            record[u] = i
    return GradeReport(w, best, witness)


def _scan_outcomes(grade_fn, elems, signs):
    """grade, witness, record and is_perfect for each w, by grade_fn in
    place of _grade."""
    out = []
    for w in elems:
        record = {}
        report = grade_fn(w, signs, record, 1)
        perfect = grade_fn(w, signs, None, max(w.length - 1, 1)).grade == w.length
        out.append((report, record, perfect))
    return out


def test_pruned_and_cut_scan_matches_the_unpruned_copy():
    cases = [(n, all_permutations(n)) for n in (3, 4, 5, 6)]
    cases.append((7, boolean_permutations(7)))
    for n, elems in cases:
        signs = build_sign_assignment(n)
        got = _scan_outcomes(bgg_homology._grade, elems, signs)
        assert [is_perfect(w, signs) for w in elems] == [p for _, _, p in got]
        want = _scan_outcomes(_unpruned_grade, elems, signs)
        for w, g, o in zip(elems, got, want):
            assert g == o, w


def test_grade_builds_only_the_positions_the_scan_reads(monkeypatch):
    """While grading the booleans of S_6, no basis element handed to
    build_complex lies below length l(w) - best, the GF(2) pass reads as
    many matrix cells as the unpruned copy hands integer_rank, and the
    exact integer_rank is handed fewer cells, in fewer calls."""
    signs = build_sign_assignment(6)
    booleans = boolean_permutations(6)
    real_build, real_rank, real_gf2, real_first = (
        bgg_homology.build_complex,
        bgg_homology.integer_rank,
        bgg_homology._gf2_rank,
        bgg_homology._first_nonzero_position,
    )
    tally = {"cells": 0, "ranks": 0, "filled": 0, "checked": 0, "gf2_cells": 0}
    low = []  # l(w) - best, inside a call of _first_nonzero_position
    # the (rows, columns) of each nonempty-column matrix, in the order the
    # GF(2) pass reads them, inside a call of _first_nonzero_position
    shapes = []

    def first(on, top_length, signs, stop_at):
        dims = [0] * (top_length + 1)
        for k in on:
            dims[top_length - signs.elements[k].length] += 1
        low.append(top_length - stop_at)
        shapes.append(iter([(dims[j - 1], dims[j]) for j in range(1, len(dims)) if dims[j]]))
        try:
            return real_first(on, top_length, signs, stop_at)
        finally:
            low.pop()
            shapes.pop()

    def build(on, top_length, signs):
        if low:
            tally["checked"] += 1
            lowest = min(signs.elements[k].length for k in on)
            assert lowest >= low[-1], (on, top_length, low[-1])
        c = real_build(on, top_length, signs)
        tally["filled"] += sum(len(m) * len(m[0]) for m in c.matrices if m)
        return c

    def rank(rows):
        tally["ranks"] += 1
        tally["cells"] += len(rows) * len(rows[0]) if rows else 0
        return real_rank(rows)

    def gf2(rows):
        rows = list(rows)
        n_rows, n_columns = next(shapes[-1])
        assert len(rows) == n_rows
        tally["gf2_cells"] += n_rows * n_columns
        return real_gf2(rows)

    monkeypatch.setattr(bgg_homology, "build_complex", build)
    monkeypatch.setattr(bgg_homology, "integer_rank", rank)
    monkeypatch.setattr(bgg_homology, "_gf2_rank", gf2)
    monkeypatch.setattr(bgg_homology, "_first_nonzero_position", first)
    got = [grade(w, signs) for w in booleans]
    pruned = dict(tally)
    assert pruned["checked"] > 0
    tally.update(cells=0, ranks=0, filled=0)
    want = [_unpruned_grade(w, signs, None, 1) for w in booleans]
    assert got == want
    assert pruned["gf2_cells"] == tally["cells"]
    assert pruned["cells"] < tally["cells"]
    assert pruned["ranks"] < tally["ranks"]
    assert pruned["filled"] < tally["filled"]


def test_grade_table_csv_is_pinned():
    """grade --all 5 and 6, byte for byte, as the exact rank on every
    position computed them."""
    import hashlib

    want = {
        5: "9b3ac21080f58868eb7d92cd89f3027f2c1fec85277c9a56e092313e95f6e86c",
        6: "9e136fa333fe1586ba060e3372fc1c58c4ef5c60526a4f2da98b1c8cab82ad3e",
    }
    for n, digest in want.items():
        text = grade_table_csv(grade_table(n, build_sign_assignment(n)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n

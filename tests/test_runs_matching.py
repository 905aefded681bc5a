from collections import Counter

import pytest

from boolbruhat import verify
from boolbruhat.bruhat import intersect_ideals
from boolbruhat.permcore import (
    Permutation,
    ReducedWord,
    boolean_permutations,
    enumerate_reduced_words,
    format_permutation,
    is_boolean,
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
    verify_matching,
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


@pytest.mark.parametrize("n", [3, 4, 5])
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
    assert optimal_rank(v) == 8


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
            assert verify_matching(cert)
            singles = cert.singletons()
            assert len(singles) == 1
            assert singles[0].length == optimal_rank(v)


def test_partner_of_long_example_leaves_rank_eight_singleton():
    v = Permutation.from_word((11, 4, 3, 10, 5, 2, 1, 6, 7, 9, 8), 12)
    cert = build_matching(v, optimal_partner(v))
    assert verify_matching(cert)
    assert [z.length for z in cert.singletons()] == [8]


def test_slim_worked_example():
    s = ReducedWord((3, 2, 1, 2, 3, 2), 5)
    u = slim(s, 3)
    assert u == Permutation.from_word((3, 2, 3), 5)
    closure = subword_closure(s.letters[:2] + s.letters[3:], 5)
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
    assert verify_matching(cert)


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


def test_certificate_exports():
    v = Permutation.from_word((1, 3), 4)
    cert = build_matching(v, v)
    js = matching_to_json(cert)
    assert '"pair"' in js
    dot = matching_to_dot(cert)
    assert "penwidth=3" in dot


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

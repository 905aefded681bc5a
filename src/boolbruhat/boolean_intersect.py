"""Intersections B(v) /\\ B(w) for boolean v, without enumerating either ideal.

Orientation of consecutive generators is read off one-line notation; the
obstruction runs and maximal selfish subsets then give the maximal elements
of the intersection in closed form.
"""
from __future__ import annotations

import enum
from functools import reduce
from itertools import product
from operator import and_, le

from .bruhat import RunWord
from .permcore import (
    ENUMERATION_CAP,
    CapExceededError,
    DegreeMismatchError,
    Permutation,
    _capped,
    _increasing_mask,
    _letters,
    _support_mask,
    is_boolean,
    support,
)


class Orientation(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    INTERLACED = "interlaced"


def orientation(w: Permutation, k: int) -> Orientation:
    """Relative order of the letters k, k+1 across reduced words of w,
    decided from one-line notation alone."""
    supp = support(w)
    if k not in supp or k + 1 not in supp:
        raise ValueError(f"{{{k},{k + 1}}} not contained in the support of w")
    n = w.n
    img = w.images
    # w^-1(x) - 1 is img.index(x), the position of the value x

    prefix = set(img[:k])
    increasing = False
    if prefix < set(range(1, k + 2)):
        (x,) = set(range(1, k + 2)) - prefix
        increasing = x < k + 1 and img.index(x) > k

    suffix = set(img[k + 1 :])
    decreasing = False
    if suffix < set(range(k + 1, n + 1)):
        (y,) = set(range(k + 1, n + 1)) - suffix
        decreasing = y > k + 1 and img.index(y) < k

    interlaced = any(img[i] > k + 1 for i in range(k)) and any(
        img[j] < k + 1 for j in range(k + 1, n)
    )

    # Orientation lists INCREASING, DECREASING, INTERLACED in this order
    hits = [o for o, hit in zip(Orientation, (increasing, decreasing, interlaced)) if hit]
    if len(hits) != 1:
        raise AssertionError(f"orientation trichotomy violated for w={w}, k={k}: {hits}")
    return hits[0]


def increasing_pairs(v: Permutation) -> frozenset[int]:
    """The k with {k, k+1} in supp(v) and orientation(v, k) INCREASING.

    v must be boolean. Such a v is never interlaced, so every other adjacent
    support pair is DECREASING (_increasing_mask).
    """
    return _letters(_increasing_mask(v.images, _support_mask(v.images)))


def _maximal_selfish_interval(size: int) -> list[frozenset[int]]:
    """Maximal selfish subsets of [1, size], by the two-step recursion.

    Row k is built from rows k-2 and k-3, so only the last three rows are
    kept.
    """
    if size == 0:
        return [frozenset()]
    rows = (
        [frozenset({1})],
        [frozenset({1}), frozenset({2})],
        [frozenset({1, 3}), frozenset({2})],
    )
    for k in range(4, size + 1):
        with_k = [x | {k} for x in rows[1]]
        with_k_minus_1 = [x | {k - 1} for x in rows[0]]
        rows = (rows[1], rows[2], with_k + with_k_minus_1)
    return rows[min(size, 3) - 1]


def selfish_count(k: int) -> int:
    """|Q_k| via the Padovan-type recursion with seeds 1, 2, 2."""
    if k < 1:
        raise ValueError("k must be positive")
    counts = [1, 2, 2]
    while len(counts) < k:
        counts.append(counts[-2] + counts[-3])
    return counts[k - 1]


def _capped_selfish_count(sizes) -> int:
    """The number of unions of one maximal selfish subset per interval of
    the given sizes, capped by _capped: the product grows by one |Q_j| at a
    time, and passes the cap before j reaches 50."""
    total = 1
    for size in sizes:
        partial = (total * selfish_count(j) for j in range(1, size + 1))
        total = _capped(partial, "maximal selfish subsets")
    return total


def interval_components(universe) -> list[tuple[int, ...]]:
    """Decompose a set of integers into maximal intervals of consecutive values."""
    values = sorted(universe)
    comps: list[tuple[int, ...]] = []
    cur: list[int] = []
    for x in values:
        if cur and x != cur[-1] + 1:
            comps.append(tuple(cur))
            cur = []
        cur.append(x)
    if cur:
        comps.append(tuple(cur))
    return comps


def _selfish_product(intervals) -> list[frozenset[int]]:
    """Every union of one maximal selfish subset per interval of consecutive
    integers; raises CapExceededError, before building any, above the cap."""
    _capped_selfish_count(len(iv) for iv in intervals)
    per_interval = [
        [frozenset(iv[0] - 1 + i for i in x) for x in _maximal_selfish_interval(len(iv))]
        for iv in intervals
    ]
    return [frozenset().union(*choice) for choice in product(*per_interval)]


def maximal_selfish(universe) -> frozenset[frozenset[int]]:
    """All maximal selfish subsets of the set of universe's values: products
    over interval components."""
    return frozenset(_selfish_product(interval_components(set(universe))))


def _run_candidates(supp: int, increasing: int) -> list[RunWord]:
    """Directed run subwords of the reduced words of a boolean v with
    support mask supp and increasing-pair mask increasing (_increasing_mask).

    [i..i+j] is an increasing run when the pairs i..i+j-1 are all
    increasing, and a decreasing run when none of them is.
    """
    out = []
    for i in range(1, supp.bit_length()):
        if not supp >> i & 1:
            continue
        out.append(RunWord(i, 0, "increasing"))
        for direction, rising in (("increasing", 1), ("decreasing", 0)):
            j = 1
            while supp >> (i + j) & 1 and increasing >> (i + j - 1) & 1 == rising:
                out.append(RunWord(i, j, direction))
                j += 1
    return out


def obstructions(v: Permutation, w: Permutation) -> frozenset[RunWord]:
    """Minimal run subwords of v's word that fail to lie below w.

    Each candidate is compared with w once. The two one-letter-shorter
    sub-runs of a run are candidates with the same letters, so their
    answers are looked up by letters.
    """
    if not is_boolean(v):
        raise ValueError("obstructions requires boolean v")
    supp = _support_mask(v.images)
    return _obstructions(v, w, supp, _increasing_mask(v.images, supp))


def _obstructions(v: Permutation, w: Permutation, supp: int, increasing: int):
    """obstructions(v, w), given v's masks _support_mask and _increasing_mask."""
    if v.n != w.n:
        raise DegreeMismatchError(f"degrees {v.n} and {w.n} differ")
    candidates = _run_candidates(supp, increasing)
    leq = _run_leq(w)
    below = {r.letters: leq(r) for r in candidates}
    return frozenset(
        r
        for r in candidates
        if not below[r.letters]
        and (r.span == 0 or (below[r.letters[:-1]] and below[r.letters[1:]]))
    )


def _run_leq(w: Permutation):
    """A test r -> (the permutation of run r lies below w), the answer of
    bruhat.run_word_leq, with the sorted prefixes of w built once.

    By the sorted-prefix criterion (Bjorner-Brenti, Thm 2.6.3), u <= w
    exactly when each prefix of u ending at a right descent of u, sorted,
    lies entrywise below the same-size sorted prefix of w. The run a..a+b
    has one right descent: the increasing run's one-line tuple is
    1..a-1, a+1..a+b+1, a, ... with its descent at a+b, and the decreasing
    run's is 1..a-1, a+b+1, a..a+b with its descent at a. So one sorted
    prefix decides.
    """
    top = w.images
    prefixes = [sorted(top[:k]) for k in range(len(top))]

    def leq(r: RunWord) -> bool:
        a, b = r.start, r.span
        if r.direction == "increasing":
            size, prefix = a + b, (*range(1, a), *range(a + 1, a + b + 2))
        else:
            size, prefix = a, (*range(1, a), a + b + 1)
        return all(map(le, prefix, prefixes[size]))

    return leq


def subword_element(v: Permutation, letters) -> Permutation:
    """The element of B(v) supported on the given letters (v boolean).
    Letters outside supp(v) are dropped."""
    return _subword_element(v.n, set(letters) & support(v), increasing_pairs(v))


def _subword_element(n: int, kept, increasing) -> Permutation:
    """The element of B(v) supported on kept, a subset of supp(v), where
    increasing is increasing_pairs(v). The kept letters are placed in
    increasing order; sigma_k commutes with every smaller letter but
    sigma_{k-1}, so k goes in front exactly when k-1 is kept and comes after
    k in v."""
    word: list[int] = []
    for k in sorted(kept):
        if k - 1 in kept and k - 1 not in increasing:
            word.insert(0, k)
        else:
            word.append(k)
    return Permutation.from_word(word, n)


def _pair_chains(pairs) -> list[tuple[int, ...]]:
    """Group conflicting pairs {k, k+1} into maximal chains of consecutive
    pairs; each chain covers an integer interval: a maximal interval of
    consecutive smaller letters, plus one letter."""
    return [(*c, c[-1] + 1) for c in interval_components(min(p) for p in pairs)]


def intersection_maximal_closed_form(
    v: Permutation, w: Permutation
) -> list[Permutation]:
    """Maximal elements of B(v) /\\ B(w), built without ideal enumeration.

    When every obstruction run has at most two letters, the answer is a
    fixed base of unobstructed letters together with one maximal selfish
    choice per chain of conflicting pairs.  Conflicting pairs need not tile
    one interval, so each chain gets its own selfish family.
    """
    if not is_boolean(v):
        raise ValueError("closed form requires boolean v")
    supp = _support_mask(v.images)
    increasing = _increasing_mask(v.images, supp)
    runs = _obstructions(v, w, supp, increasing)
    if all(r.span <= 1 for r in runs):
        pairs = [r.letter_set for r in runs if r.span == 1]
        # the one-letter runs are the letters of supp(v) outside supp(w)
        base = _letters(supp).difference(*(r.letter_set for r in runs))
        supports = {base | s for s in _selfish_product(_pair_chains(pairs))}
    else:
        supports = _maximal_admissible(_letters(supp), [r.letter_set for r in runs])
    # every support is a subset of supp(v)
    out = [_subword_element(v.n, t, _letters(increasing)) for t in supports]
    out.sort(key=lambda x: x.images)
    return out


def _maximal_admissible(universe, forbidden) -> set[frozenset[int]]:
    """The inclusion-maximal subsets of universe that contain no set of
    forbidden. Bit i of a mask stands for the i-th smallest letter, and a
    family of masks is one int whose bit m stands for mask m, so each step
    acts on all masks at once. Admissible sets are closed under removal, so
    an admissible m is maximal exactly when no m + (1 << i), m without bit
    i, is admissible. Raises CapExceededError, before building any family,
    above the cap."""
    values = sorted(universe)
    size = 1 << len(values)
    if size > ENUMERATION_CAP:
        raise CapExceededError(
            f"2^{len(values)} subsets, more than the cap {ENUMERATION_CAP}"
        )
    index = {x: i for i, x in enumerate(values)}
    has = [_masks_with_bit(i, size) for i in range(len(values))]
    admissible = (1 << size) - 1
    for f in forbidden:
        admissible &= ~reduce(and_, (has[index[x]] for x in f), -1)
    maximal = admissible
    for i, with_i in enumerate(has):
        maximal &= ~(admissible >> (1 << i)) | with_i
    bits = bin(maximal)[:1:-1]
    return {frozenset(x for x, i in index.items() if m >> i & 1)
            for m, bit in enumerate(bits) if bit == "1"}


def _masks_with_bit(i: int, size: int) -> int:
    """The family of masks below size with bit i: the upper half of each
    run of 2 << i masks."""
    family, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
    while width < size:
        family |= family << width
        width *= 2
    return family

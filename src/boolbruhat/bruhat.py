"""Bruhat order on S_n: comparison, covers, principal ideals and intersections."""
from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, le
from typing import Literal

from .permcore import (
    ENUMERATION_CAP,
    CapExceededError,
    DegreeMismatchError,
    Permutation,
    canonical_reduced_word,
    format_permutation,
    format_reduced_word,
    is_boolean,
)

@dataclass(frozen=True)
class RunWord:
    """The run word a(a+1)...(a+b) or (a+b)...(a+1)a."""

    start: int
    span: int
    direction: Literal["increasing", "decreasing"]

    def __post_init__(self):
        if self.start < 1 or self.span < 0:
            raise ValueError(f"invalid run {self!r}")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError(f"invalid direction {self.direction!r}")

    @property
    def letters(self) -> tuple[int, ...]:
        inc = tuple(range(self.start, self.start + self.span + 1))
        return inc if self.direction == "increasing" else inc[::-1]

    @property
    def letter_set(self) -> frozenset[int]:
        return frozenset(range(self.start, self.start + self.span + 1))

    def permutation(self, n: int) -> Permutation:
        return Permutation.from_word(self.letters, n)


@dataclass(frozen=True)
class BruhatIdeal:
    """An explicit order ideal of S_n: its elements, and its maximal
    elements, those with no up-cover inside the ideal."""

    degree: int
    elements: frozenset[Permutation]
    maximal: frozenset[Permutation]

    def sorted_elements(self) -> list[Permutation]:
        return sorted(self.elements, key=lambda w: (w.length, w.images))

    @cached_property
    def covers(self) -> tuple[tuple[Permutation, Permutation], ...]:
        """The covers (x, y), x covered by y, inside the ideal, sorted by
        (length, lower one-line, upper one-line): listed on first read from
        each element's one-line down-covers, since the walks list none."""
        own = {x.images: x for x in self.elements}
        pairs = [(own[t], y) for y in self.elements
                 for t in _down_images(y.images) if t in own]
        pairs.sort(key=lambda p: (p[0].length, p[0].images, p[1].images))
        return tuple(pairs)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in Bruhat order, by the sorted-prefix dominance criterion."""
    if u.n != w.n:
        raise DegreeMismatchError(f"degrees {u.n} and {w.n} differ")
    if u.length > w.length:
        return False
    if u == w:
        return True
    pu: list[int] = []
    pw: list[int] = []
    for k in range(u.n - 1):
        insort(pu, u.images[k])
        insort(pw, w.images[k])
        for a, b in zip(pu, pw):
            if a > b:
                return False
    return True


def _down_images(images: tuple[int, ...]):
    """The one-line tuples of the elements covered by the permutation with
    one-line notation images.

    w covers w.(i j) exactly when img[i] > img[j] and no position between
    them holds a value in (img[j], img[i]); for fixed i the scan over j keeps
    the largest value below img[i] seen so far, and img[j] qualifies when it
    lies above that.
    """
    n = len(images)
    for i in range(n - 1):
        top = images[i]
        floor = 0
        for j in range(i + 1, n):
            v = images[j]
            if floor < v < top:
                out = list(images)
                out[i], out[j] = v, top
                yield tuple(out)
                floor = v
                if v == top - 1:
                    break


def down_covers(w: Permutation) -> frozenset[Permutation]:
    """All x with x covered by w."""
    return frozenset(Permutation(t) for t in _down_images(w.images))


def _leq_below(w: Permutation):
    """A test images, rank -> (x <= w) for the one-line tuple x of any rank,
    where rank is the length of x.

    The sorted prefixes of w are built once. At rank l(w) and above only w
    itself can lie below w; below that, x <= w iff each sorted prefix of x
    that ends at a right descent of x is dominated entrywise by the sorted
    prefix of w of the same size (Bjorner-Brenti, Thm 2.6.3), the other
    prefixes being implied. That criterion is an iff at every rank;
    bruhat_leq is the independent check of this test.
    """
    top = w.images
    n = len(top)
    prefixes = [sorted(top[:k]) for k in range(n)]

    def leq(images: tuple[int, ...], rank: int) -> bool:
        if rank >= w.length:
            return images == top
        for k in range(1, n):
            if images[k - 1] > images[k] and not all(
                map(le, sorted(images[:k]), prefixes[k])
            ):
                return False
        return True

    return leq


def _walk(top: Permutation, leq=None) -> BruhatIdeal:
    """B(top), or with leq the part of it that leq keeps, in one walk.

    A boolean top is walked as the subwords of one reduced word
    (_subword_walk), any other top by its covers (_cover_walk); both give
    the same elements and the same maximal elements. Raises
    CapExceededError when B(top) has more than ENUMERATION_CAP elements.
    """
    if is_boolean(top):
        return _subword_walk(top, leq)[0]
    return _cover_walk(top, leq)


def _cover_walk(top: Permutation, leq=None) -> BruhatIdeal:
    """_walk by down-covers, for any top.

    The walk runs on one-line tuples, rank by rank downward from top. All
    up-covers of an element lie one rank higher, so they were all expanded
    before the element is reached, and a flag records whether one of them
    was kept: the element is then kept at once, and only otherwise asked of
    leq(images, rank). Without leq every element is kept. The kept set is
    again an ideal, and its maximal elements are the kept elements whose
    flag is unset. One Permutation is built per kept element, with the
    walk's rank as its length.
    """
    rank = top.length
    level: dict[tuple[int, ...], bool] = {top.images: False}
    walked = 1
    kept, maximal = [], []
    while level:
        under: dict[tuple[int, ...], bool] = {}
        for t, kept_up in level.items():
            keep = kept_up or leq is None or leq(t, rank)
            if keep:
                x = Permutation._of_valid(t, rank)
                kept.append(x)
                if not kept_up:
                    maximal.append(x)
            for x in _down_images(t):
                if x not in under:
                    walked += 1
                    if walked > ENUMERATION_CAP:
                        raise _cap_error(top)
                    under[x] = keep
                elif keep:
                    under[x] = True
        level = under
        rank -= 1
    return BruhatIdeal(top.n, frozenset(kept), frozenset(maximal))


def _subword_walk(
    top: Permutation, leq=None
) -> tuple[BruhatIdeal, dict[int, Permutation]]:
    """_walk for a boolean top, whose ideal is a boolean lattice, and the
    kept elements keyed by their letter masks (bit a for the letter a).

    By the subword property B(top) is the set of subwords of one reduced
    word s_1 ... s_k of top; its letters are distinct, so the 2^k subwords
    are distinct reduced words and their covers are the single-letter
    deletions. Bit b of a word mask stands for letter b + 1 of the word
    (_subword_tuples). Word masks are visited in decreasing order, so every
    up-cover (one more bit) comes first and has marked the mask when it was
    kept; the keep rule is _cover_walk's, and a kept mask is maximal when it
    is unmarked. The letter mask of an element is its support.
    """
    images = list(top.images)
    word = []
    # sort top to the identity by adjacent swaps; read backwards, the swaps
    # are a reduced word of top
    for j in range(1, len(images)):
        p = j
        while p and images[p - 1] > images[p]:
            images[p - 1], images[p] = images[p], images[p - 1]
            word.append(p)
            p -= 1
    k = len(word)
    if 1 << k > ENUMERATION_CAP:
        raise _cap_error(top)
    word.reverse()
    tuples, letters = _subword_tuples(tuple(images), word)
    marked = bytearray(1 << k)
    kept: dict[int, Permutation] = {}
    maximal = []
    for m in range((1 << k) - 1, -1, -1):
        rank = m.bit_count()
        if marked[m] or leq is None or leq(tuples[m], rank):
            x = Permutation._of_valid(tuples[m], rank)
            kept[letters[m]] = x
            if not marked[m]:
                maximal.append(x)
            bits = m
            while bits:
                low = bits & -bits
                bits ^= low
                marked[m ^ low] = 1
    ideal = BruhatIdeal(top.n, frozenset(kept.values()), frozenset(maximal))
    return ideal, kept


def _subword_tuples(
    identity: tuple[int, ...], word: list[int]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The one-line tuples and the letter masks of the subwords of word,
    both indexed by word mask (bit b for letter b + 1 of word). The tuple
    of a word mask with highest bit b is that of the mask without it with
    the positions of letter b + 1 swapped, and its letter mask that of the
    mask without it with that letter's bit set."""
    tuples = [identity]
    letters = [0]
    for i in word:
        for t in tuples[:]:
            out = list(t)
            out[i - 1], out[i] = t[i], t[i - 1]
            tuples.append(tuple(out))
        letters += [m | 1 << i for m in letters]
    return tuples, letters


def _cap_error(top: Permutation) -> CapExceededError:
    return CapExceededError(
        f"ideal of {format_permutation(top)} has more "
        f"elements than the cap {ENUMERATION_CAP}"
    )


def principal_ideal(w: Permutation) -> BruhatIdeal:
    """The explicit principal order ideal B(w), walked down from w.

    Not cached: a caller that reuses an ideal holds it. Raises
    CapExceededError above ENUMERATION_CAP elements.
    """
    return _walk(w)


def intersect_ideals(v: Permutation, w: Permutation) -> BruhatIdeal:
    """B(v) /\\ B(w): the walk of the shorter one's ideal, keeping the
    elements below the longer one."""
    if v.n != w.n:
        raise DegreeMismatchError(f"degrees {v.n} and {w.n} differ")
    small, big = (v, w) if v.length <= w.length else (w, v)
    return _walk(small, _leq_below(big))


def maximal_elements(ideal: BruhatIdeal) -> list[Permutation]:
    """The maximal elements of the ideal, in one-line order."""
    return sorted(ideal.maximal, key=attrgetter("images"))


def run_word_leq(r: RunWord, w: Permutation) -> bool:
    """Whether the permutation of the run word lies below w."""
    if r.start + r.span > w.n - 1:
        raise ValueError(f"run {r} has letters outside [1,{w.n - 1}]")
    return bruhat_leq(r.permutation(w.n), w)


def ideal_to_json(ideal: BruhatIdeal) -> str:
    payload = {
        "degree": ideal.degree,
        "elements": [format_permutation(x) for x in ideal.sorted_elements()],
        "covers": [
            [format_permutation(x), format_permutation(y)] for x, y in ideal.covers
        ],
        "ranks": {format_permutation(x): x.length for x in ideal.sorted_elements()},
    }
    return json.dumps(payload, indent=2)


def ideal_to_dot(ideal: BruhatIdeal, name: str = "ideal") -> str:
    """DOT text: nodes labeled by one-line notation and canonical reduced word,
    ranked by length."""
    return _dot(ideal, name)


def _dot(ideal: BruhatIdeal, name: str, bold=frozenset(), circled=()) -> str:
    """ideal_to_dot, with the covers (x, y) in bold drawn bold and each
    element of circled given a second periphery."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    ordered = ideal.sorted_elements()
    by_rank: dict[int, list[Permutation]] = {}
    for x in ordered:
        by_rank.setdefault(x.length, []).append(x)
    ids = {x: f"n{i}" for i, x in enumerate(ordered)}
    for x, nid in ids.items():
        word = format_reduced_word(canonical_reduced_word(x)) or "e"
        lines.append(f'  {nid} [label="{format_permutation(x)}\\n[{word}]"];')
    for rank in sorted(by_rank):
        same = " ".join(ids[x] + ";" for x in by_rank[rank])
        lines.append(f"  {{ rank=same; {same} }}")
    for x, y in ideal.covers:
        mark = " [penwidth=3]" if (x, y) in bold else ""
        lines.append(f"  {ids[x]} -> {ids[y]}{mark};")
    lines += [f"  {ids[x]} [peripheries=2];" for x in circled]
    lines.append("}")
    return "\n".join(lines)

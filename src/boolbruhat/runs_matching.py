"""Run decompositions, slimming, optimal partners, and matchings of
intersection ideals B(v) /\\ B(w) for boolean v."""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .bruhat import (
    BruhatIdeal,
    RunWord,
    _dot,
    _down_images,
    _leq_below,
    _subword_walk,
)
from .permcore import (
    DegreeMismatchError,
    Permutation,
    ReducedWord,
    _increasing_mask,
    _support_mask,
    format_permutation,
    is_boolean,
)


@dataclass(frozen=True)
class RunDecomposition:
    """A reduced word of the target written as minimally many runs."""

    runs: tuple[RunWord, ...]
    word: ReducedWord

    @property
    def count(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class Pair:
    lower: Permutation
    upper: Permutation


@dataclass(frozen=True)
class Singleton:
    element: Permutation


Step = Pair | Singleton


@dataclass(frozen=True)
class MatchingCertificate:
    """Ordered steps whose prefixes are coideals of the matched ideal, an
    ideal of boolean elements (B(v) /\\ B(w) for boolean v)."""

    steps: tuple[Step, ...]
    over: BruhatIdeal

    def singletons(self) -> list[Permutation]:
        return [s.element for s in self.steps if isinstance(s, Singleton)]

    @property
    def is_perfect(self) -> bool:
        return not self.singletons()


def _minimal_blocks(interval: int, increasing: int) -> list[RunWord]:
    """Partition one support interval, a mask of consecutive letters, into
    the fewest directed runs, where bit k of increasing marks the pair
    {k, k+1} increasing.

    A block grows from the left while its inner pairs {k, k+1} keep one
    direction; a one-letter block is increasing.
    """
    blocks = []
    a, end = (interval & -interval).bit_length() - 1, interval.bit_length() - 1
    while a <= end:
        rising = increasing >> a & 1
        b = a + 1
        while b <= end and increasing >> (b - 1) & 1 == rising:
            b += 1
        span = b - 1 - a
        direction = "increasing" if rising or span == 0 else "decreasing"
        blocks.append(RunWord(a, span, direction))
        a = b
    return blocks


def run_decompose(v: Permutation) -> RunDecomposition:
    """A reduced word of v as a concatenation of the fewest possible runs.

    Reduced words of a boolean permutation are the linear extensions of a
    zigzag order on the support: each pair {k, k+1} of support letters keeps
    a fixed relative order across all words, and distant letters commute.
    Each interval of v's support mask is cut greedily into the fewest blocks
    of constant direction (_minimal_blocks, on v's increasing-pair mask), so
    the pair across the boundary after a block runs against the block: after
    an increasing block, the next block must come first; after a decreasing
    one, it must come after. The word places each chain of blocks joined by
    increasing blocks right to left, and the chains left to right.
    """
    if not is_boolean(v):
        raise ValueError("run_decompose requires a boolean permutation")
    supp = _support_mask(v.images)
    increasing = _increasing_mask(v.images, supp)
    ordered: list[RunWord] = []
    while supp:
        # adding its lowest bit carries through the lowest interval
        interval = supp & ~(supp + (supp & -supp))
        supp ^= interval
        chain: list[RunWord] = []
        for block in _minimal_blocks(interval, increasing):
            chain.append(block)
            if block.direction == "decreasing":
                ordered.extend(reversed(chain))
                chain = []
        ordered.extend(reversed(chain))
    letters: list[int] = []
    for r in ordered:
        letters.extend(r.letters)
    word = ReducedWord(tuple(letters), v.n)
    if word.permutation() != v:
        raise RuntimeError(f"run word {word.letters} does not give {v!r}")
    return RunDecomposition(tuple(ordered), word)


def slim(s: ReducedWord, i: int) -> Permutation:
    """Unique maximal element whose reduced words include a subword of s with
    position i (1-based) deleted.  Greedy left-to-right rebuild: multiply by
    each remaining letter only when the length goes up."""
    if not 1 <= i <= len(s):
        raise ValueError(f"position {i} out of range for word of length {len(s)}")
    images = list(range(1, s.degree + 1))
    length = 0
    for pos, letter in enumerate(s.letters, start=1):
        # right multiplication by s_a raises the length iff u(a) < u(a+1)
        if pos != i and images[letter - 1] < images[letter]:
            images[letter - 1], images[letter] = images[letter], images[letter - 1]
            length += 1
    return Permutation._of_valid(tuple(images), length)


def optimal_partner(v: Permutation) -> Permutation:
    """Concatenation of per-run partners over an optimal run word of v."""
    if not is_boolean(v):
        raise ValueError("optimal_partner requires a boolean permutation")
    letters: list[int] = []
    for r in run_decompose(v).runs:
        a, b = r.start, r.span
        if b == 0:
            continue
        if r.direction == "increasing":
            letters.extend(range(a + 1, a + b + 1))
            letters.append(a)
            letters.extend(range(a + 1, a + b))
        else:
            letters.extend(range(a + b - 1, a - 1, -1))
            letters.extend(range(a + b, a, -1))
    return Permutation.from_word(letters, v.n)


def optimal_rank(v: Permutation) -> int:
    """ork(v) = l(v) - run(v); 0 for the identity."""
    if not is_boolean(v):
        raise ValueError("optimal_rank requires a boolean permutation")
    return v.length - run_decompose(v).count


def _match_family(family: dict[int, Permutation]) -> list[Step]:
    """Match a nonempty inclusion-downward-closed family of letter masks
    (bit a for the letter a), given as a dict from each mask to its element.

    Returns steps over the elements, top of the filtration first:
    recursively matched unpairable coideal, then the sigma_m pairs by
    descending rank and, within a rank, by sorted letters. The family {0}
    is the one-element dict.
    """
    if len(family) == 1:
        return [Singleton(*family.values())]
    m = 1 << (max(family).bit_length() - 1)
    ups = []
    unmatched = {}
    for t, x in family.items():
        if t & m:
            continue
        up = t | m
        if up in family:
            ups.append(up)
        else:
            unmatched[t] = x
    # every up has the top bit m, so their binary strings have one length,
    # and read from bit 0 up they compare in the reverse of the order of
    # their sorted letters
    ups.sort(key=lambda up: (up.bit_count(), bin(up)[:1:-1]), reverse=True)
    pairs = [Pair(family[up ^ m], family[up]) for up in ups]
    if not unmatched:
        return pairs
    core = reduce(and_, unmatched)
    return _match_family({t ^ core: x for t, x in unmatched.items()}) + pairs


def build_matching(v: Permutation, w: Permutation) -> MatchingCertificate:
    """A perfect or almost perfect matching of B(v) /\\ B(w).

    One subword walk of B(v) keeps the elements below w and keys each by its
    letter mask; v boolean means elements are determined by their supports,
    so the matching runs on those masks. It matches on the largest common
    support letter and recurses on the coideal of unpairable elements.
    Raises CapExceededError when B(v) has more than ENUMERATION_CAP
    elements, whatever w is.
    """
    if not is_boolean(v):
        raise ValueError("build_matching requires boolean v")
    if v.n != w.n:
        raise DegreeMismatchError(f"degrees {v.n} and {w.n} differ")
    ideal, by_letters = _subword_walk(v, _leq_below(w))
    return MatchingCertificate(tuple(_match_family(by_letters)), ideal)


def _boolean_key(images: tuple[int, ...], supp: int) -> int:
    """The key of the boolean element of S_n with one-line notation images
    and support mask supp: supp, with bit n + k set for each pair {k, k+1}
    of support letters in which k precedes k+1 (_increasing_mask). A boolean
    element is fixed by its support and the order of each such pair, so
    distinct boolean elements of S_n have distinct keys."""
    return supp | _increasing_mask(images, supp) << len(images)


def check_matching(cert: MatchingCertificate) -> str | None:
    """First violated certificate condition, or None when valid.

    Trusts nothing from the constructor. Violations are reported in this
    order: a step element outside the ideal, repeated or in no step; an
    element that is not boolean; more than one singleton; then, walking the
    steps in order, whichever the walk meets first of a down-cover outside
    the ideal and a pair that is not a cover; last, the earliest prefix of
    steps that is not a coideal.
    Each element is read once from its one-line notation into a key, its
    support and letter order (_boolean_key), not from cert.over or any walk.
    The down-covers of a boolean element are its one-letter deletions: for
    the letter a, the key loses bit a and the pair bits of {a-1, a} and
    {a, a+1}. A pair is a cover exactly when the down-covers of its upper
    include an element of the same step, which can only be its lower.
    Inside an order ideal x <= y is a chain of covers, so every prefix is a
    coideal exactly when no down-cover is added at an earlier step than the
    element it lies under. One-line notation of a cover is built only for a
    failure line.
    """
    elements = cert.over.elements
    seen: set[Permutation] = set()
    step_of: dict[int, int] = {}
    keyed = []
    odd = None
    for k, step in enumerate(cert.steps):
        for x in _members(step):
            if x not in elements:
                return f"step element {format_permutation(x)} outside the ideal"
            if x in seen:
                return f"element {format_permutation(x)} appears twice"
            seen.add(x)
            supp = _support_mask(x.images)
            if supp.bit_count() != x.length and odd is None:
                odd = x
            key = _boolean_key(x.images, supp)
            step_of[key] = k
            keyed.append((k, step, x, key))
    if seen != elements:
        missing = next(iter(elements - seen))
        return f"element {format_permutation(missing)} not covered by any step"
    if odd is not None:
        return f"element {format_permutation(odd)} is not boolean"

    if len(cert.singletons()) > 1:
        return "more than one singleton"

    first = None
    for k, step, y, key in keyed:
        paired = False
        n = len(y.images)
        letters = key & ~(-1 << n)
        while letters:
            low = letters & -letters
            letters ^= low
            cover = key & ~(low | 3 * low << (n - 1))
            j = step_of.get(cover)
            if j is None:
                t = next(t for t in _down_images(y.images)
                         if _boolean_key(t, _support_mask(t)) not in step_of)
                return (
                    f"element {format_permutation(Permutation(t))} covered "
                    f"by {format_permutation(y)} is outside the ideal"
                )
            if j <= k:
                if j == k:
                    paired = True
                elif first is None or j < first[0]:
                    first = (j, cover, y)
        if not paired and isinstance(step, Pair) and y is step.upper:
            return (
                f"pair ({format_permutation(step.lower)}, "
                f"{format_permutation(step.upper)}) is not a cover"
            )
    if first is not None:
        j, cover, y = first
        (x,) = [x for x in _members(cert.steps[j])
                if _boolean_key(x.images, _support_mask(x.images)) == cover]
        return (
            f"prefix through {type(cert.steps[j]).__name__} is not a coideal: "
            f"{format_permutation(x)} <= {format_permutation(y)}"
        )
    return None


def _members(step: Step) -> tuple[Permutation, ...]:
    return (step.element,) if isinstance(step, Singleton) else (step.lower, step.upper)


def matching_to_json(cert: MatchingCertificate) -> str:
    steps = []
    for step in cert.steps:
        if isinstance(step, Singleton):
            steps.append({"singleton": format_permutation(step.element)})
        else:
            steps.append(
                {"pair": [format_permutation(step.lower), format_permutation(step.upper)]}
            )
    return json.dumps({"steps": steps}, indent=2)


def matching_to_dot(cert: MatchingCertificate, name: str = "matching") -> str:
    """DOT of the matched ideal: pair edges bold, the singleton circled."""
    bold = {(s.lower, s.upper) for s in cert.steps if isinstance(s, Pair)}
    return _dot(cert.over, name, bold, cert.singletons())

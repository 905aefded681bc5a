"""Run decompositions, slimming, optimal partners, and matchings of
intersection ideals B(v) /\\ B(w) for boolean v."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .bruhat import (
    BruhatIdeal,
    RunWord,
    _dot,
    _down_images,
    intersect_ideals,
)
from .permcore import (
    Permutation,
    ReducedWord,
    format_permutation,
    is_boolean,
    support,
)
from .boolean_intersect import increasing_pairs, interval_components


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
    """Ordered steps whose prefixes are coideals of the matched ideal."""

    steps: tuple[Step, ...]
    over: BruhatIdeal

    def singletons(self) -> list[Permutation]:
        return [s.element for s in self.steps if isinstance(s, Singleton)]

    @property
    def is_perfect(self) -> bool:
        return not self.singletons()


def _minimal_blocks(comp: tuple[int, ...], increasing: frozenset[int]) -> list[RunWord]:
    """Partition one support interval into the fewest directed runs.

    A block grows from the left while its inner pairs {k, k+1} keep one
    direction; a one-letter block is increasing.
    """
    blocks = []
    j = 0
    while j < len(comp):
        rising = comp[j] in increasing
        i = j + 1
        while i < len(comp) and (comp[i - 1] in increasing) == rising:
            i += 1
        span = i - 1 - j
        direction = "increasing" if rising or span == 0 else "decreasing"
        blocks.append(RunWord(comp[j], span, direction))
        j = i
    return blocks


def run_decompose(v: Permutation) -> RunDecomposition:
    """A reduced word of v as a concatenation of the fewest possible runs.

    Reduced words of a boolean permutation are the linear extensions of a
    zigzag order on the support: each pair {k, k+1} of support letters keeps
    a fixed relative order across all words, and distant letters commute.
    Each support interval is cut greedily into the fewest blocks of constant
    direction (_minimal_blocks), so the pair across the boundary after a
    block runs against the block: after an increasing block, the next block
    must come first; after a decreasing one, it must come after. The word
    places each chain of blocks joined by increasing blocks right to left,
    and the chains left to right.
    """
    if not is_boolean(v):
        raise ValueError("run_decompose requires a boolean permutation")
    increasing = increasing_pairs(v)
    ordered: list[RunWord] = []
    for comp in interval_components(support(v)):
        chain: list[RunWord] = []
        for block in _minimal_blocks(comp, increasing):
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
    for pos, letter in enumerate(s.letters, start=1):
        # right multiplication by s_a raises the length iff u(a) < u(a+1)
        if pos != i and images[letter - 1] < images[letter]:
            images[letter - 1], images[letter] = images[letter], images[letter - 1]
    return Permutation(images)


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


def _match_family(family: dict[frozenset[int], Permutation]) -> list[Step]:
    """Match a nonempty inclusion-downward-closed family of letter sets,
    given as a dict from each set to its element.

    Returns steps over the elements, top of the filtration first:
    recursively matched unpairable coideal, then the sigma_m pairs by
    descending rank. The family {frozenset()} is the one-element dict.
    """
    if len(family) == 1:
        return [Singleton(*family.values())]
    m = max(frozenset().union(*family))
    ups = []
    unmatched = {}
    for t, x in family.items():
        if m in t:
            continue
        up = t | {m}
        if up in family:
            ups.append(up)
        else:
            unmatched[t] = x
    ups.sort(key=lambda up: (-len(up), sorted(up)))
    pairs = [Pair(family[up - {m}], family[up]) for up in ups]
    if not unmatched:
        return pairs
    core = frozenset.intersection(*unmatched)
    return _match_family({t - core: x for t, x in unmatched.items()}) + pairs


def build_matching(v: Permutation, w: Permutation) -> MatchingCertificate:
    """A perfect or almost perfect matching of B(v) /\\ B(w).

    Matches on the largest common support letter and recurses on the coideal
    of unpairable elements; v boolean means elements are determined by their
    supports, so the recursion runs on letter sets.
    """
    if not is_boolean(v):
        raise ValueError("build_matching requires boolean v")
    ideal = intersect_ideals(v, w)
    steps = _match_family({support(x): x for x in ideal.elements})
    return MatchingCertificate(tuple(steps), ideal)


def check_matching(cert: MatchingCertificate) -> str | None:
    """First violated certificate condition, or None when valid.

    Trusts nothing from the constructor. Violations are reported in this
    order: a step element outside the ideal, repeated or in no step; more
    than one singleton; then, walking the steps in order, whichever the walk
    meets first of a down-cover outside the ideal and a pair that is not a
    cover; last, the earliest prefix of steps that is not a coideal.
    The walk lists the down-covers of each element afresh from its one-line
    notation, not from cert.over.covers. A pair is a cover exactly when the
    down-covers of its upper include an element of the same step, which can
    only be its lower. Inside an order ideal x <= y is a chain of
    covers, so every prefix is a coideal exactly when no down-cover is added
    at an earlier step than the element it lies under.
    """
    elements = cert.over.elements
    seen: set[Permutation] = set()
    step_of: dict[tuple[int, ...], int] = {}
    for k, step in enumerate(cert.steps):
        for x in _members(step):
            if x not in elements:
                return f"step element {format_permutation(x)} outside the ideal"
            if x in seen:
                return f"element {format_permutation(x)} appears twice"
            seen.add(x)
            step_of[x.images] = k
    if seen != elements:
        missing = next(iter(elements - seen))
        return f"element {format_permutation(missing)} not covered by any step"

    if len(cert.singletons()) > 1:
        return "more than one singleton"

    first = None
    for k, step in enumerate(cert.steps):
        for y in _members(step):
            paired = False
            for t in _down_images(y.images):
                j = step_of.get(t)
                if j is None:
                    return (
                        f"element {format_permutation(Permutation(t))} covered "
                        f"by {format_permutation(y)} is outside the ideal"
                    )
                if j <= k:
                    if j == k:
                        paired = True
                    elif first is None or j < first[0]:
                        first = (j, t, y)
            if not paired and isinstance(step, Pair) and y is step.upper:
                return (
                    f"pair ({format_permutation(step.lower)}, "
                    f"{format_permutation(step.upper)}) is not a cover"
                )
    if first is not None:
        j, t, y = first
        return (
            f"prefix through {type(cert.steps[j]).__name__} is not a coideal: "
            f"{format_permutation(Permutation(t))} <= {format_permutation(y)}"
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

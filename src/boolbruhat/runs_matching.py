"""Run decompositions, slimming, optimal partners, and matchings of
intersection ideals B(v) /\\ B(w) for boolean v."""
from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass

from .bruhat import (
    DEFAULT_IDEAL_CAP,
    BruhatIdeal,
    RunWord,
    bruhat_leq,
    ideal_to_dot,
    intersect_ideals,
)
from .permcore import (
    Permutation,
    ReducedWord,
    canonical_reduced_word,
    format_permutation,
    is_boolean,
    support,
)
from .boolean_intersect import interval_components


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


def _minimal_blocks(comp: tuple[int, ...], before: dict[int, bool]) -> list[RunWord]:
    """Partition one support interval into the fewest directed runs.

    before[k] says whether k precedes k+1 in every reduced word.  A block
    [comp[j], comp[i]] is a valid run iff that flag is constant inside it;
    minimized by dynamic programming, preferring long early blocks.
    """
    m = len(comp)
    best = [0] + [m + 1] * m
    cut = [0] * (m + 1)
    for i in range(1, m + 1):
        for j in range(i - 1, -1, -1):
            inner = {before[comp[t]] for t in range(j, i - 1)}
            if len(inner) > 1:
                break
            if best[j] + 1 < best[i]:
                best[i] = best[j] + 1
                cut[i] = j
    blocks = []
    i = m
    while i > 0:
        j = cut[i]
        inner = {before[comp[t]] for t in range(j, i - 1)}
        direction = "decreasing" if inner == {False} else "increasing"
        blocks.append(RunWord(comp[j], i - 1 - j, direction))
        i = j
    blocks.reverse()
    return blocks


def run_decompose(v: Permutation) -> RunDecomposition:
    """A reduced word of v as a concatenation of the fewest possible runs.

    Reduced words of a boolean permutation are the linear extensions of a
    zigzag order on the support: each pair {k, k+1} of support letters keeps
    a fixed relative order across all words, and distant letters commute.
    A run decomposition is therefore a partition of each support interval
    into blocks of constant direction, arranged compatibly; blocks form a
    path whose orientation is always acyclic, so any minimal partition works.
    """
    if not is_boolean(v):
        raise ValueError("run_decompose requires a boolean permutation")
    s = canonical_reduced_word(v).letters
    pos = {letter: idx for idx, letter in enumerate(s)}
    before = {k: pos[k] < pos.get(k + 1, len(s)) for k in pos}
    blocks: list[RunWord] = []
    for comp in interval_components(support(v)):
        blocks.extend(_minimal_blocks(comp, before))

    # Arrange blocks: an edge between letter-adjacent blocks points at the
    # one whose boundary letter must come later.
    after_count = {b: 0 for b in blocks}
    successors: dict[RunWord, list[RunWord]] = {b: [] for b in blocks}
    by_start = {b.start: b for b in blocks}
    for b in blocks:
        top = b.start + b.span
        nxt = by_start.get(top + 1)
        if nxt is None:
            continue
        first, second = (b, nxt) if before[top] else (nxt, b)
        successors[first].append(second)
        after_count[second] += 1
    ordered: list[RunWord] = []
    ready = sorted(
        (b for b in blocks if after_count[b] == 0), key=lambda b: b.start
    )
    while ready:
        b = ready.pop(0)
        ordered.append(b)
        for nxt in successors[b]:
            after_count[nxt] -= 1
            if after_count[nxt] == 0:
                insort(ready, nxt, key=lambda r: r.start)
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
    u = Permutation.identity(s.degree)
    for pos, letter in enumerate(s.letters, start=1):
        if pos == i:
            continue
        nxt = u.right_simple(letter)
        if nxt.length > u.length:
            u = nxt
    return u


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


def _match_family(family: frozenset[frozenset[int]]) -> list[tuple]:
    """Match a nonempty inclusion-downward-closed family of letter sets.

    Returns steps over supports, top of the filtration first: recursively
    matched unpairable coideal, then the sigma_m pairs by descending rank.
    """
    if family == {frozenset()}:
        return [("singleton", frozenset())]
    m = max(x for t in family for x in t)
    pairs = []
    unmatched = set()
    for t in family:
        if m in t:
            continue
        up = t | {m}
        if up in family:
            pairs.append(("pair", t, up))
        else:
            unmatched.add(t)
    pairs.sort(key=lambda step: (-len(step[2]), sorted(step[2])))
    if not unmatched:
        return pairs
    core = frozenset.intersection(*unmatched)
    sub = frozenset(t - core for t in unmatched)
    lifted = []
    for step in _match_family(sub):
        if step[0] == "singleton":
            lifted.append(("singleton", step[1] | core))
        else:
            lifted.append(("pair", step[1] | core, step[2] | core))
    return lifted + pairs


def build_matching(
    v: Permutation, w: Permutation, cap: int = DEFAULT_IDEAL_CAP
) -> MatchingCertificate:
    """A perfect or almost perfect matching of B(v) /\\ B(w).

    Matches on the largest common support letter and recurses on the coideal
    of unpairable elements; v boolean means elements are determined by their
    supports, so the recursion runs on letter sets.
    """
    if not is_boolean(v):
        raise ValueError("build_matching requires boolean v")
    ideal = intersect_ideals(v, w, cap)
    family = frozenset(frozenset(support(x)) for x in ideal.elements)
    by_support = {frozenset(support(x)): x for x in ideal.elements}
    steps: list[Step] = []
    for step in _match_family(family):
        if step[0] == "singleton":
            steps.append(Singleton(by_support[step[1]]))
        else:
            steps.append(Pair(by_support[step[1]], by_support[step[2]]))
    return MatchingCertificate(tuple(steps), ideal)


def check_matching(cert: MatchingCertificate) -> str | None:
    """First violated certificate condition, or None when valid.

    Trusts nothing from the constructor: partition, cover condition, prefix
    coideals, and the singleton count are all re-checked against the ideal.
    """
    elements = cert.over.elements
    seen: set[Permutation] = set()
    for step in cert.steps:
        members = (
            (step.element,) if isinstance(step, Singleton) else (step.lower, step.upper)
        )
        for x in members:
            if x not in elements:
                return f"step element {format_permutation(x)} outside the ideal"
            if x in seen:
                return f"element {format_permutation(x)} appears twice"
            seen.add(x)
    if seen != elements:
        missing = next(iter(elements - seen))
        return f"element {format_permutation(missing)} not covered by any step"

    for step in cert.steps:
        if isinstance(step, Pair):
            if step.upper.length != step.lower.length + 1 or not bruhat_leq(
                step.lower, step.upper
            ):
                return (
                    f"pair ({format_permutation(step.lower)}, "
                    f"{format_permutation(step.upper)}) is not a cover"
                )

    if len(cert.singletons()) > 1:
        return "more than one singleton"

    # Each prefix of steps must be a coideal; since prefixes only grow, it
    # suffices to compare every newly added element against what is still
    # outside at that moment.
    outside = set(elements)
    for step in cert.steps:
        added = (
            (step.element,) if isinstance(step, Singleton) else (step.lower, step.upper)
        )
        outside.difference_update(added)
        for x in added:
            for y in outside:
                if x.length < y.length and bruhat_leq(x, y):
                    return (
                        f"prefix through {type(step).__name__} is not a coideal: "
                        f"{format_permutation(x)} <= {format_permutation(y)}"
                    )
    return None


def verify_matching(cert: MatchingCertificate) -> bool:
    return check_matching(cert) is None


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
    base = ideal_to_dot(cert.over, name)
    lines = base.splitlines()
    ordered = cert.over.sorted_elements()
    ids = {x: f"n{i}" for i, x in enumerate(ordered)}
    pair_edges = {
        (ids[s.lower], ids[s.upper]) for s in cert.steps if isinstance(s, Pair)
    }
    out = []
    for line in lines:
        stripped = line.strip()
        if "->" in stripped:
            src, dst = stripped.rstrip(";").split(" -> ")
            if (src, dst) in pair_edges:
                line = f"  {src} -> {dst} [penwidth=3];"
        out.append(line)
    for s in cert.singletons():
        out.insert(len(out) - 1, f"  {ids[s]} [peripheries=2];")
    return "\n".join(out)

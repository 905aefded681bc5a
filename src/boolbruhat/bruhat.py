"""Bruhat order on S_n: comparison, covers, principal ideals and intersections."""
from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from typing import Literal

from .permcore import (
    DegreeMismatchError,
    Permutation,
    canonical_reduced_word,
    format_permutation,
    format_reduced_word,
)

DEFAULT_IDEAL_CAP = 2 * 10**6


class IdealCapExceededError(RuntimeError):
    """Ideal enumeration exceeded the configured element cap."""


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
    """An explicit order ideal of S_n with its internal cover relations."""

    degree: int
    elements: frozenset[Permutation]
    covers: tuple[tuple[Permutation, Permutation], ...]

    def sorted_elements(self) -> list[Permutation]:
        return sorted(self.elements, key=lambda w: (w.length, w.images))

    def below(self, u: Permutation) -> BruhatIdeal:
        """The elements x <= u, with the covers whose top is kept.

        The kept set is again an ideal of a graded poset, so its covers are
        exactly the ambient covers between its elements, in the same order.
        """
        elements = frozenset(x for x in self.elements if bruhat_leq(x, u))
        covers = tuple(p for p in self.covers if p[1] in elements)
        return BruhatIdeal(self.degree, elements, covers)


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


def down_covers(w: Permutation) -> frozenset[Permutation]:
    """All x with x covered by w."""
    out = []
    img = w.images
    n = w.n
    for i in range(n):
        for j in range(i + 1, n):
            if img[i] > img[j] and not any(
                img[j] < img[k] < img[i] for k in range(i + 1, j)
            ):
                images = list(img)
                images[i], images[j] = images[j], images[i]
                out.append(Permutation(images))
    return frozenset(out)


def principal_ideal(w: Permutation, cap: int = DEFAULT_IDEAL_CAP) -> BruhatIdeal:
    """The explicit principal order ideal B(w), walked down from w.

    Each element is expanded once, so each cover pair (x, y) met on the way
    is recorded once. Not cached: a caller that reuses an ideal holds it.
    """
    seen = {w}
    covers = []
    frontier = [w]
    while frontier:
        nxt = []
        for y in frontier:
            for x in down_covers(y):
                covers.append((x, y))
                if x not in seen:
                    seen.add(x)
                    if len(seen) > cap:
                        raise IdealCapExceededError(
                            f"ideal of {format_permutation(w)} exceeds cap {cap}"
                        )
                    nxt.append(x)
        frontier = nxt
    covers.sort(key=lambda p: (p[0].length, p[0].images, p[1].images))
    return BruhatIdeal(w.n, frozenset(seen), tuple(covers))


def intersect_ideals(
    v: Permutation, w: Permutation, cap: int = DEFAULT_IDEAL_CAP
) -> BruhatIdeal:
    """B(v) /\\ B(w): the principal ideal of the shorter one, cut down below
    the longer one."""
    if v.n != w.n:
        raise DegreeMismatchError(f"degrees {v.n} and {w.n} differ")
    small, big = (v, w) if v.length <= w.length else (w, v)
    return principal_ideal(small, cap).below(big)


def maximal_elements(ideal: BruhatIdeal) -> list[Permutation]:
    """Elements with no up-cover inside the ideal, in one-line order."""
    uppers = {x for x, _y in ideal.covers}
    out = [x for x in ideal.elements if x not in uppers]
    out.sort(key=lambda w: w.images)
    return out


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
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    by_rank: dict[int, list[Permutation]] = {}
    for x in ideal.sorted_elements():
        by_rank.setdefault(x.length, []).append(x)
    ids = {x: f"n{i}" for i, x in enumerate(ideal.sorted_elements())}
    for x, nid in ids.items():
        word = format_reduced_word(canonical_reduced_word(x)) or "e"
        lines.append(f'  {nid} [label="{format_permutation(x)}\\n[{word}]"];')
    for rank in sorted(by_rank):
        same = " ".join(ids[x] + ";" for x in by_rank[rank])
        lines.append(f"  {{ rank=same; {same} }}")
    for x, y in ideal.covers:
        lines.append(f"  {ids[x]} -> {ids[y]};")
    lines.append("}")
    return "\n".join(lines)

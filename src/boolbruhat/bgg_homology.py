"""Signed cover complexes on the Bruhat order and grades of simple modules.

The differential raises length by one along cover relations with coefficients
+-1 chosen so that every length-2 interval (a diamond, with exactly two middle
elements) has edge-sign product -1; that condition is exactly d o d = 0.
Restricting to B(w) /\\ B(u) and minimizing the first nonzero homology
position over u yields the grade of the simple module attached to w.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache

from .bruhat import BruhatIdeal, down_covers, intersect_ideals, principal_ideal
from .permcore import (
    Permutation,
    all_permutations,
    descents,
    format_permutation,
    support,
)
from .boolean_intersect import interval_components
from .rs_afunction import a_function

DEFAULT_DEGREE_CAP = 7


class DegreeCapExceededError(RuntimeError):
    """Requested degree is above the configured cap."""


@dataclass(frozen=True, eq=False)
class SignAssignment:
    """A map from cover pairs (x, y), y covering x, to {+1, -1} satisfying
    the diamond condition on every length-2 interval of S_n."""

    degree: int
    sign: dict[tuple[Permutation, Permutation], int]


@dataclass(frozen=True, eq=False)
class RestrictedComplex:
    """Integer chain complex on a convex subset of the Bruhat order.

    Position -i holds the elements x with top_length - l(x) = i; the matrix
    at index i sends position -i to -i+1 (rows indexed by the higher rank).
    """

    degree: int
    top_length: int
    dims: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class GradeReport:
    w: Permutation
    grade: int
    witness_u: Permutation


def _sorted_perms(perms) -> list[Permutation]:
    return sorted(perms, key=lambda x: (x.length, x.images))


def build_sign_assignment(
    n: int, cap: int = DEFAULT_DEGREE_CAP, flip_roots: bool = False
) -> SignAssignment:
    """Assign +-1 to every cover of S_n, rank by rank; built once per
    (n, flip_roots), whatever the cap.

    Within a rank, the diamond conditions couple the down-edges of each top
    element z through already-fixed lower edges; each coupling component is
    solved by breadth-first parity propagation from its smallest member.
    flip_roots starts every component at -1 instead, producing a second
    valid assignment for invariance tests.
    """
    if n > cap:
        raise DegreeCapExceededError(f"degree {n} exceeds cap {cap}")
    return _build_sign_assignment(n, flip_roots)


@lru_cache(maxsize=8)
def _build_sign_assignment(n: int, flip_roots: bool) -> SignAssignment:
    root = -1 if flip_roots else 1
    sign: dict[tuple[Permutation, Permutation], int] = {}
    for z, down, diamonds in _diamonds(n):
        constraints: dict[Permutation, list[tuple[Permutation, int]]] = {
            y: [] for y in down
        }
        for y1, y2, x in diamonds:
            parity = -sign[(x, y1)] * sign[(x, y2)]
            constraints[y1].append((y2, parity))
            constraints[y2].append((y1, parity))
        value: dict[Permutation, int] = {}
        for y in down:
            if y in value:
                continue
            value[y] = root
            queue = [y]
            while queue:
                cur = queue.pop()
                for other, parity in constraints[cur]:
                    want = value[cur] * parity
                    if other not in value:
                        value[other] = want
                        queue.append(other)
                    elif value[other] != want:
                        raise AssertionError(
                            f"inconsistent diamond system below {z!r}"
                        )
        for y in down:
            sign[(y, z)] = value[y]
    return SignAssignment(n, sign)


def _diamonds(n: int):
    """Each z of S_n in (length, one-line) order, with its down-covers in that
    order and the diamonds (y1, y2, x) below it: y1 before y2, both covering x.

    Every element comes after its down-covers, so down_covers runs once per
    element.
    """
    down_of: dict[Permutation, list[Permutation]] = {}
    for z in all_permutations(n):
        down = down_of[z] = _sorted_perms(down_covers(z))
        yield z, down, [
            (y1, y2, x)
            for a, y1 in enumerate(down)
            for y2 in down[a + 1 :]
            for x in down_of[y1]
            if x in down_of[y2]
        ]


def diamond_violations(signs: SignAssignment) -> list[tuple[Permutation, Permutation]]:
    """Length-2 intervals [x, z] whose four edge signs do not multiply to -1."""
    sign = signs.sign
    bad = []
    for z, _down, diamonds in _diamonds(signs.degree):
        for y1, y2, x in diamonds:
            if sign[(x, y1)] * sign[(y1, z)] * sign[(x, y2)] * sign[(y2, z)] != -1:
                bad.append((x, z))
    return bad


def build_complex(
    ideal: BruhatIdeal, top_length: int, signs: SignAssignment
) -> RestrictedComplex:
    """Chain complex on an ideal, graded by top_length - l(x); each cover
    (x, y) of the ideal is one entry of the matrix leaving x's position."""
    basis: list[list[Permutation]] = [[] for _ in range(top_length + 1)]
    for x in ideal.elements:
        basis[top_length - x.length].append(x)
    for row in basis:
        row.sort(key=lambda x: x.images)
    index = {x: k for row in basis for k, x in enumerate(row)}
    matrices = [[]] + [
        [[0] * len(basis[i]) for _ in basis[i - 1]] for i in range(1, top_length + 1)
    ]
    for x, y in ideal.covers:
        matrices[top_length - x.length][index[y]][index[x]] = signs.sign[(x, y)]
    return RestrictedComplex(
        ideal.degree,
        top_length,
        tuple(len(b) for b in basis),
        tuple(tuple(tuple(r) for r in m) for m in matrices),
    )


def restricted_complex(
    w: Permutation, u: Permutation, signs: SignAssignment
) -> RestrictedComplex:
    """The signed cover complex on B(w) /\\ B(u), with w at position 0."""
    return build_complex(intersect_ideals(w, u), w.length, signs)


def integer_rank(rows) -> int:
    """Exact rank over the rationals by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[rank][c] * m[i][j] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nr:
            break
    return rank


def homology_ranks(c: RestrictedComplex) -> dict[int, int]:
    """Map position -i to the dimension of homology there."""
    ranks = [integer_rank(m) for m in c.matrices] + [0]
    out = {}
    for i in range(c.top_length + 1):
        out[-i] = c.dims[i] - ranks[i] - ranks[i + 1]
    return out


def is_exact(c: RestrictedComplex) -> bool:
    return all(h == 0 for h in homology_ranks(c).values())


def differential_squares_to_zero(c: RestrictedComplex) -> bool:
    for i in range(1, c.top_length):
        lo, hi = c.matrices[i + 1], c.matrices[i]
        if not lo or not hi:
            continue
        for r in range(len(hi)):
            for col in range(len(lo[0]) if lo else 0):
                if sum(hi[r][k] * lo[k][col] for k in range(len(lo))):
                    return False
    return True


def _first_nonzero_position(
    ideal: BruhatIdeal, top_length: int, signs: SignAssignment, stop_at: int
) -> int | None:
    """Smallest i < stop_at with nonzero homology at -i of the complex on
    ideal, scanning from position 0 and computing ranks lazily."""
    c = build_complex(ideal, top_length, signs)
    prev_rank = 0
    for i in range(min(stop_at, c.top_length + 1)):
        nxt_rank = integer_rank(c.matrices[i + 1]) if i + 1 <= c.top_length else 0
        if c.dims[i] - prev_rank - nxt_rank > 0:
            return i
        prev_rank = nxt_rank
    return None


def grade(
    w: Permutation, signs: SignAssignment, record: dict | None = None
) -> GradeReport:
    """Minimum over u of the first nonzero homology position of the complex
    on B(w) /\\ B(u).

    u comparable with w is skipped (exact complex) except the identity, which
    supplies the l(w) baseline; u sharing a left or right descent with w is
    skipped for the same reason. Every complex is B(w), walked once, cut
    down below u, so comparability is membership.
    """
    n = w.n
    e = Permutation.identity(n)
    if w == e:
        return GradeReport(w, 0, e)
    top = principal_ideal(w)
    best = w.length
    witness = e
    wl, wr = descents(w, "left"), descents(w, "right")
    for u in all_permutations(n):
        if best == 1:
            break
        if u in top.elements:
            continue
        if wl & descents(u, "left") or wr & descents(u, "right"):
            continue
        part = top.below(u)
        if w in part.elements:
            continue
        i = _first_nonzero_position(part, w.length, signs, best)
        if i is not None and i < best:
            best, witness = i, u
        if record is not None and i is not None:
            record[u] = i
    return GradeReport(w, best, witness)


def grade_of_parabolic_longest(mu, n: int, signs: SignAssignment) -> GradeReport:
    from .rs_afunction import longest_parabolic_element

    w = longest_parabolic_element(mu, n)
    return grade(w, signs)


def is_longest_parabolic_element(w: Permutation) -> bool:
    """Whether w is the longest element of the standard parabolic subgroup
    generated by its own support: blockwise order reversal on the interval
    components of supp(w)."""
    images = list(range(1, w.n + 1))
    for comp in interval_components(support(w)):
        lo, hi = comp[0], comp[-1] + 1
        images[lo - 1 : hi] = range(hi, lo - 1, -1)
    return w.images == tuple(images)


def is_perfect(w: Permutation, signs: SignAssignment) -> bool:
    """Grade equals projective dimension, which is l(w)."""
    return grade(w, signs).grade == w.length


def grade_table(n: int, signs: SignAssignment) -> list[dict]:
    rows = []
    for w in all_permutations(n):
        report = grade(w, signs)
        rows.append(
            {
                "w": format_permutation(w),
                "length": w.length,
                "a": a_function(w),
                "grade": report.grade,
                "perfect": report.grade == w.length,
                "witness_u": format_permutation(report.witness_u),
            }
        )
    return rows


def grade_table_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["w", "length", "a", "grade", "perfect", "witness_u"]
    )
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def grade_report_json(report: GradeReport) -> str:
    return json.dumps(
        {
            "w": format_permutation(report.w),
            "grade": report.grade,
            "witness_u": format_permutation(report.witness_u),
            "a_value": a_function(report.w),
            "perfect": report.grade == report.w.length,
        },
        indent=2,
    )

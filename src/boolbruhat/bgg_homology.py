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
from functools import cached_property, lru_cache

from .bruhat import _down_images
from .permcore import (
    ENUMERATION_CAP,
    CapExceededError,
    DegreeMismatchError,
    Permutation,
    _capped_factorial,
    _descent_masks,
    _support_mask,
    all_permutations,
    boolean_permutations,
    format_permutation,
    is_boolean,
)
from .rs_afunction import a_function

@dataclass(frozen=True, eq=False)
class SignAssignment:
    """The Bruhat covers of S_n, and signs +-1 on them satisfying the
    diamond condition on every length-2 interval, filled in on first read.
    elements is all of S_n in (length, one-line) order, index maps each
    one-line tuple to its position in elements, and down[k] is the sorted
    tuple of the indices of the down-covers of elements[k]: the Bruhat
    covers, held once. sign[k] maps each j of down[k] to the sign of the
    cover elements[j] < elements[k], or is None while k is unsigned; the
    signed elements always form an order ideal, and signed fills it in."""

    degree: int
    elements: list[Permutation]
    index: dict[tuple[int, ...], int]
    down: list[tuple[int, ...]]
    sign: list[dict[int, int] | None]

    def signed(self, on) -> list[dict[int, int]]:
        """sign, with every element below an index of on signed.

        The unsigned elements below on are found by a walk down through the
        unsigned ones, and signed in index order by _sign_covers, so each
        reads only signs already set. The pass gives each element the same
        signs whatever down-closed set it runs over: element k's depend
        only on the signs of its down-covers, which all lie in B(k).
        Raises AssertionError, from _sign_covers, when the diamonds below
        an element force different signs or none; the elements signed
        before it are kept."""
        sign, down = self.sign, self.down
        todo = {k for k in on if sign[k] is None}
        frontier = todo
        while frontier:
            frontier = {j for k in frontier for j in down[k] if sign[j] is None} - todo
            todo |= frontier
        for k in sorted(todo):
            sign[k] = _sign_covers(self, k)
        return sign

    @cached_property
    def masks(self) -> _BooleanMasks:
        """The boolean and descent masks that grade scans, built on first
        read (by the first grade call, never by the sign build) and kept
        with the assignment."""
        return _boolean_masks(self)


@dataclass(frozen=True, eq=False)
class RestrictedComplex:
    """Integer chain complex on a convex subset of the Bruhat order.

    Position -i holds the elements x with top_length - l(x) = i; the matrix
    at index i sends position -i to -i+1 (rows indexed by the higher rank).
    """

    top_length: int
    dims: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class GradeReport:
    w: Permutation
    grade: int
    witness_u: Permutation


def _cover_count(n: int) -> int:
    """The number of Bruhat covers of S_n, n! * sum_{d=1}^{n-1} (n-d)/(d+1).

    Swapping the entries at positions i and i+d of w gives an element
    covering w for exactly 1/(d+1) of all w: among the d+1 entries from i to
    i+d, the one at i must come next below the one at i+d. n! is computed
    once, and refused first when it is over the cap.
    """
    size = _capped_factorial(n)
    return sum(size // (d + 1) * (n - d) for d in range(1, n))


def build_sign_assignment(n: int) -> SignAssignment:
    """The sign assignment of S_n, built once per n: S_n, its index and its
    covers, with every element unsigned. Signs come on first read, through
    SignAssignment.signed. Raises CapExceededError, before enumerating S_n,
    when S_n has more than ENUMERATION_CAP elements or covers, so n <= 8 is
    served.
    """
    covers = _cover_count(n)
    if covers > ENUMERATION_CAP:
        raise CapExceededError(
            f"S_{n} has {covers} covers, more than the cap {ENUMERATION_CAP}"
        )
    return _build_sign_assignment(n)


@lru_cache(maxsize=8)
def _build_sign_assignment(n: int) -> SignAssignment:
    elements = all_permutations(n)
    index = {x.images: k for k, x in enumerate(elements)}
    down = [tuple(sorted(index[t] for t in _down_images(x.images))) for x in elements]
    return SignAssignment(n, elements, index, down, [None] * len(elements))


def _sign_covers(signs: SignAssignment, k: int) -> dict[int, int]:
    """The signs of the down-covers of element k, whose own down-covers
    must all be signed: one left-to-right pass over down[k], in which the
    first gets +1 and each later one the sign forced by its diamonds with
    the earlier ones, whose lower edges are already signed. Every pair of
    down-edges is tested, so every diamond is checked. Raises
    AssertionError when two diamonds force different signs, or when a
    later down-cover shares no diamond with an earlier one (which no
    element of S_n, n <= 8, has)."""
    sign, dk = signs.sign, signs.down[k]
    value: list[int] = []
    for j2 in dk:
        s2 = sign[j2]
        # the first down-cover gets +1; 0 marks a sign not yet forced
        forced = 0 if value else 1
        for j1, v in zip(dk, value):
            s1 = sign[j1]
            for i in s1.keys() & s2.keys():
                # the four signs of the diamond over i multiply to -1
                want = -v * s1[i] * s2[i]
                if not forced:
                    forced = want
                elif forced != want:
                    raise AssertionError(
                        f"inconsistent diamond system below {signs.elements[k]!r}"
                    )
        if not forced:
            raise AssertionError(
                f"down-cover {signs.elements[j2]!r} of {signs.elements[k]!r} "
                "shares no diamond with an earlier one"
            )
        value.append(forced)
    return dict(zip(dk, value))


def diamond_violations(signs: SignAssignment) -> list[tuple[Permutation, Permutation]]:
    """Length-2 intervals [x, z] whose four edge signs do not multiply to -1,
    over the covers signs.down, once every element is signed: for each z in
    index order, the diamonds (j1, j2, x) below it with j1 < j2 and x in
    increasing index order, whatever the order of the keys of sign."""
    down, elements = signs.down, signs.elements
    sign = signs.signed(range(len(elements)))
    bad = []
    for k, dk in enumerate(down):
        for a, j1 in enumerate(dk):
            for j2 in dk[a + 1 :]:
                for i in sorted(set(down[j1]) & set(down[j2])):
                    if sign[j1][i] * sign[k][j1] * sign[j2][i] * sign[k][j2] != -1:
                        bad.append((elements[i], elements[k]))
    return bad


def build_complex(
    on: list[int], top_length: int, signs: SignAssignment
) -> RestrictedComplex:
    """Chain complex on the ideal with sorted indices on into signs.elements,
    graded by top_length - l(x); (length, one-line) index order puts each
    basis in one-line order, and each cover (x, y) of the ideal is one entry
    of the matrix leaving x's position. Signs the ideal below on first."""
    elements, sign = signs.elements, signs.signed(on)
    basis: list[list[int]] = [[] for _ in range(top_length + 1)]
    for k in on:
        basis[top_length - elements[k].length].append(k)
    matrices: list[tuple] = [()]
    for i in range(1, top_length + 1):
        column = {x: c for c, x in enumerate(basis[i])}
        if not column:
            # rows and no columns: the matrix into the position after grade's cut
            matrices.append(((),) * len(basis[i - 1]))
            continue
        rows = []
        for y in basis[i - 1]:
            row = [0] * len(column)
            for x, s in sign[y].items():
                c = column.get(x)
                if c is not None:
                    row[c] = s
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return RestrictedComplex(top_length, tuple(len(b) for b in basis), tuple(matrices))


def restricted_complex(
    w: Permutation, u: Permutation, signs: SignAssignment
) -> RestrictedComplex:
    """The signed cover complex on B(w) /\\ B(u), with w at position 0."""
    if not signs.degree == w.n == u.n:
        raise DegreeMismatchError(f"degrees {signs.degree}, {w.n} and {u.n} differ")
    down, index = signs.down, signs.index
    on = _ideal_indices(down, index[w.images]) & _ideal_indices(down, index[u.images])
    return build_complex(sorted(on), w.length, signs)


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


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as ints, bit c the entry in column c:
    each row is reduced by XOR against the kept rows of its leading bit."""
    lead: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in lead:
                lead[top] = row
                break
            row ^= lead[top]
    return len(lead)


def _first_nonzero_position(
    on: list[int], top_length: int, signs: SignAssignment, stop_at: int
) -> int | None:
    """Smallest i < stop_at with nonzero homology at -i of the complex on
    the ideal with sorted indices on, scanning from position 0 and computing
    ranks lazily: it reads dims[i] for i < stop_at and the matrices up to
    index stop_at, so it keeps only the elements of on at or above length
    top_length - stop_at (grade's cut), and a fallback builds the complex
    on those alone.

    Ranks are taken over GF(2) first, on rows whose bits are the covers
    of signs.down, so no sign is read. A rank mod 2 is at most the rational
    rank, so a position that is exact over GF(2) is exact over Q. Only at a
    position where GF(2) sees homology is the complex built and the two
    ranks there decided by integer_rank."""
    elements, down = signs.elements, signs.down
    last = min(stop_at, top_length)
    basis: list[list[int]] = [[] for _ in range(last + 1)]
    for k in on:
        i = top_length - elements[k].length
        if i <= last:
            basis[i].append(k)
    c = None
    prev_rank = 0  # the rank of matrix i, over Q after a fallback at i - 1
    for i in range(min(stop_at, top_length + 1)):
        nxt_rank = 0
        if i < last and basis[i + 1]:
            column = {x: 1 << b for b, x in enumerate(basis[i + 1])}
            rows = []
            for y in basis[i]:
                row = 0
                for x in down[y]:
                    row |= column.get(x, 0)
                rows.append(row)
            nxt_rank = _gf2_rank(rows)
        if len(basis[i]) - prev_rank - nxt_rank > 0:
            if c is None:
                c = build_complex([k for level in basis for k in level], top_length, signs)
            prev_rank = integer_rank(c.matrices[i])
            nxt_rank = integer_rank(c.matrices[i + 1]) if i < top_length else 0
            if c.dims[i] - prev_rank - nxt_rank > 0:
                return i
        prev_rank = nxt_rank
    return None


def grade(
    w: Permutation, signs: SignAssignment, record: dict | None = None
) -> GradeReport:
    """Minimum over u of the first nonzero homology position of the complex
    on B(w) /\\ B(u), with the first u in (length, one-line) order that
    reaches it as witness.

    Bruhat order is read from the covers signs.down alone, and each
    complex that is built is filled from the sparse signs of its covers,
    signed on first read.

    record, if given, maps each u whose complex is built to its first
    nonzero position, when that lies below the bound in force then.
    Raises DegreeMismatchError when signs is not an assignment of S_n for
    the n of w.
    """
    return _grade(w, signs, record, 1)


def _grade(
    w: Permutation, signs: SignAssignment, record: dict | None, enough: int
) -> GradeReport:
    """grade, stopping the u-scan once the bound falls to enough or below:
    the report then holds the first u in scan order that reached it.

    The u and their intersections come from _scan; the identity, which it
    skips, supplies the l(w) baseline. A u whose intersection tops out at
    length r0 with l(w) - r0 at or above the bound is skipped unbuilt,
    since its first nonzero position cannot beat the bound. The others go
    to the position scan with the bound as its stop, which cuts them to
    positions 0..bound, so only those matrices are filled."""
    if signs.degree != w.n:
        raise DegreeMismatchError(
            f"sign assignment of degree {signs.degree} for w in S_{w.n}"
        )
    e = Permutation.identity(w.n)
    if w == e:
        return GradeReport(w, 0, e)
    elements = signs.elements
    best = w.length
    witness = e
    for k, mask, ideal in _scan(signs, signs.index[w.images]):
        if best <= enough:
            break
        if w.length - elements[ideal[mask.bit_length() - 1]].length >= best:
            continue
        i = _first_nonzero_position(_members(mask, ideal), w.length, signs, best)
        u = elements[k]
        if i is not None and i < best:
            best, witness = i, u
        if record is not None and i is not None:
            record[u] = i
    return GradeReport(w, best, witness)


@dataclass(frozen=True, eq=False)
class _BooleanMasks:
    """One pass over a sign assignment's elements, in index order. Bit b
    stands for the b-th boolean element, boolean[b] is its index, and
    mask[k] has the bits of the boolean elements below k. distinct holds
    (first index k, mask[k]) for each distinct mask, in index order.
    right[k] and left[k] are the right and left descent masks of element
    k, bit i for s_i (_descent_masks)."""

    boolean: list[int]
    mask: list[int]
    distinct: list[tuple[int, int]]
    right: list[int]
    left: list[int]


def _boolean_masks(signs: SignAssignment) -> _BooleanMasks:
    """The masks of SignAssignment.masks: the boolean elements come from
    boolean_permutations, their masks from _ideal_masks, the pass that
    serves any other w."""
    boolean = sorted(signs.index[v.images] for v in boolean_permutations(signs.degree))
    mask: list[int] = []
    first: dict[int, int] = {}
    right: list[int] = []
    left: list[int] = []
    for k, below in _ideal_masks(signs.down, boolean):
        mask.append(below)
        first.setdefault(below, k)
        r, l = _descent_masks(signs.elements[k].images)
        right.append(r)
        left.append(l)
    distinct = [(k, m) for m, k in first.items()]
    return _BooleanMasks(boolean, mask, distinct, right, left)


def _scan(signs: SignAssignment, top: int):
    """(u, mask, ideal) for w = element top, once per distinct intersection
    B(w) /\\ B(u) that grade builds, at its first u in index order. ideal is
    an index-ordered list of elements and bit b of mask stands for ideal[b],
    so the highest bit of mask is an element of the intersection's top
    length.

    The only branch picks the masks. A boolean w has only boolean elements
    below it, so ideal is signs.masks.boolean and the intersection is the
    AND of the precomputed masks of u and w; only the first u of each
    distinct mask is visited, since a later one has the same complex. Any
    other w has ideal the sorted indices of B(w), walked down from w, and
    _ideal_masks gives every u its mask over it in one pass over S_n.

    Comparability is read off the intersection m itself: w <= u exactly
    when m is all of w's mask, and u <= w exactly when u is the highest
    element of m, since every element below u precedes it in index order.
    Those u, and u sharing a right or left descent with w, have exact
    complexes and are skipped."""
    masks = signs.masks
    right, left = masks.right, masks.left
    if is_boolean(signs.elements[top]):
        ideal, source, mw = masks.boolean, masks.distinct, masks.mask[top]
    else:
        ideal = sorted(_ideal_indices(signs.down, top))
        source, mw = _ideal_masks(signs.down, ideal), (1 << len(ideal)) - 1
    wr, wl = right[top], left[top]
    built: set[int] = set()
    for k, m in source:
        m &= mw
        if (
            m == mw
            or ideal[m.bit_length() - 1] == k
            or right[k] & wr
            or left[k] & wl
            or m in built
        ):
            continue
        built.add(m)
        yield k, m, ideal


def _ideal_masks(down: list[tuple[int, ...]], ideal: list[int]):
    """(k, mask) for every index k in order, bit b of mask set for each
    ideal[b] below element k: k's own bit, if ideal holds k, ORed with the
    masks of k's down-covers."""
    bit = {k: 1 << b for b, k in enumerate(ideal)}
    mask_at: list[int] = []
    for k, covers in enumerate(down):
        mask = bit.get(k, 0)
        for j in covers:
            mask |= mask_at[j]
        mask_at.append(mask)
        yield k, mask


def _members(mask: int, ideal: list[int]) -> list[int]:
    """ideal[b] for each bit b set in mask, in bit order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ideal[low.bit_length() - 1])
        mask ^= low
    return out


def _ideal_indices(down: list[tuple[int, ...]], top: int) -> set[int]:
    """The indices of the elements below index top, walked down through
    down."""
    seen = {top}
    frontier = [top]
    while frontier:
        frontier = {j for k in frontier for j in down[k]} - seen
        seen |= frontier
    return seen


def is_longest_parabolic_element(w: Permutation) -> bool:
    """Whether w is the longest element of the standard parabolic subgroup
    generated by its own support, in which w lies: the one element of that
    subgroup with every support letter a right descent."""
    return _descent_masks(w.images)[0] == _support_mask(w.images)


def is_perfect(w: Permutation, signs: SignAssignment) -> bool:
    """Grade equals projective dimension, which is l(w). The u-scan stops
    at the first position below l(w), which already decides "not perfect"
    (and, as in grade, at 1, below which it never looks)."""
    return _grade(w, signs, None, max(w.length - 1, 1)).grade == w.length


def grade_table(n: int, signs: SignAssignment) -> list[dict]:
    if signs.degree != n:
        raise DegreeMismatchError(f"sign assignment of degree {signs.degree} for S_{n}")
    rows = []
    for w in signs.elements:
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

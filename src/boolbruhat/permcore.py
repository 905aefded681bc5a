"""Permutations of S_n in one-line notation, reduced words, support, booleanness.

One-line notation is the canonical representation throughout; reduced words
are derived views.  Words evaluate right-to-left: the word (i1, ..., il)
denotes the composite map sigma_{i1} o ... o sigma_{il}.

Letter facts are read from one-line tuples here alone, by _support_mask,
_descent_masks and _increasing_mask, into masks with bit k for the letter s_k
(or the pair {k, k+1}); support and descents are frozenset views of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from operator import mul
from typing import Iterable, Iterator, Literal

# The one size guard: no enumeration (reduced words, boolean elements, all of
# S_n, a principal ideal, the covers of a sign assignment) holds more items.
ENUMERATION_CAP = 10**6
# reduced words are enumerated only for elements of at most this length
WORD_LENGTH_GUARD = 16


class DegreeMismatchError(ValueError):
    """Operands live in symmetric groups of different degrees."""


class CapExceededError(RuntimeError):
    """An enumeration would hold more than ENUMERATION_CAP items, or reduced
    words were asked for above WORD_LENGTH_GUARD."""


class NotReducedError(ValueError):
    """A word failed the reducedness invariant."""


class Permutation:
    """An element of S_n, stored as the tuple (w(1), ..., w(n))."""

    __slots__ = ("images", "length", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [1,{n}]: {images!r}")
        object.__setattr__(self, "images", images)
        # inversions: for each value, the earlier values above it
        inv = 0
        seen = 0
        for v in images:
            inv += (seen >> v).bit_count()
            seen |= 1 << v
        object.__setattr__(self, "length", inv)
        object.__setattr__(self, "_hash", hash(images))

    @classmethod
    def _of_valid(cls, images: tuple[int, ...], length: int) -> "Permutation":
        """The Permutation of images, a one-line tuple already known to be a
        permutation of length length; neither is checked again."""
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash", hash(images))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        """The adjacent transposition sigma_i = (i, i+1) in S_n."""
        return cls.from_word((i,), n)

    @classmethod
    def from_word(cls, letters, n: int) -> "Permutation":
        """Evaluate a word of generator indices (not necessarily reduced) by
        successive right multiplications: w sigma_i swaps w(i) and w(i+1) and
        is one longer than w if w(i) < w(i+1), else one shorter."""
        images = list(range(1, n + 1))
        length = 0
        for i in letters:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator index {i} out of range for S_{n}")
            length += 1 if images[i - 1] < images[i] else -1
            images[i - 1], images[i] = images[i], images[i - 1]
        if n < 1:
            raise ValueError("not a permutation of [1,0]: ()")  # __init__'s text for ()
        return cls._of_valid(tuple(images), length)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise DegreeMismatchError(f"degrees {self.n} and {other.n} differ")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            images[v - 1] = i
        return Permutation(images)

    def is_identity(self) -> bool:
        return self.length == 0

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Permutation({format_permutation(self)!r})"


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word: generator indices whose evaluation has matching length."""

    letters: tuple[int, ...]
    degree: int
    _permutation: Permutation = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        w = Permutation.from_word(self.letters, self.degree)
        if w.length != len(self.letters):
            raise NotReducedError(f"word {self.letters} is not reduced in S_{self.degree}")
        object.__setattr__(self, "_permutation", w)

    def permutation(self) -> Permutation:
        return self._permutation

    def __len__(self):
        return len(self.letters)


def _support_mask(images: tuple[int, ...]) -> int:
    """The support of the permutation with one-line notation images: letter
    k is in it iff the prefix {x(1), ..., x(k)} differs from {1, ..., k},
    that is iff max(x(1), ..., x(k)) > k."""
    mask = 0
    top = 0
    for k, v in enumerate(images[:-1], 1):
        if v > top:
            top = v
        if top > k:
            mask |= 1 << k
    return mask


def _descent_masks(images: tuple[int, ...]) -> tuple[int, int]:
    """(right, left) descents of the permutation x with one-line notation
    images: k is a right descent iff x(k) > x(k+1), and a left descent, a
    right descent of x^-1, iff k+1 stands before k."""
    right = left = prev = 0
    seen = bytearray(len(images) + 2)
    for k, v in enumerate(images):
        if v < prev:
            right |= 1 << k
        if seen[v + 1]:
            left |= 1 << v
        seen[v] = 1
        prev = v
    return right, left


def _increasing_mask(images: tuple[int, ...], supp: int) -> int:
    """Bit k for each pair {k, k+1} of support letters with k before k+1 in
    the boolean element with one-line notation images and support mask
    supp; being never interlaced, it has k before k+1 iff x(k+1) > k+1."""
    inc = 0
    pairs = supp & supp >> 1
    while pairs:
        low = pairs & -pairs
        pairs ^= low
        k = low.bit_length() - 1
        if images[k] > k + 1:
            inc |= low
    return inc


def _letters(mask: int) -> frozenset[int]:
    """The k with bit k set in mask."""
    letters = []
    while mask:
        low = mask & -mask
        mask ^= low
        letters.append(low.bit_length() - 1)
    return frozenset(letters)


def support(w: Permutation) -> frozenset[int]:
    """Generator indices appearing in reduced words of w (_support_mask)."""
    return _letters(_support_mask(w.images))


def descents(w: Permutation, side: Literal["left", "right"] = "right") -> frozenset[int]:
    """Right descents {i : w(i) > w(i+1)}; left descents are those of w^-1,
    the values i with i+1 standing before i in w's one-line notation
    (_descent_masks)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    right, left = _descent_masks(w.images)
    return _letters(right if side == "right" else left)


def _word_iter(w: Permutation) -> Iterator[tuple[int, ...]]:
    """The reduced words of w in lexicographic order, depth first. The stack
    holds, at depth d, the one-line tuple of w with letters[:d] stripped
    (s_a u swaps the values a and a+1 of u) and the mask of its left descents
    not yet tried; it is not the call stack, so no length meets the recursion
    limit. The identity is the only element with no left descent, so a word
    ends where the stripped element's mask is 0."""
    letters: list[int] = []
    stack = [(w.images, _descent_masks(w.images)[1])]
    if not stack[0][1]:  # w is the identity
        yield ()
    while stack:
        u, todo = stack.pop()
        if not todo:
            del letters[-1:]
            continue
        low = todo & -todo
        stack.append((u, todo ^ low))
        a = low.bit_length() - 1
        x = list(u)
        i, j = x.index(a), x.index(a + 1)
        x[i], x[j] = a + 1, a
        x = tuple(x)
        left = _descent_masks(x)[1]
        letters.append(a)
        if left:
            stack.append((x, left))
        else:
            yield tuple(letters)
            del letters[-1]


def enumerate_reduced_words(w: Permutation) -> frozenset[ReducedWord]:
    """All reduced words of w, via descent recursion.

    Raises CapExceededError above WORD_LENGTH_GUARD or ENUMERATION_CAP
    words; never truncates silently.
    """
    if w.length > WORD_LENGTH_GUARD:
        raise CapExceededError(
            f"length {w.length} exceeds enumeration guard {WORD_LENGTH_GUARD}"
        )
    words = []
    for letters in _word_iter(w):
        words.append(letters)
        if len(words) > ENUMERATION_CAP:
            raise CapExceededError(
                f"more reduced words than the cap {ENUMERATION_CAP}"
            )
    return frozenset(ReducedWord(letters, w.n) for letters in words)


def canonical_reduced_word(w: Permutation) -> ReducedWord:
    """The lexicographically smallest reduced word of w: the first word of
    _word_iter, since the first letters of reduced words are exactly the
    left descents."""
    return ReducedWord(next(_word_iter(w)), w.n)


def pattern_contains(w: Permutation, p: Permutation) -> bool:
    """True iff some subsequence of w is order-isomorphic to p."""
    if p.n > w.n:
        return False
    pat = p.images
    rel = [(i, j) for i, j in combinations(range(p.n), 2)]
    for positions in combinations(range(w.n), p.n):
        vals = [w.images[q] for q in positions]
        if all((vals[i] < vals[j]) == (pat[i] < pat[j]) for i, j in rel):
            return True
    return False


def is_boolean(w: Permutation) -> bool:
    """True iff the principal Bruhat ideal of w is a boolean lattice.

    Primary check: length equals support size.
    """
    return w.length == _support_mask(w.images).bit_count()


def is_boolean_by_patterns(w: Permutation) -> bool:
    """Oracle: booleanness as avoidance of the patterns 321 and 3412."""
    return not pattern_contains(w, Permutation((3, 2, 1))) and not pattern_contains(
        w, Permutation((3, 4, 1, 2))
    )


def is_boolean_by_words(w: Permutation) -> bool:
    """Oracle: booleanness as absence of repeated letters in reduced words.

    All reduced words of w have the same length and the same letter set, so
    the lexicographically smallest one decides.
    """
    letters = canonical_reduced_word(w).letters
    return len(set(letters)) == len(letters)


def parse_permutation(text: str) -> Permutation:
    """Parse comma-separated one-line notation; entries may be parenthesized."""
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip().strip("()")
        if not chunk:
            raise ValueError(f"empty entry in permutation text {text!r}")
        entries.append(int(chunk))
    return Permutation(entries)


def format_permutation(w: Permutation) -> str:
    return ",".join(str(v) for v in w.images)


def parse_reduced_word(text: str, n: int) -> ReducedWord:
    """Parse a space-separated reduced word; validates reducedness."""
    letters = tuple(int(tok) for tok in text.split())
    return ReducedWord(letters, n)


def format_reduced_word(s: ReducedWord) -> str:
    return " ".join(str(i) for i in s.letters)


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n, sorted by (length, one-line notation).

    Raises CapExceededError when n! exceeds ENUMERATION_CAP, so n <= 9 is
    served.
    """
    from itertools import permutations as _perms

    _capped_factorial(n)
    out = [Permutation(p) for p in _perms(range(1, n + 1))]
    out.sort(key=lambda w: (w.length, w.images))
    return out


def _capped(counts: Iterable[int], what: str) -> int:
    """The last of counts, a non-decreasing run of partial counts of what;
    raises CapExceededError at the first past ENUMERATION_CAP, naming what
    but not the count, which may be too long to print."""
    count = 0
    for count in counts:
        if count > ENUMERATION_CAP:
            raise CapExceededError(f"{what}, more than the cap {ENUMERATION_CAP}")
    return count


def _capped_factorial(n: int) -> int:
    """n!, the number of elements of S_n, capped by _capped."""
    return _capped(accumulate(range(1, n + 1), mul), f"S_{n} has {n}! elements")


def _capped_boolean_count(n: int) -> int:
    """F_{2n-1}, the number of boolean elements of S_n, capped by _capped."""

    def odd_fibonacci(a=0, b=1):  # F_{2k}, F_{2k+1} from k = 0
        for _ in range(n):
            yield b
            a, b = a + b, a + 2 * b

    return _capped(odd_fibonacci(), f"S_{n} has F_{2 * n - 1} boolean elements")


def boolean_permutations(n: int) -> list[Permutation]:
    """All boolean elements of S_n, sorted by (length, one-line notation).

    A boolean element is a product of distinct simple reflections. Letters
    are added in the order 1..n-1; sigma_i commutes with every earlier letter
    but sigma_{i-1}, so a word gets i appended, or also prepended when i-1 is
    in it, and each element arises from exactly one word. Raises
    CapExceededError when S_n has more than ENUMERATION_CAP of them.
    """
    _capped_boolean_count(n)
    words: list[tuple[int, ...]] = [()]
    for i in range(1, n):
        grown = []
        for word in words:
            grown += (word, word + (i,))
            if i - 1 in word:
                grown.append((i,) + word)
        words = grown
    out = [Permutation.from_word(word, n) for word in words]
    out.sort(key=lambda w: (w.length, w.images))
    return out


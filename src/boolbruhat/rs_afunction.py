"""Robinson-Schensted shapes and Lusztig's a-function in type A."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .permcore import Permutation


@dataclass(frozen=True)
class YoungShape:
    """A partition: weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part, 0 beyond the last row."""
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def rs_shape(w: Permutation) -> YoungShape:
    """Shape of the insertion tableau under Schensted row insertion.

    Tableau contents are transient; only row sizes are kept.
    """
    rows: list[list[int]] = []
    for x in w.images:
        for row in rows:
            k = bisect_left(row, x)
            if k == len(row):
                row.append(x)
                x = None
                break
            row[k], x = x, row[k]
        if x is not None:
            rows.append([x])
    return YoungShape(tuple(len(r) for r in rows))


def a_function(w: Permutation) -> int:
    """Lusztig's a-function: sum of (i - 1) lambda_i over the rows lambda_i
    of the RS shape, which equals the sum of C(lambda'_j, 2) over its
    columns lambda'_j."""
    return sum(i * p for i, p in enumerate(rs_shape(w).parts))


def longest_parabolic_element(mu: YoungShape, n: int) -> Permutation:
    """Longest element of the Young parabolic S_mu1 x S_mu2 x ... inside S_n:
    order-reverse consecutive blocks of the given sizes."""
    if mu.size != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    images: list[int] = []
    start = 1
    for p in mu.parts:
        images.extend(range(start + p - 1, start - 1, -1))
        start += p
    return Permutation(images)

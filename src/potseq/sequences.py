"""Degree sequences: exponent notation, graphicality tests, and the laying-off reduction.

A sequence literal is a comma-separated list of items, each ``r`` or ``r^t``
(``r`` repeated ``t`` times), e.g. ``"5^2,4^6"``.  Sequences are normalized to
non-increasing order with zero terms stripped (and counted), so every stored
term is positive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Iterator

__all__ = [
    "DegreeSequence",
    "SequenceShape",
    "NotationError",
    "parse_notation",
    "render_notation",
    "MAX_TERMS",
    "layoff",
    "is_graphic",
    "is_graphic_layoff",
    "low_degree_graphic_guarantee",
    "graphic_4321",
    "shape_of",
]


class NotationError(ValueError):
    """Malformed sequence literal; ``token`` is the offending item."""

    def __init__(self, token: str, message: str) -> None:
        self.token = token
        super().__init__(f"{message}: {token!r}")


@dataclass(frozen=True)
class DegreeSequence:
    """A non-increasing sequence of positive integers.

    ``stripped_zeros`` records how many zero terms were dropped during
    normalization; it is metadata and does not take part in equality.
    """

    terms: tuple[int, ...]
    stripped_zeros: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        for a, b in zip(self.terms, self.terms[1:]):
            if a < b:
                raise ValueError(f"terms not non-increasing: {self.terms}")
        if self.terms and self.terms[-1] < 1:
            raise ValueError(f"terms must be positive: {self.terms}")

    @classmethod
    def of(cls, values: Iterable[int]) -> "DegreeSequence":
        """Normalize arbitrary nonnegative values: sort, strip and count zeros."""
        vals = sorted(values, reverse=True)
        if vals and vals[-1] < 0:
            raise ValueError(f"negative term: {min(vals)}")
        zeros = 0
        while vals and vals[-1] == 0:
            vals.pop()
            zeros += 1
        return cls(tuple(vals), zeros)

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def sigma(self) -> int:
        return sum(self.terms)

    @property
    def sigma_even(self) -> bool:
        return self.sigma % 2 == 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return render_notation(self)


@dataclass(frozen=True)
class SequenceShape:
    """Positional decomposition (d1,d2,d3,3^k,2^t,1^ones) of a sequence.

    The head is literally the first three terms; ``k``, ``t`` and ``ones``
    count 3s, 2s and 1s among positions 4..n only.  ``matches`` is true iff
    every term after the third lies in {1,2,3}.
    """

    head: tuple[int, int, int]
    k: int
    t: int
    ones: int
    matches: bool


_ITEM_RE = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")

# Most terms a literal may expand to, counted before any list is built, so a
# short literal such as "1^10000000000" cannot exhaust memory.
MAX_TERMS = 1_000_000


def parse_notation(text: str) -> DegreeSequence:
    """Parse exponent notation (``"5^2,4^6"``) into a normalized sequence.

    A literal expanding to more than ``MAX_TERMS`` terms is refused.
    """
    if text is None or not text.strip():
        raise NotationError(text or "", "empty sequence literal")
    values: list[int] = []
    for item in text.split(","):
        m = _ITEM_RE.match(item)
        if m is None:
            raise NotationError(item.strip() or item, "malformed item")
        try:
            value = int(m.group(1))
            count = 1 if m.group(2) is None else int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise NotationError(item.strip(), "number too long") from None
        if count < 1:
            raise NotationError(item.strip(), "repeat count must be >= 1")
        if len(values) + count > MAX_TERMS:
            raise NotationError(item.strip(), f"literal has more than {MAX_TERMS} terms")
        values.extend([value] * count)
    return DegreeSequence.of(values)


def render_notation(seq: DegreeSequence) -> str:
    """Canonical exponent notation; inverse of :func:`parse_notation`."""
    parts = []
    for value, run in groupby(seq.terms):
        count = sum(1 for _ in run)
        parts.append(f"{value}^{count}" if count > 1 else str(value))
    return ",".join(parts)


def layoff(seq: DegreeSequence, k: int | None = None, raw: bool = False):
    """Lay off the k-th term (1-indexed, default the last) and return the
    residual sequence.

    If d_k >= k, the first d_k + 1 terms other than position k each lose one;
    otherwise the first d_k terms do.  Position k is removed and the rest
    re-sorted non-increasing.  By default zeros produced by the subtraction
    are stripped (and counted); with ``raw=True`` the re-sorted tuple is
    returned with zeros retained.
    """
    n = seq.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise IndexError(f"layoff index {k} out of range 1..{n}")
    terms = list(seq.terms)
    dk = terms[k - 1]
    if dk >= k:
        if dk + 1 > n:
            raise ValueError(f"cannot lay off position {k}: d_k = {dk} exceeds n - 1 = {n - 1}")
        touched = [i for i in range(dk + 1) if i != k - 1]
    else:
        touched = list(range(dk))
    for i in touched:
        terms[i] -= 1
    del terms[k - 1]
    terms.sort(reverse=True)
    if raw:
        return tuple(terms)
    return DegreeSequence.of(terms)


def _eg_ok(terms) -> bool:
    """Erdos-Gallai test on a non-increasing sequence of nonnegative ints.

    Checks even sum and, for every r, sum of the r largest terms <=
    r(r-1) + sum over the rest of min(term, r).
    """
    n = len(terms)
    total = 0
    for d in terms:
        total += d
    if total % 2:
        return False
    if n == 0:
        return True
    if terms[0] >= n:
        return False
    # suffix[i] = sum of terms[i:]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + terms[i]
    prefix = 0
    b = n  # first index with terms[b] < r; non-increasing as r grows
    for r in range(1, n + 1):
        prefix += terms[r - 1]
        while b > 0 and terms[b - 1] < r:
            b -= 1
        j = b if b > r else r
        # indices r..j-1 have value >= r, so min(.., r) = r there
        tail = r * (j - r) + suffix[j]
        if prefix > r * (r - 1) + tail:
            return False
    return True


def is_graphic_layoff(seq: DegreeSequence) -> bool:
    """Graphicality by repeatedly laying off the smallest term.

    The residual sequence is graphic iff the original is, so the recursion
    bottoms out at the empty sequence exactly for graphic inputs.
    """
    terms = list(seq.terms)
    while terms:
        dk = terms.pop()
        if dk > len(terms):
            return False
        for i in range(dk):
            terms[i] -= 1
        terms.sort(reverse=True)
        while terms and terms[-1] == 0:
            terms.pop()
    return True


def is_graphic(seq: DegreeSequence) -> bool:
    """True iff the sequence is the degree sequence of some simple graph."""
    return _eg_ok(seq.terms)


_LOW_DEGREE_EXCEPTIONS = ((3, 3, 3, 1), (3, 3, 1, 1))


def low_degree_graphic_guarantee(seq: DegreeSequence) -> bool:
    """Sufficient condition for graphicality when no term exceeds 3.

    True iff sigma is even, n >= 4, d1 <= 3 and the sequence is neither
    (3^3,1) nor (3^2,1^2).  Whenever it holds, the sequence is graphic.
    """
    if seq.n < 4 or not seq.sigma_even:
        return False
    if seq.terms[0] > 3:
        return False
    return seq.terms not in _LOW_DEGREE_EXCEPTIONS


# The 13 non-graphic sequences of the form (4^x,3^y,2^z,1^m) with even sum,
# n >= 5 and x >= 1, stored as (x, y, z, m).
_4321_NON_GRAPHIC = frozenset(
    {
        (1, 2, 0, 2),  # (4,3^2,1^2)
        (1, 1, 0, 3),  # (4,3,1^3)
        (2, 0, 1, 2),  # (4^2,2,1^2)
        (2, 1, 1, 1),  # (4^2,3,2,1)
        (3, 0, 0, 2),  # (4^3,1^2)
        (3, 0, 2, 0),  # (4^3,2^2)
        (3, 1, 0, 1),  # (4^3,3,1)
        (4, 0, 1, 0),  # (4^4,2)
        (2, 1, 0, 3),  # (4^2,3,1^3)
        (2, 0, 0, 4),  # (4^2,1^4)
        (3, 0, 1, 2),  # (4^3,2,1^2)
        (4, 0, 0, 2),  # (4^4,1^2)
        (3, 0, 0, 4),  # (4^3,1^4)
    }
)


def graphic_4321(x: int, y: int, z: int, m: int) -> bool | None:
    """Decide graphicality of (4^x,3^y,2^z,1^m) by table lookup.

    Applicable when the sum is even, x + y + z + m >= 5 and x >= 1; returns
    None otherwise.  When applicable, the sequence is graphic iff it is not
    one of the 13 tabulated exceptions.
    """
    if min(x, y, z, m) < 0:
        raise ValueError("multiplicities must be nonnegative")
    n = x + y + z + m
    total = 4 * x + 3 * y + 2 * z + m
    if total % 2 or n < 5 or x < 1:
        return None
    return (x, y, z, m) not in _4321_NON_GRAPHIC


def shape_of(seq: DegreeSequence) -> SequenceShape | None:
    """Positional (d1,d2,d3,3^k,2^t,1^...) decomposition; None when n < 3."""
    if seq.n < 3:
        return None
    head = (seq.terms[0], seq.terms[1], seq.terms[2])
    tail = seq.terms[3:]
    k = sum(1 for d in tail if d == 3)
    t = sum(1 for d in tail if d == 2)
    ones = sum(1 for d in tail if d == 1)
    matches = k + t + ones == len(tail)
    return SequenceShape(head=head, k=k, t=t, ones=ones, matches=matches)

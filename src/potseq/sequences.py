"""Degree sequences: exponent notation, graphicality tests, and the laying-off reduction.

A sequence literal is a comma-separated list of items, each ``r`` or ``r^t``
(``r`` repeated ``t`` times), e.g. ``"5^2,4^6"``.  ``r`` and ``t`` are runs of
decimal digits (any character for which ``str.isdecimal`` holds), ``t >= 1``,
and whitespace (``str.isspace``) may stand around each number and the ``^``.
Sequences are normalized to non-increasing order with zero terms stripped
(and counted), so every stored term is positive.

:func:`parse_notation` has two routes, and the literal alone picks one.  A
literal with no ``^``, ``+``, ``-`` or ``_`` and at most ``MAX_TERMS`` items
is read by ``int()`` on every comma item in one C-level pass.  Every other
literal, and every literal that pass refuses, goes through a per-item loop
that checks the grammar and names the first bad item.  The first route is
exact.  On a ``str``, ``int()`` accepts optional whitespace, an optional
sign, a run of ``str.isdecimal`` digits that single underscores may split,
and optional whitespace, and nothing else; its whitespace is ``str.isspace``
less the ASCII separators U+001C to U+001F, which it refuses.  So with no
sign or underscore in the literal, every item ``int()`` accepts is a plain
item of the grammar, and it returns the item's value.  Whatever it refuses,
a malformed item or one with more digits than the interpreter converts,
raises ``ValueError`` and the literal falls through to the loop; so both
routes give the same sequence, and every error and its token come from the
loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import neg
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
    ``_graphic`` holds the answer of :func:`is_graphic` once known (None
    until then).  It is a plain class attribute, not a field, so it takes
    no part in equality, hashing, ``repr`` or ``dataclasses.replace``, and
    ``__getstate__`` leaves it out of pickles.
    """

    terms: tuple[int, ...]
    stripped_zeros: int = field(default=0, compare=False)
    _graphic = None

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
            raise ValueError(f"negative term: {vals[-1]}")
        zeros = 0
        if vals and vals[-1] == 0:  # sorted, so any zero is last
            zeros = vals.count(0)
            del vals[-zeros:]
        return cls._trusted(tuple(vals), zeros)

    @classmethod
    def _trusted(
        cls, terms: tuple[int, ...], zeros: int = 0, graphic: bool | None = None
    ) -> "DegreeSequence":
        """Build from terms the caller knows are non-increasing and positive,
        skipping the check in ``__post_init__``.

        A caller that has just decided graphicality of exactly these terms
        (the enumeration behind ``enumerate_graphic_sequences`` and
        ``verify_range``'s shards) passes it as ``graphic``; it is stored as
        the answer :func:`is_graphic` returns.  Any other caller leaves it
        None."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "stripped_zeros", zeros)
        if graphic is not None:
            object.__setattr__(self, "_graphic", graphic)
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_graphic", None)
        return state

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


# Most terms a literal may expand to, counted before any list is built, so a
# short literal such as "1^10000000000" cannot exhaust memory.
MAX_TERMS = 1_000_000


def parse_notation(text: str) -> DegreeSequence:
    """Parse exponent notation (``"5^2,4^6"``) into a normalized sequence.

    Each comma item is ``r`` or ``r^t``, with optional whitespace around each
    number and the ``^`` (see the module docstring).  A literal with no
    ``^``, ``+``, ``-`` or ``_`` and at most ``MAX_TERMS`` items is read by
    ``int()`` on every item at once: with sign and underscore absent,
    ``int()`` accepts only plain items of the grammar and gives their
    values, and a ``ValueError`` sends the literal on to the per-item loop.
    The loop reads every other literal and reports the first bad item,
    checked in this order: malformed, number too long for ``int()``, repeat
    count below 1, and a running total of more than ``MAX_TERMS`` terms.
    """
    if text is None or not text.strip():
        raise NotationError(text or "", "empty sequence literal")
    plain = not ("^" in text or "+" in text or "-" in text or "_" in text)
    if plain and text.count(",") < MAX_TERMS:
        try:
            values = list(map(int, text.split(",")))
        except ValueError:  # some item is not plain; the loop names it
            pass
        else:
            return DegreeSequence.of(values)
    values = []
    for item in text.split(","):
        head, caret, tail = item.partition("^")
        head = head.strip()
        tail = tail.strip()
        if not head.isdecimal() or (caret and not tail.isdecimal()):
            raise NotationError(item.strip() or item, "malformed item")
        try:
            value = int(head)
            count = int(tail) if caret else 1
        except ValueError:  # more digits than int() converts
            raise NotationError(item.strip(), "number too long") from None
        if count < 1:
            raise NotationError(item.strip(), "repeat count must be >= 1")
        if len(values) + count > MAX_TERMS:
            raise NotationError(item.strip(), f"literal has more than {MAX_TERMS} terms")
        values.extend([value] * count)
    return DegreeSequence.of(values)


def render_notation(seq: DegreeSequence) -> str:
    """Canonical exponent notation; inverse of :func:`parse_notation`.

    Each run of equal terms is one item; its end is found by bisection.
    """
    terms = seq.terms
    n = len(terms)
    parts = []
    i = 0
    while i < n:
        value = terms[i]
        end = bisect_right(terms, -value, i, n, key=neg)
        count = end - i
        parts.append(f"{value}^{count}" if count > 1 else str(value))
        i = end
    return ",".join(parts)


def layoff(seq: DegreeSequence, k: int | None = None) -> DegreeSequence:
    """Lay off the k-th term (1-indexed, default the last) and return the
    residual sequence.

    If d_k >= k, the first d_k + 1 terms other than position k each lose one;
    otherwise the first d_k terms do.  Position k is removed and the rest
    re-sorted non-increasing.  Zeros produced by the subtraction are
    stripped (and counted).
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
    return DegreeSequence.of(terms)


def _eg_ok(terms) -> bool:
    """Erdos-Gallai test on a non-increasing sequence of nonnegative ints
    (a list or a tuple; zero terms are allowed).

    Checks even sum and, for every r, that the slack
    f(r) = r(r-1) + sum over i > r of min(d_i, r) - sum of the r largest terms
    is nonnegative.  Only a few r need testing:

    * Durfee index.  Once d_{r+1} <= r, every later term is at most r too, so
      f(r+1) - f(r) = 2r - 2 d_{r+1} >= 0, and this holds for every later r.
      The last r to test is therefore the Durfee index m, the largest r with
      d_r >= r.
    * Run ends (Tripathi and Vijay, Discrete Math. 2003).  For r < m,
      f(r+1) - f(r) = N(r+1) - d_{r+1} - 1, where N(x) counts the terms >= x.
      This does not increase while d_{r+1} stays the same, so f is concave
      over each run of equal terms and smallest at one of its ends.  If m is
      inside a run rather than at its end, the step into m is
      N(m) - m - 1 >= 0, so f does not decrease over that run up to m.
      The tested r are thus the ends of the runs that end at or before m.

    Run ends and counts of terms >= r come from ``bisect``; the terms below r
    are added up once each as r grows.

    Before the loop, an O(1) acceptance: by the theorem of Zverovich and
    Zverovich (Discrete Math. 105 (1992) 293-303), an even-sum sequence of n
    terms, all in [a, b] with a >= 1, is graphic when 4an >= (a + b + 1)^2.
    With a the smallest term and b the largest, the test only ever returns
    True, and only where the theorem proves it; every other sequence goes on
    to the loop, which decides it.  So the answer is the same as without it.
    """
    n = len(terms)
    if sum(terms) % 2:
        return False
    if n == 0:
        return True
    hi = terms[0]
    if hi >= n:  # d1 < n keeps every tested r below n
        return False
    lo = terms[-1]
    if lo and 4 * lo * n >= (lo + hi + 1) ** 2:
        return True
    prefix = 0  # sum of terms[:r]
    low = 0  # sum of terms[below:], the terms smaller than r
    below = n
    i = 0
    while True:
        value = terms[i]
        r = bisect_right(terms, -value, i, n, key=neg)  # end of the run
        if value < r:  # m < r, and f does not decrease from i (tested) to m
            return True
        prefix += value * (r - i)
        # terms[:r] are all >= r, and terms[below:] are below the last r
        first_low = bisect_right(terms, -r, r, below, key=neg)
        low += sum(terms[first_low:below])
        below = first_low
        if prefix > r * (r - 1) + r * (below - r) + low:
            return False
        i = r


def is_graphic_layoff(seq: DegreeSequence) -> bool:
    """Graphicality by repeatedly laying off the smallest term.

    The residual sequence is graphic iff the original is, so the recursion
    bottoms out at the empty sequence exactly for graphic inputs.  The
    sequence is kept as runs of equal terms, largest first, so each layoff
    edits a few runs instead of re-sorting every term.
    """
    runs = [[value, len(list(run))] for value, run in groupby(seq.terms)]
    n = seq.n
    while runs:
        smallest = runs[-1]
        dk = smallest[0]
        smallest[1] -= 1
        if not smallest[1]:
            runs.pop()
        n -= 1
        if dk > n:
            return False
        # the dk largest terms lose one: whole runs before index i ...
        i = 0
        for run in runs:
            if run[1] > dk:
                break
            dk -= run[1]
            run[0] -= 1
            i += 1
        # ... and dk terms of run i, which then sort after the rest of it
        if dk:
            run[1] -= dk
            if i + 1 < len(runs) and runs[i + 1][0] == run[0] - 1:
                runs[i + 1][1] += dk
            else:
                runs.insert(i + 1, [run[0] - 1, dk])
        if i and i < len(runs) and runs[i - 1][0] == runs[i][0]:
            runs[i - 1][1] += runs.pop(i)[1]
        if runs and not runs[-1][0]:
            n -= runs.pop()[1]
    return True


def is_graphic(seq: DegreeSequence) -> bool:
    """True iff the sequence is the degree sequence of some simple graph.

    Decided by :func:`_eg_ok` at most once per sequence: the answer is
    stored on the sequence (``DegreeSequence._graphic``) and returned by
    later calls.  ``DegreeSequence._trusted`` may store it in advance, for
    terms its caller has just proved graphic; :func:`is_graphic_layoff`
    never reads it."""
    graphic = seq._graphic
    if graphic is None:
        graphic = _eg_ok(seq.terms)
        object.__setattr__(seq, "_graphic", graphic)
    return graphic


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
    k = tail.count(3)
    t = tail.count(2)
    ones = tail.count(1)
    matches = k + t + ones == len(tail)
    return SequenceShape(head=head, k=k, t=t, ones=ones, matches=matches)

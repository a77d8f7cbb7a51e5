"""Closed-form deciders for potentially K6-C4- and K5-C4-graphic sequences.

A graphic sequence with at least 6 terms is potentially K6-C4-graphic iff

  (1)  d2 >= 5 and d6 >= 3;
  (2)  if every term after the third is at most 3, writing the sequence as
       (d1,d2,d3,3^k,2^t,1^m), then d1 + d2 + d3 <= n + 2k + t + 1;
  (2') it is none of F1 = (n-1,j^2,3^(j-1),1^(n-j-2)) for 5 <= j <= n-2,
       F2 = ((n-2)^3,3^(n-4),2) and S = (5^2,3^5,2,1);
  (3)  it is none of 23 fixed exceptional sequences (shipped as a data file)
       and belongs to neither family A = (n-1,5,3^5,1^(n-7)) nor
       B = (n-1,5,3^6,1^(n-8)).

The paper states (1)-(3).  Its counting bound (2) falls short on F1, F2 and
S, the smallest being (6,5^2,3^4): they pass it, yet no realization
contains the target.  The exhaustive oracle (search module) agrees with
this decider on every graphic sequence its sweeps cover.

Why (2').  In the shape case of (2) under (1), so k >= 3, put the two hubs
of the target (degree 5) on two of the first three vertices and the rest of
it on the third and on three tail 3s.  The other L = n-6 tail vertices
(a = k-3 threes, t twos, m ones) must take the head demands p, at most one
edge per pair, and realize what they keep among themselves: the residual
test R.  Claim: for a graphic sequence passing (1) and (2), R fails exactly
on F1, F2, S, A, B and 19 fixed sequences (one is F2 at n = 7), so past (3),
(2') is R.  Let D = d1+d2+d3-13 (the demand sum for every hub choice), cap3
= 3a+2t+m = n+2k+t-12 and s = cap3-D: (2) says s >= 0, parity makes s even.
If the tail vertices keep l_v (summing to s), z of them keep their whole
degree and y threes keep none, Gale-Ryser says p1 >= p2 >= p3 >= 0 embed
iff z <= L-p1 and y <= p3.
* Hubs d1, d2 give p = (d1-5,d2-5,d3-3), whose largest term is the smallest
  and smallest term the largest over the three choices, so it embeds
  whenever another does.  By (1), p3 >= 0.
* By Erdos-Gallai, terms in 1..3 with even sum are graphic unless they are
  bad: (2), (2,2), (3,1), (3,3), (3,2,1), (3,3,2), (3,3,1,1), (3,3,3,1).  So
  1^s, 2^x 1^w with w >= 2 and any five or more such terms are graphic.
* b1: p1 <= L (as z >= 0) fails iff d3 >= n-2.  Then s = 1-t-2m-#{i <= 3:
  di = n-1} >= 0 and the even sum leave F1 with j = n-2, and F2.
* b2: p3 >= a-s, i.e. p1+p2 <= 2a+2t+m (needed: s >= a-y >= a-p3).  Let b1
  hold and b2 fail.  p3 = d3-3 would give d1+d2 >= 2a+2t+m+11, against
  Erdos-Gallai at r = 2.  So p3 = d2-5, d1+d3 >= 2a+2t+m+9 and d1 <= n-1
  give d2 >= d3 >= a+t+4, and s >= 0 forces t = s = 0, d1 = n-1 and
  d2 = d3 = a+4 = j: F1 with j <= n-3.
* Let b1 and b2 hold.  These leftovers meet both bounds:
  - D >= L+a (s <= a+t): s vertices keep 1, 3s first, then 2s; z = 0,
    y = max(0, a-s) <= p3; leftover 1^s.
  - L <= D < L+a: each 1 keeps 0, each 2 keeps 1, each 3 keeps 1 or 2
    (x = s-a-t keep 2); z = y = 0; leftover 2^x 1^(2a+2t-s), which is bad
    only if t = 0 and s = 2a <= 4.  Then if m >= 1 and p1 < L, a 1 keeps 1
    instead of a 3 keeping 2: (1,1) or (2,1,1).  Otherwise the leftover is
    forced to (2), (2,2) or (3,1), and R fails:
    m = 0 gives n = a+6 and A, B, 5^2,4,3^4, 6^2,3^6, 6,5,4,3^5, 5^3,3^5;
    p1 = L, as L-p1 = min(d2+d3-8, d1+d2-10), gives A, B and 5^3,3^4,1.
  - D < L: lower D tail vertices by one (z = L-D <= L-p1, y = 0).  If
    D >= a+t, lower every 3 and 2 and D-a-t ones: 2^a 1^(s-2a), s-2a >= 2.
    Else lower 3s, then 2s; all L terms stay positive, so the leftover is
    graphic if L >= 5 and, if L <= 4 and D >= 2, it is (2,2,2), (2,1,1),
    (3,3,2,2) or four terms with at most one 3.  Left are D = 0, head
    (5,5,3), where the whole tail (3^a,2^t,1^m) is the leftover, and D = 1,
    heads (5,5,4) and (6,5,3), where it is the tail lowered at one vertex.
    R fails for the bad tails (D = 0: S and 7 fixed sequences) and for
    (3,2), (3,3,1), (3,3,3), all of whose lowerings are bad (D = 1: 6 fixed
    sequences).
The tests keep the search R as a reference and check this claim on every
shape-case sequence with n <= 16 (n <= 40 as an opt-in long test).

A graphic sequence with at least 5 terms is potentially K5-C4-graphic iff
d1 >= 4, d5 >= 2, and it is none of (4,2^5), (4,2^6), ((n-2)^2,2^(n-2)) and
(n-k,k+i,2^i,1^(n-i-2)) for i = 3..n-2k, k = 1..floor((n-1)/2)-1.

Verdicts report the first failed check in a fixed evaluation order:
graphic, length, condition (1), condition (2), condition (3) fixed list,
condition (3) families, condition (2').
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

from .sequences import (
    DegreeSequence,
    is_graphic,
    parse_notation,
    render_notation,
)

__all__ = [
    "Verdict",
    "ExceptionTable",
    "k6c4_exceptions",
    "decide_k6c4",
    "decide_k5c4",
    "sigma_formula_k6c4",
    "explain",
]

K6C4 = "K6-C4"
K5C4 = "K5-C4"


@dataclass(frozen=True)
class Verdict:
    """Decision plus a machine-readable reason code for the first failure.

    ``decision`` is "yes" iff ``reason`` is "OK".  Optional fields carry the
    numbers behind the reason: ``lhs``/``rhs`` for threshold failures
    (for ``TOO_SHORT``, n and the minimum length),
    ``exception_index``/``matched_exception`` for fixture hits, and
    ``family_k``/``family_i`` for the parameterized K5-C4 family.

    The deciders hand out one shared object for each verdict fixed by its
    target, reason, n and ``lhs`` (such as every ``OK`` at one n), so equal
    verdicts may be the same object: compare them with ``==``, never
    ``is``.  The class is frozen, so sharing is safe.
    """

    target: str
    decision: str
    reason: str
    n: int = 0
    matched_exception: str | None = None
    exception_index: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    family_k: int | None = None
    family_i: int | None = None

    def __post_init__(self) -> None:
        if (self.decision == "yes") != (self.reason == "OK"):
            raise ValueError(f"decision {self.decision!r} inconsistent with reason {self.reason!r}")

    @property
    def is_yes(self) -> bool:
        return self.decision == "yes"


@dataclass(frozen=True)
class ExceptionTable:
    """The fixed exceptional sequences of the K6-C4 characterization."""

    fixed: tuple[DegreeSequence, ...]
    index: dict[tuple[int, ...], int]  # terms -> position in ``fixed``

    @classmethod
    def load(cls) -> "ExceptionTable":
        text = resources.files("potseq.data").joinpath("k6c4_exceptions.txt").read_text()
        entries = tuple(parse_notation(line) for line in text.splitlines() if line.strip())
        index = {e.terms: i for i, e in enumerate(entries)}
        if len(index) != len(entries):
            raise ValueError("exception table has duplicate entries")
        for e in entries:
            if e.sigma % 2:
                raise ValueError(f"exception table entry has odd sum: {render_notation(e)}")
            if not is_graphic(e):
                raise ValueError(f"exception table entry is not graphic: {render_notation(e)}")
        return cls(entries, index)

    def match(self, seq: DegreeSequence) -> int | None:
        return self.index.get(seq.terms)


@cache
def k6c4_exceptions() -> ExceptionTable:
    return ExceptionTable.load()


# Verdicts fixed by (target, reason, n, lhs), built once and then shared.
# The deciders store only OK, NOT_GRAPHIC, COND2_RESIDUAL, TOO_SHORT and
# COND1_* here, whose lhs lies below 6, so the table holds a bounded number
# of verdicts per (target, n).
_SHARED: dict[tuple[str, str, int, int | None], Verdict] = {}


def _shared(target: str, reason: str, n: int, lhs: int | None = None, rhs: int | None = None) -> Verdict:
    """The one verdict for (target, reason, n, lhs); ``rhs`` must be fixed
    by the reason.  Built through the constructor, so it is checked."""
    key = (target, reason, n, lhs)
    verdict = _SHARED.get(key)
    if verdict is None:
        decision = "yes" if reason == "OK" else "no"
        verdict = _SHARED[key] = Verdict(target, decision, reason, n=n, lhs=lhs, rhs=rhs)
    return verdict


def _long_tail_family_terms(n: int, threes: int) -> tuple[int, ...]:
    """(n-1,5,3^threes,1^(n-2-threes)); longer than n, so matching no
    n-term sequence, when n < threes + 2."""
    return (n - 1, 5) + (3,) * threes + (1,) * (n - 2 - threes)


_SPORADIC = (5, 5, 3, 3, 3, 3, 3, 2, 1)  # S of condition (2')


def _residual_family(d: tuple[int, ...], n: int) -> bool:
    """Is ``d`` in F1, F2 or S of condition (2')?  The cheap fields d2 = d3
    and d1 fix the family and j; only a candidate builds a tuple."""
    j = d[1]
    if d[2] != j:
        return d == _SPORADIC
    if d[0] == n - 1:
        return 5 <= j <= n - 2 and d == (n - 1, j, j) + (3,) * (j - 1) + (1,) * (n - j - 2)
    return d[0] == j == n - 2 and d == (j, j, j) + (3,) * (n - 4) + (2,)


def decide_k6c4(seq: DegreeSequence) -> Verdict:
    """Decide whether ``seq`` is potentially K6-C4-graphic."""
    n = seq.n
    if not is_graphic(seq):
        return _shared(K6C4, "NOT_GRAPHIC", n)
    if n < 6:
        return _shared(K6C4, "TOO_SHORT", n, n, 6)
    d = seq.terms
    if d[1] < 5:
        return _shared(K6C4, "COND1_D2", n, d[1], 5)
    if d[5] < 3:
        return _shared(K6C4, "COND1_D6", n, d[5], 3)
    if d[3] <= 3:  # the shape case: every term after the third is 1, 2 or 3
        # d1, d2 >= 5 and d3 >= d6 >= 3, so of the head only d3 can be a 3
        # and none is a 2: k and t count the tail alone
        head_sum = d[0] + d[1] + d[2]
        bound = n + 2 * (d.count(3) - (d[2] == 3)) + d.count(2) + 1
        if head_sum > bound:
            return Verdict(K6C4, "no", "COND2_SUM", n=n, lhs=head_sum, rhs=bound)
    table = k6c4_exceptions()
    idx = table.match(seq)
    if idx is not None:
        return Verdict(
            K6C4,
            "no",
            "COND3_FIXED",
            n=n,
            exception_index=idx,
            matched_exception=render_notation(table.fixed[idx]),
        )
    if d[0] == n - 1 and d[1] == 5:  # the head of both families
        if d == _long_tail_family_terms(n, 5):
            return Verdict(K6C4, "no", "COND3_FAMILY_A", n=n, matched_exception=render_notation(seq))
        if d == _long_tail_family_terms(n, 6):
            return Verdict(K6C4, "no", "COND3_FAMILY_B", n=n, matched_exception=render_notation(seq))
    if _residual_family(d, n):
        return _shared(K6C4, "COND2_RESIDUAL", n)
    return _shared(K6C4, "OK", n)


def _k5c4_family_terms(n: int, k: int, i: int) -> tuple[int, ...]:
    """(n-k,k+i,2^i,1^(n-i-2)); non-increasing for every admissible (k, i)."""
    return (n - k, k + i) + (2,) * i + (1,) * (n - i - 2)


_K5C4_FIXED = {(4, 2, 2, 2, 2, 2): 0, (4, 2, 2, 2, 2, 2, 2): 1}  # terms -> exception_index


def decide_k5c4(seq: DegreeSequence) -> Verdict:
    """Decide whether ``seq`` is potentially K5-C4-graphic."""
    n = seq.n
    if not is_graphic(seq):
        return _shared(K5C4, "NOT_GRAPHIC", n)
    if n < 5:
        return _shared(K5C4, "TOO_SHORT", n, n, 5)
    d = seq.terms
    if d[0] < 4:
        return _shared(K5C4, "COND1_D1", n, d[0], 4)
    if d[4] < 2:
        return _shared(K5C4, "COND1_D5", n, d[4], 2)
    idx = _K5C4_FIXED.get(d)
    if idx is not None:
        return Verdict(
            K5C4,
            "no",
            "COND2_FIXED",
            n=n,
            exception_index=idx,
            matched_exception=render_notation(seq),
        )
    if d[0] == d[1] == n - 2 and d == (n - 2, n - 2) + (2,) * (n - 2):
        return Verdict(K5C4, "no", "COND2_FAMILY_SQUARE", n=n, matched_exception=render_notation(seq))
    # a family member fixes k by d1 and then i by d2
    k = n - d[0]
    i = d[1] - k
    if 1 <= k < (n - 1) // 2 and 3 <= i <= n - 2 * k and d == _k5c4_family_terms(n, k, i):
        return Verdict(
            K5C4,
            "no",
            "COND2_FAMILY_KI",
            n=n,
            family_k=k,
            family_i=i,
            matched_exception=render_notation(seq),
        )
    return _shared(K5C4, "OK", n)


def sigma_formula_k6c4(n: int) -> int:
    """Smallest even s such that every n-term positive graphic sequence with
    sum >= s is potentially K6-C4-graphic: 6n - 10."""
    if n < 6:
        raise ValueError(f"formula requires n >= 6, got {n}")
    return 6 * n - 10


_EXPLANATIONS = {
    "OK": "potentially {target}-graphic",
    "NOT_GRAPHIC": "not graphic",
    "TOO_SHORT": "too short: n = {lhs} < {rhs}",
    "COND1_D2": "fails condition (1): d2 = {lhs} < {rhs}",
    "COND1_D6": "fails condition (1): d6 = {lhs} < {rhs}",
    "COND2_SUM": "fails condition (2): d1+d2+d3 = {lhs} > n+2k+t+1 = {rhs}",
    "COND2_RESIDUAL": "fails condition (2) in exact residual form: head demand has no tail embedding",
    "COND3_FIXED": "matches exception ({matched_exception})",
    "COND3_FAMILY_A": "matches exception family (n-1,5,3^5,1^(n-7)) at n = {n}",
    "COND3_FAMILY_B": "matches exception family (n-1,5,3^6,1^(n-8)) at n = {n}",
    "COND1_D1": "fails condition (1): d1 = {lhs} < {rhs}",
    "COND1_D5": "fails condition (1): d5 = {lhs} < {rhs}",
    "COND2_FIXED": "matches exception ({matched_exception})",
    "COND2_FAMILY_SQUARE": "matches exception family ((n-2)^2,2^(n-2)) at n = {n}",
    "COND2_FAMILY_KI": (
        "matches exception family (n-k,k+i,2^i,1^(n-i-2)) with k = {family_k}, i = {family_i}"
    ),
}


def explain(verdict: Verdict) -> str:
    """One-line human-readable explanation; stable strings for snapshots."""
    v = verdict
    template = _EXPLANATIONS.get(v.reason)
    if template is None:
        raise ValueError(f"unknown reason code {v.reason!r}")
    # named fields, not vars(v): vars() materializes a __dict__ on each
    # Verdict, which raises the memory of every verdict a caller keeps
    return template.format(
        target=v.target,
        n=v.n,
        lhs=v.lhs,
        rhs=v.rhs,
        matched_exception=v.matched_exception,
        family_k=v.family_k,
        family_i=v.family_i,
    )

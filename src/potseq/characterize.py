"""Closed-form deciders for potentially K6-C4- and K5-C4-graphic sequences.

A graphic sequence with at least 6 terms is potentially K6-C4-graphic iff

  (1) d2 >= 5 and d6 >= 3;
  (2) if every term after the third is at most 3, writing the sequence as
      (d1,d2,d3,3^k,2^t,1^...), then d1 + d2 + d3 <= n + 2k + t + 1;
  (3) it is none of 23 fixed exceptional sequences (shipped as a data file)
      and belongs to neither family (n-1,5,3^5,1^(n-7)) nor
      (n-1,5,3^6,1^(n-8));
  (2') in the shape case of (2), for some choice of two hub positions among
      the first three terms (hub degree >= 5), the head demands left after
      placing the target on the six largest-degree vertices embed into the
      tail: a simple bipartite graph from the three head vertices (demands
      d-5, d-5, d-3) into the tail vertices (at most one edge per pair,
      tail vertex capacity = its degree) must exist whose unused tail
      capacities form a graphic sequence.

Condition (2') is the exact form of the counting bound (2); the count alone
admits a handful of boundary sequences, the smallest being (6,5^2,3^4), that
have no realization containing the target.  The exhaustive oracle
(search module) adjudicates: decider and oracle agree on every graphic
sequence the sweeps cover.

A graphic sequence with at least 5 terms is potentially K5-C4-graphic iff
d1 >= 4, d5 >= 2, and it is none of (4,2^5), (4,2^6), ((n-2)^2,2^(n-2)) and
(n-k,k+i,2^i,1^(n-i-2)) for i = 3..n-2k, k = 1..floor((n-1)/2)-1.

Verdicts report the first failed check in a fixed evaluation order:
graphic, length, condition (1), count form of (2), condition (3) fixed
list, condition (3) families, exact form (2').
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .sequences import (
    DegreeSequence,
    _eg_ok,
    is_graphic,
    parse_notation,
    render_notation,
    shape_of,
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


_table: ExceptionTable | None = None


def k6c4_exceptions() -> ExceptionTable:
    global _table
    if _table is None:
        _table = ExceptionTable.load()
    return _table


def _long_tail_family_terms(n: int, threes: int) -> tuple[int, ...]:
    """(n-1,5,3^threes,1^(n-2-threes)); longer than n, so matching no
    n-term sequence, when n < threes + 2."""
    return (n - 1, 5) + (3,) * threes + (1,) * (n - 2 - threes)


def _residual_embeddable(p: tuple[int, int, int], threes: int, twos: int, ones: int) -> bool:
    """Can head demands ``p`` be met by a simple bipartite graph into a tail
    of ``threes``/``twos``/``ones`` vertices, leaving a graphic remainder?

    Each tail vertex can send at most one edge to each head vertex and at
    most its capacity in total; the unused capacities must themselves form
    a graphic sequence (they are realized among the tail vertices).
    """
    p = tuple(sorted(p, reverse=True))
    if p[-1] < 0:
        return False
    cap1 = threes + twos + ones
    cap2 = 2 * threes + 2 * twos + ones
    cap3 = 3 * threes + 2 * twos + ones
    demand = sum(p)
    if p[0] > cap1 or p[0] + p[1] > cap2 or demand > cap3:
        return False
    slack = cap3 - demand
    if slack >= 12:
        # any transportation solution leaves a sum->=12 remainder with terms
        # <= 3 and even sum, which is always graphic
        return True
    # small remainder: enumerate how much capacity each tail class keeps
    for x3 in range(min(threes, slack // 3) + 1):
        for x2 in range(min(threes - x3, (slack - 3 * x3) // 2) + 1):
            for x1 in range(min(threes - x3 - x2, slack - 3 * x3 - 2 * x2) + 1):
                rest3 = slack - 3 * x3 - 2 * x2 - x1
                for y2 in range(min(twos, rest3 // 2) + 1):
                    for y1 in range(min(twos - y2, rest3 - 2 * y2) + 1):
                        z1 = rest3 - 2 * y2 - y1
                        if z1 > ones:
                            continue
                        leftover = (3,) * x3 + (2,) * (x2 + y2) + (1,) * (x1 + y1 + z1)
                        if not _eg_ok(leftover):
                            continue
                        # used capacities q = degree - leftover, by count
                        q3 = threes - x3 - x2 - x1
                        q2 = x1 + (twos - y2 - y1)
                        q1 = x2 + y1 + (ones - z1)
                        s1 = q3 + q2 + q1
                        s2 = 2 * q3 + 2 * q2 + q1
                        if p[0] <= s1 and p[0] + p[1] <= s2:
                            return True
    return False


def _shape_case_potential(d: tuple[int, ...], k: int, t: int, ones: int) -> bool:
    """Exact decision for shape-matching sequences passing condition (1):
    try every hub pair among the first three positions."""
    d1, d2, d3 = d[0], d[1], d[2]
    if k < 3:
        raise AssertionError("shape case with d6 >= 3 must have k >= 3")
    choices = [(d1 - 5, d2 - 5, d3 - 3)]
    if d3 >= 5:
        choices.append((d1 - 5, d3 - 5, d2 - 3))
        choices.append((d2 - 5, d3 - 5, d1 - 3))
    return any(_residual_embeddable(p, k - 3, t, ones) for p in choices)


def decide_k6c4(seq: DegreeSequence) -> Verdict:
    """Decide whether ``seq`` is potentially K6-C4-graphic."""
    n = seq.n
    if not is_graphic(seq):
        return Verdict(K6C4, "no", "NOT_GRAPHIC", n=n)
    if n < 6:
        return Verdict(K6C4, "no", "TOO_SHORT", n=n, lhs=n, rhs=6)
    d = seq.terms
    if d[1] < 5:
        return Verdict(K6C4, "no", "COND1_D2", n=n, lhs=d[1], rhs=5)
    if d[5] < 3:
        return Verdict(K6C4, "no", "COND1_D6", n=n, lhs=d[5], rhs=3)
    shape = shape_of(seq)
    if shape is not None and shape.matches:
        head_sum = sum(shape.head)
        bound = n + 2 * shape.k + shape.t + 1
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
    if shape is not None and shape.matches:
        if not _shape_case_potential(d, shape.k, shape.t, shape.ones):
            return Verdict(K6C4, "no", "COND2_RESIDUAL", n=n)
    return Verdict(K6C4, "yes", "OK", n=n)


def _k5c4_family_terms(n: int, k: int, i: int) -> tuple[int, ...]:
    """(n-k,k+i,2^i,1^(n-i-2)); non-increasing for every admissible (k, i)."""
    return (n - k, k + i) + (2,) * i + (1,) * (n - i - 2)


def decide_k5c4(seq: DegreeSequence) -> Verdict:
    """Decide whether ``seq`` is potentially K5-C4-graphic."""
    n = seq.n
    if not is_graphic(seq):
        return Verdict(K5C4, "no", "NOT_GRAPHIC", n=n)
    if n < 5:
        return Verdict(K5C4, "no", "TOO_SHORT", n=n, lhs=n, rhs=5)
    d = seq.terms
    if d[0] < 4:
        return Verdict(K5C4, "no", "COND1_D1", n=n, lhs=d[0], rhs=4)
    if d[4] < 2:
        return Verdict(K5C4, "no", "COND1_D5", n=n, lhs=d[4], rhs=2)
    for idx, fixed in enumerate(((4, 2, 2, 2, 2, 2), (4, 2, 2, 2, 2, 2, 2))):
        if d == fixed:
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
    return Verdict(K5C4, "yes", "OK", n=n)


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

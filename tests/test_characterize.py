import hashlib
import os
from importlib import resources

import pytest

from potseq.characterize import (
    ExceptionTable,
    Verdict,
    decide_k5c4,
    decide_k6c4,
    explain,
    k6c4_exceptions,
    sigma_formula_k6c4,
)
from potseq.search import EmbeddingFailure, realize_with_k6c4
from potseq.sequences import DegreeSequence, _eg_ok, parse_notation, render_notation

# Guards the shipped fixture file against transcription drift.
EXCEPTIONS_SHA256 = "7687043b56c934666ab7812229defb04c16d256bcdf23f0058cadd0d42744720"

RUN_LONG = bool(os.environ.get("POTSEQ_RUN_LONG"))


def seq(text):
    return parse_notation(text)


# --- verdict type -----------------------------------------------------------


def test_verdict_decision_matches_reason():
    with pytest.raises(ValueError):
        Verdict("K6-C4", "yes", "COND1_D2")
    with pytest.raises(ValueError):
        Verdict("K6-C4", "no", "OK")


# --- exception table --------------------------------------------------------


def test_exception_table_has_23_distinct_entries():
    table = k6c4_exceptions()
    assert len(table.fixed) == 23
    assert len({e.terms for e in table.fixed}) == 23


def test_exception_table_checksum():
    data = resources.files("potseq.data").joinpath("k6c4_exceptions.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXCEPTIONS_SHA256


def test_exception_table_order_and_ends():
    table = k6c4_exceptions()
    assert render_notation(table.fixed[0]) == "5^2,4^6"
    assert render_notation(table.fixed[22]) == "5^2,3^5,1"


def test_exception_match_index():
    table = k6c4_exceptions()
    assert table.match(seq("6^2,3^6")) == 2
    assert table.match(seq("5^6")) is None


# --- K6-C4 decider ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,decision,reason",
    [
        ("5^2,4^5", "yes", "OK"),
        ("5^2,4^8", "yes", "OK"),
        ("5^2,4^6", "no", "COND3_FIXED"),
        ("5^2,4^7", "no", "COND3_FIXED"),
        ("6^3,3^4", "no", "COND2_SUM"),
        ("4^6", "no", "COND1_D2"),
        ("5^2,3^2,2^2", "no", "COND1_D6"),
        ("8,5,3^7", "yes", "OK"),
        ("6,5,3^5", "no", "COND3_FAMILY_A"),
        ("8,5,3^5,1^2", "no", "COND3_FAMILY_A"),
        ("7,5,3^6", "no", "COND3_FAMILY_B"),
        ("8,5,3^6,1", "no", "COND3_FAMILY_B"),
        ("3^3,1", "no", "NOT_GRAPHIC"),
        ("5,4,3,2,1,1", "no", "NOT_GRAPHIC"),
        ("2^3", "no", "TOO_SHORT"),
        ("2^3,0^3", "no", "TOO_SHORT"),
        # boundary sequences beyond the counting bound, caught by the exact
        # residual form of condition (2)
        ("6,5^2,3^4", "no", "COND2_RESIDUAL"),
        ("7,6^2,3^5", "no", "COND2_RESIDUAL"),
        ("7,5^2,3^4,1", "no", "COND2_RESIDUAL"),
        ("6^3,3^4,2", "no", "COND2_RESIDUAL"),
        ("7,5^2,3^5", "yes", "OK"),
        # S, and F1 with 5 < j < n-2
        ("5^2,3^5,2,1", "no", "COND2_RESIDUAL"),
        ("9,6^2,3^5,1^2", "no", "COND2_RESIDUAL"),
        # F2 at n=7 is in the fixed table, which is checked first
        ("5^3,3^3,2", "no", "COND3_FIXED"),
        # near misses of F1 and S
        ("8,6^2,3^5,2,1", "yes", "OK"),
        ("9,6^2,3^6,1", "yes", "OK"),
        ("9,6^2,3^4,2^2,1", "yes", "OK"),
    ],
)
def test_decide_k6c4(text, decision, reason):
    v = decide_k6c4(seq(text))
    assert (v.decision, v.reason) == (decision, reason)


def test_decide_k6c4_cond2_numbers():
    v = decide_k6c4(seq("6^3,3^4"))
    assert (v.lhs, v.rhs) == (18, 16)


def test_too_short_carries_length_and_minimum():
    v6, v5 = decide_k6c4(seq("2^3")), decide_k5c4(seq("3^4"))
    assert (v6.lhs, v6.rhs, v5.lhs, v5.rhs) == (3, 6, 4, 5)


def test_decide_k6c4_fixed_carries_index_and_notation():
    v = decide_k6c4(seq("5^2,4^6"))
    assert v.exception_index == 0
    assert v.matched_exception == "5^2,4^6"


def test_base_case_n6_accepted_set():
    expected = {
        "5^6",
        "5^4,4^2",
        "5^3,4^2,3",
        "5^2,4^4",
        "5^2,4^2,3^2",
        "5^2,3^4",
    }
    got = set()
    from potseq.search import enumerate_graphic_sequences

    for s in enumerate_graphic_sequences(6):
        if decide_k6c4(s).is_yes:
            got.add(render_notation(s))
    assert got == expected


# --- condition (2') against the residual search it replaced ----------------


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


def reference_shape_case_potential(d: tuple[int, ...], k: int, t: int, ones: int) -> bool:
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


def _shape_case_candidates(lo: int, hi: int):
    """Every even-sum (d1,d2,d3,3^k,2^t,1^m) with lo <= n <= hi that passes
    condition (1) and the counting bound (2), with its (k, t, m)."""
    for n in range(lo, hi + 1):
        for k in range(3, n - 2):
            for t in range(n - 2 - k):
                m = n - 3 - k - t
                tail = (3,) * k + (2,) * t + (1,) * m
                bound = n + 2 * k + t + 1
                for d1 in range(5, n):
                    for d2 in range(5, min(d1, bound - d1 - 3) + 1):
                        # d3 >= 3 with the parity that makes the sum even
                        start = 3 + (d1 + d2 + 3 + k + m) % 2
                        for d3 in range(start, min(d2, bound - d1 - d2) + 1, 2):
                            yield (d1, d2, d3) + tail, k, t, m


def _check_closed_form_against_reference(lo: int, hi: int) -> int:
    """decide_k6c4 says COND2_RESIDUAL iff the search rejects, on every graphic
    candidate that the fixed table and families A/B leave; returns their count."""
    checked = 0
    for terms, k, t, m in _shape_case_candidates(lo, hi):
        reason = decide_k6c4(DegreeSequence(terms)).reason
        if reason == "NOT_GRAPHIC" or reason.startswith("COND3_"):
            continue
        checked += 1
        assert reason in ("OK", "COND2_RESIDUAL"), terms
        assert (reason == "COND2_RESIDUAL") == (not reference_shape_case_potential(terms, k, t, m)), terms
    return checked


def _residual_family_members(hi: int):
    """F1, F2 (n = 7 included) and S of condition (2'), for n <= hi."""
    for n in range(7, hi + 1):
        for j in range(5, n - 1):
            yield (n - 1, j, j) + (3,) * (j - 1) + (1,) * (n - j - 2)
        yield (n - 2,) * 3 + (3,) * (n - 4) + (2,)
    yield (5, 5, 3, 3, 3, 3, 3, 2, 1)


def test_cond2_closed_form_matches_reference_through_n16():
    assert _check_closed_form_against_reference(6, 16) == 26912


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=17..40 sweep")
def test_cond2_closed_form_matches_reference_n17_to_40():
    assert _check_closed_form_against_reference(17, 40) == 14227226


def test_cond2_family_members_have_no_embedding():
    # the realizer's completion engine shares no code with the residual search
    members = list(_residual_family_members(40))
    assert len(members) == 630
    for terms in members:
        with pytest.raises(EmbeddingFailure):
            realize_with_k6c4(DegreeSequence(terms), unchecked=True)


# --- K5-C4 decider ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,decision,reason",
    [
        ("4,2^5", "no", "COND2_FIXED"),
        ("4,2^6", "no", "COND2_FIXED"),
        ("4,2^7", "yes", "OK"),
        ("4^2,2^4", "no", "COND2_FAMILY_SQUARE"),
        ("5^2,2^5", "no", "COND2_FAMILY_SQUARE"),
        ("4^5", "yes", "OK"),
        ("3^4,2", "no", "COND1_D1"),
        ("4,2^2,1^2", "no", "COND1_D5"),
        ("3^4", "no", "TOO_SHORT"),
        ("5,4,2^3,1", "no", "COND2_FAMILY_KI"),
        ("5,5,2^4", "no", "COND2_FAMILY_KI"),
        # family miss at n=7: decided yes, confirmed by the exhaustive oracle
        ("4,4,2^3,1^2", "yes", "OK"),
    ],
)
def test_decide_k5c4(text, decision, reason):
    v = decide_k5c4(seq(text))
    assert (v.decision, v.reason) == (decision, reason)


def test_decide_k5c4_family_parameters():
    v = decide_k5c4(seq("5,4,2^3,1"))
    assert (v.family_k, v.family_i) == (1, 3)
    v = decide_k5c4(seq("5,5,2^4"))
    assert (v.family_k, v.family_i) == (1, 4)


def test_decide_k5c4_every_family_member():
    # (n-k,k+i,2^i,1^(n-i-2)) for i = 3..n-2k, k = 1..floor((n-1)/2)-1
    for n in range(5, 41):
        for k in range(1, (n - 1) // 2):
            for i in range(3, n - 2 * k + 1):
                terms = (n - k, k + i) + (2,) * i + (1,) * (n - i - 2)
                v = decide_k5c4(DegreeSequence(terms))
                assert (v.reason, v.family_k, v.family_i) == ("COND2_FAMILY_KI", k, i), terms
                if n - i - 2 >= 2:
                    raised = tuple(sorted(terms[:-2] + (2, 2), reverse=True))
                    assert decide_k5c4(DegreeSequence(raised)).reason != "COND2_FAMILY_KI", raised


# --- sigma formula ----------------------------------------------------------


@pytest.mark.parametrize("n,value", [(6, 26), (7, 32), (10, 50), (100, 590)])
def test_sigma_formula(n, value):
    assert sigma_formula_k6c4(n) == value


def test_sigma_formula_domain():
    with pytest.raises(ValueError):
        sigma_formula_k6c4(5)


# --- explain ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,target,line",
    [
        ("6^3,3^4", "k6", "fails condition (2): d1+d2+d3 = 18 > n+2k+t+1 = 16"),
        ("5^2,4^6", "k6", "matches exception (5^2,4^6)"),
        ("5^2,4^5", "k6", "potentially K6-C4-graphic"),
        ("4^6", "k6", "fails condition (1): d2 = 4 < 5"),
        ("5^2,3^2,2^2", "k6", "fails condition (1): d6 = 2 < 3"),
        ("3^3,1", "k6", "not graphic"),
        ("2^3", "k6", "too short: n = 3 < 6"),
        ("6,5,3^5", "k6", "matches exception family (n-1,5,3^5,1^(n-7)) at n = 7"),
        ("7,5,3^6", "k6", "matches exception family (n-1,5,3^6,1^(n-8)) at n = 8"),
        (
            "6,5^2,3^4",
            "k6",
            "fails condition (2) in exact residual form: head demand has no tail embedding",
        ),
        ("4^5", "k5", "potentially K5-C4-graphic"),
        ("3^3,1", "k5", "not graphic"),
        ("3^4", "k5", "too short: n = 4 < 5"),
        ("3^4,2", "k5", "fails condition (1): d1 = 3 < 4"),
        ("4,2^2,1^2", "k5", "fails condition (1): d5 = 1 < 2"),
        ("4,2^5", "k5", "matches exception (4,2^5)"),
        ("4^2,2^4", "k5", "matches exception family ((n-2)^2,2^(n-2)) at n = 6"),
        (
            "5,4,2^3,1",
            "k5",
            "matches exception family (n-k,k+i,2^i,1^(n-i-2)) with k = 1, i = 3",
        ),
    ],
)
def test_explain_snapshots(text, target, line):
    decide = decide_k6c4 if target == "k6" else decide_k5c4
    assert explain(decide(seq(text))) == line


def test_explain_rejects_unknown_reason():
    with pytest.raises(ValueError):
        explain(Verdict("K6-C4", "no", "NO_SUCH_REASON"))

import dataclasses
import hashlib
import os
import pickle
import random
from collections import Counter
from importlib import resources

import pytest

from potseq import characterize
from potseq.characterize import (
    ExceptionTable,
    Verdict,
    decide_k5c4,
    decide_k6c4,
    explain,
    k6c4_exceptions,
    sigma_formula_k6c4,
)
from potseq.search import _place_km_c4, enumerate_graphic_sequences
from potseq.sequences import DegreeSequence, _eg_ok, is_graphic, parse_notation, render_notation, shape_of

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


@pytest.mark.parametrize(
    "text,message",
    [
        ("5^6\n5^6\n", "exception table has duplicate entries"),
        ("5^6\n3^3\n", "exception table entry has odd sum: 3\\^3"),
        ("5^6\n3^3,1\n", "exception table entry is not graphic: 3\\^3,1"),
    ],
)
def test_exception_table_refuses_a_bad_entry(monkeypatch, tmp_path, text, message):
    (tmp_path / "k6c4_exceptions.txt").write_text(text)
    monkeypatch.setattr(characterize.resources, "files", lambda package: tmp_path)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExceptionTable.load()


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
        assert _place_km_c4(terms, 6) is None, terms


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


# --- shared verdicts against per-call construction --------------------------


def reference_decide_k6c4(s: DegreeSequence) -> Verdict:
    """decide_k6c4 as it was before verdicts were shared: a fresh Verdict on
    every call, and condition (2) read from shape_of."""
    n = s.n
    if not is_graphic(s):
        return Verdict("K6-C4", "no", "NOT_GRAPHIC", n=n)
    if n < 6:
        return Verdict("K6-C4", "no", "TOO_SHORT", n=n, lhs=n, rhs=6)
    d = s.terms
    if d[1] < 5:
        return Verdict("K6-C4", "no", "COND1_D2", n=n, lhs=d[1], rhs=5)
    if d[5] < 3:
        return Verdict("K6-C4", "no", "COND1_D6", n=n, lhs=d[5], rhs=3)
    shape = shape_of(s)
    if shape is not None and shape.matches:
        head_sum = sum(shape.head)
        bound = n + 2 * shape.k + shape.t + 1
        if head_sum > bound:
            return Verdict("K6-C4", "no", "COND2_SUM", n=n, lhs=head_sum, rhs=bound)
    table = k6c4_exceptions()
    idx = table.match(s)
    if idx is not None:
        exception = render_notation(table.fixed[idx])
        return Verdict("K6-C4", "no", "COND3_FIXED", n=n, exception_index=idx, matched_exception=exception)
    for reason, threes in (("COND3_FAMILY_A", 5), ("COND3_FAMILY_B", 6)):
        if d == (n - 1, 5) + (3,) * threes + (1,) * (n - 2 - threes):
            return Verdict("K6-C4", "no", reason, n=n, matched_exception=render_notation(s))
    if characterize._residual_family(d, n):
        return Verdict("K6-C4", "no", "COND2_RESIDUAL", n=n)
    return Verdict("K6-C4", "yes", "OK", n=n)


def reference_decide_k5c4(s: DegreeSequence) -> Verdict:
    """decide_k5c4 before verdicts were shared: fresh Verdicts, and a loop
    over the two fixed exceptions."""
    n = s.n
    if not is_graphic(s):
        return Verdict("K5-C4", "no", "NOT_GRAPHIC", n=n)
    if n < 5:
        return Verdict("K5-C4", "no", "TOO_SHORT", n=n, lhs=n, rhs=5)
    d = s.terms
    if d[0] < 4:
        return Verdict("K5-C4", "no", "COND1_D1", n=n, lhs=d[0], rhs=4)
    if d[4] < 2:
        return Verdict("K5-C4", "no", "COND1_D5", n=n, lhs=d[4], rhs=2)
    for idx, fixed in enumerate(((4, 2, 2, 2, 2, 2), (4, 2, 2, 2, 2, 2, 2))):
        if d == fixed:
            exception = render_notation(s)
            return Verdict(
                "K5-C4", "no", "COND2_FIXED", n=n, exception_index=idx, matched_exception=exception
            )
    if d[0] == d[1] == n - 2 and d == (n - 2, n - 2) + (2,) * (n - 2):
        return Verdict("K5-C4", "no", "COND2_FAMILY_SQUARE", n=n, matched_exception=render_notation(s))
    k = n - d[0]
    i = d[1] - k
    if 1 <= k < (n - 1) // 2 and 3 <= i <= n - 2 * k and d == (n - k, k + i) + (2,) * i + (1,) * (n - i - 2):
        exception = render_notation(s)
        return Verdict(
            "K5-C4", "no", "COND2_FAMILY_KI", n=n, family_k=k, family_i=i, matched_exception=exception
        )
    return Verdict("K5-C4", "yes", "OK", n=n)


def _check_style_literals(seed: int, count: int):
    """Seeded literals of the kinds `potseq check` sees: G(n,p) degree lists
    (unsorted, zeros kept), shape-case sequences near the condition (2)
    bound, K5-C4 family members and near misses, and perturbed sums."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        roll = rng.random()
        if roll < 0.4:
            p = min(1.0, rng.uniform(0.5, 12.0) / max(n - 1, 1))
            deg = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        deg[u] += 1
                        deg[v] += 1
            if roll < 0.1:
                deg[rng.randrange(n)] += 1
            yield ",".join(map(str, deg))
            continue
        if roll < 0.8 and n >= 7:
            k = rng.randint(0, n - 3)
            t = rng.randint(0, n - 3 - k)
            d3 = rng.choice((3, 3, rng.randint(1, n - 1)))
            d2 = rng.randint(d3, n - 1)
            d1 = max(d2, n + 2 * k + t + 1 + rng.randint(-4, 3) - d2 - d3)
            terms = (d1, d2, d3) + (3,) * k + (2,) * t + (1,) * (n - 3 - k - t)
        elif n >= 7:
            k = rng.randint(1, (n - 1) // 2 - 1)
            i = rng.randint(3, n - 2 * k)
            terms = (n - k, k + i + rng.randint(0, 1)) + (2,) * i + (1,) * (n - i - 2)
        else:
            terms = (4,) + (2,) * rng.randint(4, 7)
        yield render_notation(DegreeSequence.of(terms))


def _differential_inputs():
    for n in range(1, 11):
        yield from enumerate_graphic_sequences(n)
    for text in _check_style_literals(2026, 6000):
        yield parse_notation(text)


def test_deciders_match_per_call_construction():
    checked = set()
    for s in _differential_inputs():
        for decide, reference in ((decide_k6c4, reference_decide_k6c4), (decide_k5c4, reference_decide_k5c4)):
            got, want = decide(s), reference(s)
            assert dataclasses.astuple(got) == dataclasses.astuple(want), render_notation(s)
            assert explain(got) == explain(want)
            checked.add((got.target, got.reason))
    # every reason code fires: 10 for K6-C4, 8 for K5-C4
    assert Counter(target for target, _ in checked) == {"K6-C4": 10, "K5-C4": 8}


def test_shared_verdict_is_frozen():
    v = decide_k6c4(seq("5^2,4^5"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.reason = "COND1_D2"
    assert decide_k6c4(seq("5^2,4^5")).reason == "OK"


def test_replace_leaves_shared_verdicts_alone():
    v = decide_k5c4(seq("4^5"))
    w = dataclasses.replace(v, decision="no", reason="COND1_D1", lhs=3, rhs=4)
    assert w is not v and w.reason == "COND1_D1"
    again = decide_k5c4(seq("4^5"))
    assert (again.decision, again.reason, again.n, again.lhs) == ("yes", "OK", 5, None)


@pytest.mark.parametrize("text", ["5^2,4^5", "4^6", "3^3,1", "2^3", "6,5^2,3^4", "6^3,3^4"])
def test_shared_verdict_survives_pickle(text):
    v = decide_k6c4(seq(text))
    assert pickle.loads(pickle.dumps(v)) == v


def test_shared_table_is_bounded_per_target_and_n():
    for n in range(1, 11):
        for s in enumerate_graphic_sequences(n):
            decide_k6c4(s)
            decide_k5c4(s)
    per_target_n = Counter((target, n) for target, _, n, _ in characterize._SHARED)
    # K6-C4 at n >= 6: OK, NOT_GRAPHIC, COND2_RESIDUAL, d2 in 1..4, d6 in 1..2
    assert max(per_target_n.values()) <= 9
    shared_kinds = {"OK", "NOT_GRAPHIC", "COND2_RESIDUAL", "TOO_SHORT"}
    shared_kinds |= {"COND1_D2", "COND1_D6", "COND1_D1", "COND1_D5"}
    assert {reason for _, reason, _, _ in characterize._SHARED} <= shared_kinds
    assert all(lhs is None or lhs < 6 for *_, lhs in characterize._SHARED)
    assert decide_k6c4(seq("5^2,4^5")) is decide_k6c4(seq("6^2,4^4,2"))


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

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from potseq.characterize import decide_k5c4, decide_k6c4
from potseq.graphs import (
    Graph,
    K5_MINUS_C4,
    K6_MINUS_C4,
    TargetPattern,
    _contains_pattern_adj,
    complete_graph,
    degree_sequence_of,
    encode_graph6,
    find_km_minus_c4,
)
import potseq.search as search
from potseq.search import (
    TARGETS,
    EmbeddingFailure,
    NotPotentialError,
    OracleBoundError,
    _complete,
    count_graphic_sequences,
    enumerate_graphic_sequences,
    oracle_decide,
    oracle_decide_k6c4,
    oracle_decide_pattern,
    oracle_realization_k6c4,
    realize_graphic,
    realize_with_k5c4,
    realize_with_k6c4,
    sigma_search,
    verify_range,
)
from potseq.sequences import DegreeSequence, _eg_ok, is_graphic, parse_notation, render_notation


def seq(text):
    return parse_notation(text)


def gnp_degrees(rng, n, p):
    degrees = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            degrees[u] += 1
            degrees[v] += 1
    return degrees


# --- plain realization ------------------------------------------------------


def test_realize_triangle():
    g = realize_graphic(seq("2,2,2"))
    assert g.degrees() == (2, 2, 2) and g.num_edges == 3


def test_realize_k6():
    assert realize_graphic(seq("5^6")) == complete_graph(6)


def test_realize_rejects_non_graphic():
    with pytest.raises(ValueError):
        realize_graphic(seq("3^3,1"))


def test_realize_matches_degrees_on_all_small_sequences():
    for n in range(1, 8):
        for s in enumerate_graphic_sequences(n):
            assert degree_sequence_of(realize_graphic(s)).terms == s.terms


# --- embedded realization ---------------------------------------------------


def test_realize_with_k6c4_zero_residual_is_the_pattern():
    cert = realize_with_k6c4(seq("5^2,3^4"))
    assert cert.graph == K6_MINUS_C4.as_graph()
    assert cert.hosts == (0, 1, 2, 3, 4, 5)
    assert cert.hubs == (0, 1)
    assert cert.pairs == ((2, 4), (3, 5))
    assert cert.checked


def test_realize_with_k6c4_nontrivial():
    cert = realize_with_k6c4(seq("5^2,4^5"))
    assert degree_sequence_of(cert.graph).terms == (5, 5, 4, 4, 4, 4, 4)
    assert find_km_minus_c4(cert.graph, 6) is not None


def test_realize_with_k6c4_enforces_decider():
    with pytest.raises(NotPotentialError) as exc:
        realize_with_k6c4(seq("5^2,4^6"))
    assert exc.value.verdict.reason == "COND3_FIXED"


def test_realize_with_k6c4_unchecked_failure():
    # excluded by the counting condition; no placement on the top six can work
    with pytest.raises(EmbeddingFailure):
        realize_with_k6c4(seq("5^3,3^3"), unchecked=True)


def test_certificates_are_byte_stable():
    # graph6 of every certificate for a decider-yes sequence with n <= 8,
    # pinned so that `potseq realize` output cannot drift
    digest = hashlib.sha256()
    for n in range(1, 9):
        for s in enumerate_graphic_sequences(n):
            for decide, realize in ((decide_k6c4, realize_with_k6c4), (decide_k5c4, realize_with_k5c4)):
                if decide(s).is_yes:
                    digest.update(encode_graph6(realize(s).graph).encode() + b"\n")
    assert digest.hexdigest() == "9b213e6d2316eebaa73e2a15ac67d668ecca1e4331cdc8dbe8ab512c81d95fa0"


def test_oracle_realizations_are_byte_stable():
    # graph6 of oracle_realization_k6c4 for every graphic sequence with n <= 9
    # ("-" for None), pinned so that the oracle's search order cannot drift
    digest = hashlib.sha256()
    for n in range(1, 10):
        for s in enumerate_graphic_sequences(n):
            g = oracle_realization_k6c4(s)
            digest.update(b"-\n" if g is None else encode_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == "274d4844c175246486ad47297536b751e812d930466f07e04b0f04f6210d65d0"


def test_certificates_are_byte_stable_large_n():
    # graph6 of every certificate for seeded G(n,p) sequences at the sizes of
    # the realize-stream benchmark, n = 9..32, pinned like the n <= 8 golden
    digest = hashlib.sha256()
    lines = 0
    for n in range(9, 33):
        rng = random.Random(n)
        for p in (0.2, 0.35, 0.5):
            for _ in range(4):
                s = DegreeSequence.of(gnp_degrees(rng, n, p))
                for decide, realize in ((decide_k6c4, realize_with_k6c4), (decide_k5c4, realize_with_k5c4)):
                    if decide(s).is_yes:
                        digest.update(encode_graph6(realize(s).graph).encode() + b"\n")
                        lines += 1
    assert lines == 536
    assert digest.hexdigest() == "a61ee524f633827a38fe2d67d80dcd4d79d83133f744147f6d4851fa63324549"


@pytest.mark.parametrize(
    "change,message",
    [
        ({"pairs": ((2, 3), (4, 5))}, "certificate is missing role edge (2,3)"),
        ({"hubs": (0, 2)}, "certificate is missing role edge (2,3)"),
        ({"hubs": (0, 9)}, "certificate is missing role edge (0,9)"),
        ({"graph": complete_graph(6)}, "certificate degrees do not match the sequence"),
    ],
)
def test_revalidate_names_the_first_missing_edge(change, message):
    s = seq("5^2,3^4")
    cert = dataclasses.replace(realize_with_k6c4(s), checked=False, **change)
    with pytest.raises(EmbeddingFailure) as exc:
        cert.revalidate(s)
    assert str(exc.value) == message
    assert not cert.checked


def test_realize_with_k5c4():
    cert = realize_with_k5c4(seq("4^5"))
    assert cert.hosts == (0, 1, 2, 3, 4)
    assert cert.hubs == (0,)
    assert degree_sequence_of(cert.graph).terms == (4, 4, 4, 4, 4)


def test_completion_engine_matches_brute_force():
    # the realizer completes on top of a non-empty base; compare the engine's
    # yes/no and its output with a plain enumeration of added-edge sets
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(2, 6)
        p = rng.random() * 0.6
        base = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                base[u] |= 1 << v
                base[v] |= 1 << u
        demand = [rng.randint(0, 3) for _ in range(n)]
        free = [(u, v) for u, v in itertools.combinations(range(n), 2) if not base[u] >> v & 1]
        exists = sum(demand) % 2 == 0 and any(
            all(sum(x in e for e in added) == demand[x] for x in range(n))
            for added in itertools.combinations(free, sum(demand) // 2)
        )
        got = _complete(demand, base, None)
        assert (got is not None) == exists, (base, demand)
        if got is not None:
            Graph(n, tuple(got))  # symmetric and loop-free
            assert [(a & ~b).bit_count() for a, b in zip(got, base)] == demand
            assert all(a & b == b for a, b in zip(got, base))


def reference_complete(demand, base, accept):
    # the completion engine with candidates scanned from the partial graph
    # and the Erdos-Gallai check on every residual, zeros included: the
    # reference that search._complete must match
    if sum(demand) % 2:
        return None
    adj = list(base)
    if accept is not None and accept(adj, -1):
        return adj
    residual = list(demand)
    stack = []
    while True:
        combo = None
        r = max(residual, default=0)
        if r == 0:
            if accept is None:
                return adj
        else:
            u = residual.index(r)
            blocked = adj[u] | 1 << u
            cands = [v for v, x in enumerate(residual) if x and not blocked >> v & 1]
            if r <= len(cands):
                residual[u] = 0
                combos = itertools.combinations(cands, r)
                frame = [u, r, cands, combos, None, ()]
                stack.append(frame)
                combo = next(combos)
        while True:
            if combo is None:
                if not stack:
                    return None
                frame = stack[-1]
                u, r, cands, combos, twin_before, applied = frame
                bit = 1 << u
                for v in applied:
                    adj[u] ^= 1 << v
                    adj[v] ^= bit
                    residual[v] += 1
                if twin_before is None:
                    twin_before = frame[4] = search._twin_before(adj, residual, cands)
                combo = search._next_set(combos, twin_before)
                if combo is None:
                    residual[u] = r
                    stack.pop()
                    continue
            for v in combo:
                residual[v] -= 1
            if not _eg_ok(sorted(residual, reverse=True)):
                for v in combo:
                    residual[v] += 1
                frame[5] = ()
                combo = None
                continue
            frame[5] = combo
            bit = 1 << u
            nb = adj[u]
            for v in combo:
                nb |= 1 << v
                adj[v] |= bit
            adj[u] = nb
            if accept is not None and accept(adj, u):
                return adj
            break


def test_completion_engine_matches_reference_random():
    rng = random.Random(8)
    for _ in range(2000):
        n = rng.randint(1, 12)
        p = rng.random() * 0.5
        base = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                base[u] |= 1 << v
                base[v] |= 1 << u
        demand = [rng.randint(0, 3) for _ in range(n)]
        assert _complete(demand, base, None) == reference_complete(demand, base, None), (base, demand)
    for _ in range(300):
        n = rng.randint(1, 9)
        demand = gnp_degrees(rng, n, rng.uniform(0.3, 0.9))
        for accept in (search._has_k5c4, search._has_k6c4):
            empty = [0] * n
            assert _complete(demand, empty, accept) == reference_complete(demand, empty, accept), demand


def test_completion_engine_matches_reference_on_placements(monkeypatch):
    # every completion problem the realizer's placement poses, for seeded
    # G(n,p) sequences at the realize-stream benchmark's sizes
    engine = search._complete
    problems = []

    def both(demand, base, accept):
        got = engine(demand, base, accept)
        assert got == reference_complete(demand, base, accept), (list(demand), list(base))
        problems.append(got is not None)
        return got

    monkeypatch.setattr(search, "_complete", both)
    rng = random.Random(32)
    sample = [DegreeSequence.of(gnp_degrees(rng, 8 + i % 25, rng.uniform(0.15, 0.6))) for i in range(300)]
    # these G(n,p) placements all complete; decider-rejected sequences add
    # placements that do not
    sample += [seq(text) for text in ("5^2,4^6", "5^3,3^3", "6^2,3^6", "4^2,2^3")]
    for s in sample:
        for m in (6, 5):
            if s.n >= m:
                search._place_km_c4(s.terms, m)
    assert len(problems) > 500 and False in problems


def reference_role_assignments(d, m):
    """The placement generator before its class keys were made lazy: every
    hub and quad vertex is tested, and every key is built before its yield."""
    hubs_count = m - 4
    seen = set()
    for hubs in itertools.combinations(range(m), hubs_count):
        if any(d[h] < m - 1 for h in hubs):
            continue
        quad = [v for v in range(m) if v not in hubs]
        if any(d[q] < m - 3 for q in quad):
            continue
        for a, b, c, e in ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2)):
            pairs = ((quad[a], quad[b]), (quad[c], quad[e]))
            hub_key = tuple(sorted(d[h] - (m - 1) for h in hubs))
            pair_key = tuple(
                sorted(tuple(sorted((d[p] - (m - 3), d[q] - (m - 3)))) for p, q in pairs)
            )
            key = (hub_key, pair_key)
            if key in seen:
                continue
            seen.add(key)
            yield hubs, pairs


def test_role_assignments_keep_placement_order():
    # every non-increasing top tuple with values 1..10, then three 1s
    cases = 0
    for m in (5, 6):
        for top in itertools.combinations_with_replacement(range(10, 0, -1), m):
            d = top + (1, 1, 1)
            assert list(search._role_assignments(d, m)) == list(reference_role_assignments(d, m)), d
            cases += 1
    assert cases == 7007


# --- oracle -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("5^2,3^4", True),
        ("5^2,4^6", False),
        ("6^2,3^6", False),
        ("5^6", True),
        ("6,5^2,3^4", False),
    ],
)
def test_oracle_k6c4(text, expected):
    assert oracle_decide_k6c4(seq(text)) is expected


def test_oracle_witness_revalidates():
    g = oracle_realization_k6c4(seq("5^2,4^5"))
    assert g is not None
    assert degree_sequence_of(g).terms == (5, 5, 4, 4, 4, 4, 4)
    assert find_km_minus_c4(g, 6) is not None


@pytest.mark.parametrize(
    "text,expected",
    [("4,2^5", False), ("4^5", True), ("2^6", False), ("4,4,2^3,1^2", True)],
)
def test_oracle_k5c4(text, expected):
    assert oracle_decide_pattern(seq(text), K5_MINUS_C4) is expected


def test_oracle_refuses_above_bound():
    s = DegreeSequence((1,) * 12)
    with pytest.raises(OracleBoundError):
        oracle_decide_k6c4(s)
    assert oracle_decide_k6c4(s, bound=12) is False


def test_oracle_bound_env_override(monkeypatch):
    monkeypatch.setenv("POTSEQ_ORACLE_BOUND", "4")
    with pytest.raises(OracleBoundError):
        oracle_decide_k6c4(DegreeSequence((1, 1, 1, 1, 1, 1)))


def test_oracle_requires_graphic_input():
    with pytest.raises(ValueError):
        oracle_decide_k6c4(seq("3^3,1"))


@pytest.mark.parametrize("asked_first", [False, True])
def test_non_graphic_is_refused_whether_or_not_its_answer_is_stored(asked_first):
    def fresh():
        s = seq("3^3,1")
        if asked_first:
            assert is_graphic(s) is False
        return s

    assert decide_k6c4(fresh()).reason == "NOT_GRAPHIC"
    assert decide_k5c4(fresh()).reason == "NOT_GRAPHIC"
    for target in TARGETS.values():
        with pytest.raises(ValueError, match="graphic"):
            oracle_decide(fresh(), target)


def test_oracle_refuses_unregistered_pattern():
    triangle = TargetPattern("K3", 3, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError):
        oracle_decide_pattern(seq("2^3"), triangle)


def exhaustive_only(s, pattern):
    # the reference: the completion search alone, with the generic full
    # containment test, no dominance precheck and no placement witness
    accept = lambda adj, u: _contains_pattern_adj(adj, len(adj), pattern)
    return _complete(s.terms, [0] * s.n, accept) is not None


def test_oracle_engines_agree_small():
    for target in TARGETS.values():
        for n in range(1, 9):
            for s in enumerate_graphic_sequences(n):
                assert oracle_decide(s, target) == exhaustive_only(s, target.pattern), (target.pattern.name, s.terms)


@pytest.mark.parametrize("key", ["k6-c4", "k5-c4"])
@pytest.mark.parametrize("witness", ["wrong_degrees", "no_pattern"])
def test_oracle_checks_the_placement_witness(monkeypatch, key, witness):
    # a placement witness with other degrees than the sequence's (a complete
    # graph, which contains the pattern), or with the right degrees but no
    # copy of the pattern, must not turn a no into a yes
    def fake_placement(d, m):
        calls.append(d)
        if witness == "wrong_degrees":
            return list(complete_graph(len(d)).adj), (), ()
        return list(realize_graphic(DegreeSequence(tuple(d))).adj), (), ()

    monkeypatch.setattr(search, "_place_km_c4", fake_placement)
    target = TARGETS[key]
    calls = []
    refuted = 0
    for n in range(1, 9):
        for s in enumerate_graphic_sequences(n):
            expected = exhaustive_only(s, target.pattern)
            before = len(calls)
            assert oracle_decide(s, target) == expected, s.terms
            refuted += not expected and len(calls) > before
    assert refuted > 0


# --- enumeration ------------------------------------------------------------


def test_enumeration_examples():
    assert [s.terms for s in enumerate_graphic_sequences(3)] == [(2, 2, 2), (2, 1, 1)]
    assert [s.terms for s in enumerate_graphic_sequences(2)] == [(1, 1)]
    n6 = [s.terms for s in enumerate_graphic_sequences(6)]
    assert (5, 5, 5, 5, 5, 5) in n6
    assert (5, 5, 3, 3, 3, 3) in n6


def test_enumeration_counts():
    assert [count_graphic_sequences(n) for n in range(1, 9)] == [0, 1, 2, 7, 20, 71, 240, 871]


def test_enumeration_is_lexicographically_decreasing():
    for n in (5, 7):
        terms = [s.terms for s in enumerate_graphic_sequences(n)]
        assert terms == sorted(terms, reverse=True)


def test_enumeration_matches_brute_force_graph_sweep():
    # independent ground truth: degree sequences of every labeled graph, and
    # for each sequence whether some realization contains K6-C4 / K5-C4
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        seen = {}
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            m, i = mask, 0
            while m:
                if m & 1:
                    u, v = pairs[i]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                m >>= 1
                i += 1
            g = Graph(n, tuple(adj))
            if 0 in g.degrees():
                continue
            terms = degree_sequence_of(g).terms
            k6, k5 = seen.get(terms, (False, False))
            if not (k6 and k5):
                seen[terms] = (
                    k6 or find_km_minus_c4(g, 6) is not None,
                    k5 or find_km_minus_c4(g, 5) is not None,
                )
        sequences = list(enumerate_graphic_sequences(n))
        assert {s.terms for s in sequences} == set(seen)
        for s in sequences:
            assert (oracle_decide_k6c4(s), oracle_decide_pattern(s, K5_MINUS_C4)) == seen[s.terms], s.terms


def test_enumeration_records_graphicity():
    for n in range(1, 9):
        for s in enumerate_graphic_sequences(n):
            assert s._graphic is True and _eg_ok(s.terms), s.terms


def test_enumeration_min_term():
    only_cubic_or_more = list(enumerate_graphic_sequences(6, min_term=3))
    assert all(s.terms[-1] >= 3 for s in only_cubic_or_more)
    assert (3, 3, 3, 3, 3, 3) in [s.terms for s in only_cubic_or_more]


# --- sigma search -----------------------------------------------------------


def test_sigma_search_n6():
    res = sigma_search(6, K6_MINUS_C4)
    assert res.value == 26
    assert render_notation(res.witness) == "5^3,3^3"
    assert res.witness_sigma == 24


def test_sigma_search_n7_witness():
    res = sigma_search(7, K6_MINUS_C4)
    assert res.value == 32
    assert render_notation(res.witness) == "6^3,3^4"


def test_sigma_search_k5c4():
    # the largest non-potential sum at n=5 is 14, first reached by the
    # family instance (4,4,2^3); frozen from the oracle-backed search
    res = sigma_search(5, K5_MINUS_C4)
    assert res.value == 16
    assert render_notation(res.witness) == "4^2,2^3"
    assert res.witness_sigma == 14


def test_sigma_search_bound():
    with pytest.raises(OracleBoundError):
        sigma_search(12, K6_MINUS_C4)


# --- verification -----------------------------------------------------------


def test_verify_range_n6_clean():
    rep = verify_range(6, K6_MINUS_C4)
    assert rep.total_sequences == 71
    assert rep.agreements == 71
    assert rep.mismatches == []
    assert rep.to_dict()["mismatches"] == []


def test_verify_range_parallel_matches_serial():
    serial = verify_range(6, K6_MINUS_C4, jobs=1)
    parallel = verify_range(6, K6_MINUS_C4, jobs=2)
    a, b = serial.to_dict(), parallel.to_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_verify_range_k5c4_n5():
    rep = verify_range(5, K5_MINUS_C4)
    assert rep.total_sequences == 20
    assert rep.mismatches == []


def test_verify_range_bound():
    with pytest.raises(OracleBoundError):
        verify_range(11, K6_MINUS_C4)


def test_verify_range_progress_callback():
    calls = []
    verify_range(3, K6_MINUS_C4, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(1, 2), (2, 2)]


def test_serial_verify_does_not_import_multiprocessing():
    # importing multiprocessing is paid only by a run with jobs > 1
    code = (
        "import sys, potseq, potseq.cli\n"
        "from potseq.search import verify_range\n"
        "assert not verify_range(6).mismatches\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("POTSEQ_ORACLE_BOUND", None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

import collections
import copy
import dataclasses
import hashlib
import inspect
import itertools
import os
import pickle
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
    PatternWitness,
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
    enumerate_graphic_sequences,
    oracle_decide,
    oracle_decide_k6c4,
    oracle_decide_pattern,
    oracle_realization_k6c4,
    realize_graphic,
    realize_with_k5c4,
    realize_with_k6c4,
    verify_range,
)
from potseq.sequences import DegreeSequence, _eg_ok, is_graphic, layoff, parse_notation, render_notation


RUN_LONG = bool(os.environ.get("POTSEQ_RUN_LONG"))


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
    for n in range(1, 10):
        for s in enumerate_graphic_sequences(n):
            assert degree_sequence_of(realize_graphic(s)).terms == s.terms


@pytest.mark.parametrize("text", ["5^8,3^1000", "1^2000"])
def test_realize_matches_degrees_past_64_vertices(text):
    # past 64 vertices Graph checks its rows by the scan route
    s = seq(text)
    assert degree_sequence_of(realize_graphic(s)).terms == s.terms


def test_plain_realizations_are_byte_stable():
    # graph6 of realize_graphic for every graphic sequence with n <= 8,
    # pinned so that the engine's first completion cannot drift
    digest = hashlib.sha256()
    for n in range(1, 9):
        for s in enumerate_graphic_sequences(n):
            digest.update(encode_graph6(realize_graphic(s)).encode() + b"\n")
    assert digest.hexdigest() == "431e9958c2f5d43956627bcceafbf2f03efa6c03e5aca9c99eba9f02b0f73157"


# --- embedded realization ---------------------------------------------------


@pytest.mark.parametrize(
    "realize, text, pattern, hubs, pairs",
    [
        (realize_with_k6c4, "5^2,3^4", K6_MINUS_C4, (0, 1), ((2, 4), (3, 5))),
        # K5-C4's diagonal-first row: graph6 "Dug"
        (realize_with_k5c4, "4,2^4", K5_MINUS_C4, (0,), ((1, 3), (2, 4))),
    ],
    ids=["k6-c4", "k5-c4"],
)
def test_realize_with_k6c4_zero_residual_is_the_pattern(realize, text, pattern, hubs, pairs):
    cert = realize(seq(text))
    assert cert.graph == pattern.as_graph()
    assert cert.hosts == tuple(range(pattern.vertex_count))
    assert cert.hubs == hubs
    assert cert.pairs == pairs


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
    assert search._place_km_c4(seq("5^3,3^3").terms, 6) is None


def test_realizer_reports_a_placement_that_does_not_complete(monkeypatch):
    monkeypatch.setattr(search, "_place_km_c4", lambda d, m: None)
    message = r"^no embedded realization of 5\^2,4\^5 completes on the top 6 vertices$"
    with pytest.raises(EmbeddingFailure, match=message):
        realize_with_k6c4(seq("5^2,4^5"))


def test_a_target_stores_no_containment_test():
    # the oracle's test follows from the pattern's vertex count, so no
    # registry entry can pair its pattern with another pattern's test
    assert [f.name for f in dataclasses.fields(search.Target)] == ["pattern", "decide", "sigma_formula"]
    assert search._km_c4_accept(6) is search._km_c4_accept(6) is not search._km_c4_accept(5)


def test_target_realizes_with_its_own_decider():
    # a registry entry with another decider asks that decider, not the
    # registered one
    class Boom(Exception):
        pass

    def boom(s):
        raise Boom

    with pytest.raises(Boom):
        dataclasses.replace(TARGETS["k6-c4"], decide=boom).realize(seq("5^2,4^5"))


def test_realizers_refuse_too_short_sequences():
    # the deciders answer TOO_SHORT for every graphic sequence with n < m,
    # the empty one included, so no realizer places on fewer than m vertices
    cases = 0
    for m, realize in ((6, realize_with_k6c4), (5, realize_with_k5c4)):
        short = [DegreeSequence(())]
        for n in range(1, m):
            short += enumerate_graphic_sequences(n)
        for s in short:
            with pytest.raises(NotPotentialError) as exc:
                realize(s)
            assert exc.value.verdict.reason == "TOO_SHORT", s.terms
        cases += len(short)
    assert cases == 2 + 30 + 10


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


ROLES_MESSAGE = "certificate roles are not 6 distinct hosts split into hubs and two disjoint pairs"


@pytest.mark.parametrize(
    "change,message",
    [
        ({"pairs": ((2, 3), (4, 5))}, "certificate is missing role edge (2,3)"),
        ({"hubs": (0, 2)}, "certificate is missing role edge (2,3)"),
        ({"hubs": (0, 9)}, "certificate is missing role edge (0,9)"),
        ({"graph": complete_graph(6)}, "certificate degrees do not match the sequence"),
        # on the certificate of 5^6, K6, every role edge is present: a role
        # vertex out of range must not wrap around to vertex 5, and the roles
        # must form K6 - C4
        ({"sequence": "5^6", "pairs": ((2, 4), (3, -1))}, "certificate is missing role edge (-1,0)"),
        ({"sequence": "5^6", "hubs": (0, 1, -1)}, "certificate is missing role edge (-1,0)"),
        ({"sequence": "5^6", "pairs": ((2, 4), (3, 6))}, "certificate is missing role edge (0,6)"),
        ({"sequence": "5^6", "hubs": (0, 0)}, ROLES_MESSAGE),
        ({"sequence": "5^6", "pairs": ((1, 4), (3, 5))}, ROLES_MESSAGE),
        ({"sequence": "5^6", "pairs": ((2, 3), (2, 3))}, ROLES_MESSAGE),
        ({"sequence": "5^6", "pairs": ((2, 4), (3, 4))}, ROLES_MESSAGE),
        # the pair lengths sum to 4, but the pairs are not two pairs
        ({"sequence": "5^6", "pairs": ((2, 3, 4), (5,))}, ROLES_MESSAGE),
        ({"sequence": "5^6", "pairs": ((2, 3), (4, 5), ())}, ROLES_MESSAGE),
    ],
)
def test_revalidate_names_the_first_missing_edge(change, message):
    change = dict(change)
    s = seq(change.pop("sequence", "5^2,3^4"))
    cert = dataclasses.replace(realize_with_k6c4(s), **change)
    with pytest.raises(EmbeddingFailure) as exc:
        cert.revalidate(s)
    assert str(exc.value) == message


def reference_revalidate(cert, s):
    """The reference for ``RealizationCertificate.revalidate``: the same
    checks made the plain way, every degree sorted, the hosts flattened and
    sorted, the role masks built by generator expressions."""
    n = cert.graph.n
    adj = cert.graph.adj
    if tuple(sorted(filter(None, map(int.bit_count, adj)), reverse=True)) != s.terms:
        raise EmbeddingFailure("certificate degrees do not match the sequence")
    hosts = cert.hosts
    m = len(cert.hubs) + 4
    paired = tuple(map(len, cert.pairs)) == (2, 2)
    split = paired and len(set(hosts)) == m
    found = split and min(hosts) >= 0 and max(hosts) < n
    if found:
        mask = sum(1 << x for x in hosts)
        found = all((adj[h] | 1 << h) & mask == mask for h in cert.hubs) and all(
            adj[a] >> b & 1 for a, b in cert.pairs
        )
    if not found and paired:
        for u, v in cert.role_edges():
            if not (0 <= u < n and 0 <= v < n and adj[u] >> v & 1):
                raise EmbeddingFailure(f"certificate is missing role edge ({u},{v})")
    if not split:
        raise EmbeddingFailure(
            f"certificate roles are not {m} distinct hosts split into hubs and two disjoint pairs"
        )


def gnp_certificates():
    """(sequence, certificate) for every line of
    ``test_certificates_are_byte_stable_large_n``, in its order."""
    for n in range(9, 33):
        rng = random.Random(n)
        for p in (0.2, 0.35, 0.5):
            for _ in range(4):
                s = DegreeSequence.of(gnp_degrees(rng, n, p))
                for decide, realize in ((decide_k6c4, realize_with_k6c4), (decide_k5c4, realize_with_k5c4)):
                    if decide(s).is_yes:
                        yield s, realize(s)


def revalidate_outcome(check, cert, s):
    try:
        check(cert, s)
    except Exception as exc:  # the two must fail alike, whatever the type
        return type(exc), str(exc)
    return None


def certificate_mutants(cert):
    """Certificates that differ from ``cert`` in one role or in the graph:
    every role vertex replaced by -1, by n, by each other host and by the
    first and last non-hosts; the pairs reshaped; one role edge removed from
    both rows; the complete graph."""
    n = cert.graph.n
    hosts = cert.hosts
    others = [v for v in range(n) if v not in hosts]
    (a, b), (c, d) = cert.pairs
    roles = [*cert.hubs, a, b, c, d]
    h = len(cert.hubs)
    for i, old in enumerate(roles):
        for new in (-1, n, *(x for x in hosts if x != old), others[0], others[-1]):
            changed = roles[:i] + [new] + roles[i + 1 :]
            yield dataclasses.replace(
                cert, hubs=tuple(changed[:h]), pairs=(tuple(changed[h : h + 2]), tuple(changed[h + 2 :]))
            )
    yield dataclasses.replace(cert, pairs=((a, b, c), (d,)))
    yield dataclasses.replace(cert, pairs=((a, b), (c, d), ()))
    adj = cert.graph.adj
    for u, v in cert.role_edges():
        rows = list(adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        yield dataclasses.replace(cert, graph=Graph(n, tuple(rows)))
    yield dataclasses.replace(cert, graph=complete_graph(n))


def test_revalidate_agrees_with_the_reference():
    # error for error on the pinned G(n,p) certificates and their mutants, each
    # against its sequence and, when its graph changed, against the graph's
    # own degrees, so that role checks are reached past the degree check
    outcomes = collections.Counter()
    for s, cert in gnp_certificates():
        assert revalidate_outcome(reference_revalidate, cert, s) is None
        assert revalidate_outcome(type(cert).revalidate, cert, s) is None
        for mutant in certificate_mutants(cert):
            against = [s] if mutant.graph is cert.graph else [s, degree_sequence_of(mutant.graph)]
            for t in against:
                expected = revalidate_outcome(reference_revalidate, mutant, t)
                assert revalidate_outcome(type(mutant).revalidate, mutant, t) == expected, (mutant, t)
                outcomes[expected and expected[1].partition(" (")[0]] += 1
    # every route is taken: pass, degrees, a missing edge, a failed split
    assert outcomes == {
        None: 2_527,
        "certificate degrees do not match the sequence": 5_027,
        "certificate is missing role edge": 21_513,
        "certificate roles are not 5 distinct hosts split into hubs and two disjoint pairs": 3_549,
        ROLES_MESSAGE: 3_520,
    }


def reversed_certificate(cert):
    """``cert`` relabeled by v -> n - 1 - v, hubs and pairs mapped with it."""
    n = cert.graph.n
    flip = lambda v: n - 1 - v
    graph = Graph.from_edges(n, [(flip(u), flip(v)) for u, v in cert.graph.edges()])
    pairs = tuple(tuple(map(flip, p)) for p in cert.pairs)
    return dataclasses.replace(cert, hubs=tuple(map(flip, cert.hubs)), pairs=pairs, graph=graph)


def test_revalidate_sorts_degrees_out_of_sequence_order():
    # a certificate's degrees are in sequence order, so only a relabeled graph
    # or one with an isolated vertex reaches the sorted comparison
    for s, cert in gnp_certificates():
        flipped = reversed_certificate(cert)
        assert flipped.graph.degrees() != s.terms
        flipped.revalidate(s)
        padded = dataclasses.replace(cert, graph=Graph(cert.graph.n + 1, cert.graph.adj + (0,)))
        padded.revalidate(s)


@pytest.mark.parametrize("kind", ["graph", "witness", "certificate"])
def test_certificate_records_are_slotted(kind):
    cert = realize_with_k6c4(seq("5^2,3^4"))
    record = {"graph": cert.graph, "witness": PatternWitness(cert.hubs, cert.pairs), "certificate": cert}[kind]
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), dataclasses.replace(record)):
        assert type(copied) is type(record)
        assert copied == record


@pytest.mark.parametrize("name", ["hubs", "pairs", "graph"])
def test_certificates_are_frozen(name):
    cert = realize_with_k6c4(seq("5^2,3^4"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cert, name, getattr(cert, name))


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
        got = _complete(demand, base)
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


def test_completion_engine_on_no_vertices():
    assert _complete([], []) == []
    assert _complete([], [], 5) is None


def test_completion_engine_takes_no_check_policy():
    # whether first sets go unchecked follows from the mode ``m`` alone
    assert list(inspect.signature(_complete).parameters) == ["demand", "base", "m"]


def test_nodes_build_their_iterators_on_first_backtrack(monkeypatch):
    # a node tries its first set before it builds a combinations iterator or
    # a twin map, and builds both on its first backtrack only: over the
    # realizer's placements of every decider-yes sequence with n <= 9, the
    # two are built equally often, and far less often than sets are checked.
    # Checking every set makes 31,480 checks, and the same 1,950 nodes
    # backtrack
    problems = []
    engine = search._complete

    def recorded(demand, base, m=0):
        problems.append((list(demand), list(base)))
        return engine(demand, base, m)

    monkeypatch.setattr(search, "_complete", recorded)
    for n in range(5, 10):
        for s in enumerate_graphic_sequences(n):
            for decide, realize in ((decide_k6c4, realize_with_k6c4), (decide_k5c4, realize_with_k5c4)):
                if decide(s).is_yes:
                    realize(s)
    monkeypatch.setattr(search, "_complete", engine)
    built = {"combinations": 0, "_twin_before": 0, "_eg_ok": 0}
    for name in built:
        original = getattr(search, name)

        def counted(*args, name=name, original=original):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(search, name, counted)
    for demand, base in problems:
        engine(demand, base)
    assert len(problems) == 7105
    assert built == {"combinations": 1950, "_twin_before": 1950, "_eg_ok": 7017}


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
        assert _complete(demand, base) == reference_complete(demand, base, None), (base, demand)
    for _ in range(300):
        n = rng.randint(1, 9)
        demand = gnp_degrees(rng, n, rng.uniform(0.3, 0.9))
        for m in (5, 6):
            empty = [0] * n
            assert _complete(demand, empty, m) == reference_complete(demand, empty, search._km_c4_accept(m)), demand


def test_completion_engine_matches_reference_on_placements(monkeypatch):
    # every completion problem the realizer's placement poses, for seeded
    # G(n,p) sequences at the realize-stream benchmark's sizes
    engine = search._complete
    problems = []

    def both(demand, base, m=0):
        got = engine(demand, base, m)
        assert got == reference_complete(demand, base, None), (list(demand), list(base))
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


def test_deferred_checks_make_the_eager_decisions(monkeypatch):
    # the realizer's placement problems for seeded G(n,p) sequences with
    # n = 12..32 and mean degree 8..10, on which many unchecked first sets
    # fail: with its first sets unchecked, the engine builds the same twin
    # maps, leaps from the same sets and returns the same graph as an engine
    # that checks every set, and as the reference does, in fewer checks.
    # The digest pins each problem's (result, twin-map and leap log) as the
    # engine that checks every set produced it, in 7,704 checks
    engine = search._complete
    problems = []

    def recorded(demand, base, m=0):
        problems.append((list(demand), list(base)))
        return engine(demand, base, m)

    monkeypatch.setattr(search, "_complete", recorded)
    rng = random.Random(25)
    for i in range(210):
        n = 12 + i % 21
        s = DegreeSequence.of(gnp_degrees(rng, n, rng.uniform(8, 10) / (n - 1)))
        for m in (6, 5):
            search._place_km_c4(s.terms, m)
    monkeypatch.setattr(search, "_complete", engine)
    log, checks = [], []
    twin_before, first_passing = search._twin_before, search._first_passing

    def twins(adj, residual, cands):
        log.append((tuple(adj), tuple(residual), tuple(cands)))
        return twin_before(adj, residual, cands)

    def leap(residual, cands, r, after):
        log.append((tuple(residual), tuple(cands), r, after))
        return first_passing(residual, cands, r, after)

    def counted(terms):
        checks.append(_eg_ok(terms))
        return checks[-1]

    monkeypatch.setattr(search, "_twin_before", twins)
    monkeypatch.setattr(search, "_first_passing", leap)
    monkeypatch.setattr(search, "_eg_ok", counted)
    digest = hashlib.sha256()
    resolved = calls = 0
    for demand, base in problems:
        del log[:], checks[:]
        got = engine(demand, base)
        digest.update(repr((got, log)).encode() + b"\n")
        calls += len(checks)
        # before its first dead end, a deferring run checks nothing: a
        # first check that fails found an unchecked first set failing
        resolved += checks[:1] == [False]
        assert got == reference_complete(demand, base, None), (demand, base)
    assert (len(problems), resolved, calls) == (420, 293, 3816)
    assert digest.hexdigest() == "5c0f602d2271230a8f575055457f006e2b77948f97ec0c4b14255d41f8083bc9"


class OverBudget(Exception):
    pass


def dense_placements_match_reference(monkeypatch, seed, sizes, count):
    # the realizer's placements on dense seeded G(n,p) sequences, whose nodes
    # leap over long runs of failing neighbor sets, against the scan.  A
    # completion problem gets at most 10,000 Erdos-Gallai checks; the
    # placements that run over are returned, unchecked
    engine = search._complete
    problems, over = [], []
    checks = [0]

    def counted(terms):
        checks[0] += 1
        if checks[0] > 10_000:
            raise OverBudget
        return _eg_ok(terms)

    def both(demand, base, m=0):
        checks[0] = 0
        got = engine(demand, base, m)
        assert got == reference_complete(demand, base, None), (list(demand), list(base))
        problems.append(got)
        return got

    monkeypatch.setattr(search, "_eg_ok", counted)
    monkeypatch.setattr(search, "_complete", both)
    rng = random.Random(seed)
    for i in range(count):
        s = DegreeSequence.of(gnp_degrees(rng, sizes[i % len(sizes)], rng.uniform(0.5, 0.7)))
        for m in (6, 5):
            try:
                search._place_km_c4(s.terms, m)
            except OverBudget:
                over.append((render_notation(s), m))
    return problems, over


def test_completion_engine_matches_reference_on_dense_placements(monkeypatch):
    problems, over = dense_placements_match_reference(monkeypatch, 20, range(20, 33), 130)
    assert len(problems) == 260 and None not in problems and over == []


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=33..40 sweep")
def test_completion_engine_matches_reference_on_dense_placements_n33_to_40(monkeypatch):
    problems, over = dense_placements_match_reference(monkeypatch, 33, range(33, 41), 16000)
    assert len(problems) == 31997 and None not in problems
    # known slow K6-C4 placements: dead ends make the search backtrack
    # through far more nodes than a leap can skip (ROADMAP item 5)
    assert over == [
        ("29,27,25^4,24^3,22^4,21^5,20^4,19^6,18^3,17^6,16^2,15", 6),
        ("26,25,24,23^3,22^4,21,20^2,19^6,18^2,17^7,16^6,15,14,13", 6),
        ("29,27^2,26^3,25^4,23,22^5,21,20^7,19^4,18^8,17^3,16", 6),
    ]


def lays_off(residual, combo):
    # whether laying a vertex off onto ``combo`` leaves live residuals that
    # pass the Erdos-Gallai check
    after = list(residual)
    for v in combo:
        after[v] -= 1
    return _eg_ok(sorted(filter(None, after), reverse=True))


def test_laying_off_onto_larger_residuals_keeps_passing():
    # the lemma behind _first_passing, on every non-increasing state with
    # n <= 7 (the check sees the residuals alone, not their order): a set
    # whose residuals dominate, member for member, those of a passing set
    # passes too
    pairs = 0
    for n in range(2, 8):
        for residual in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
            r, residual = residual[0], [0, *residual[1:]]
            cands = [v for v in range(n) if residual[v]]
            sets = [(c, lays_off(residual, c)) for c in itertools.combinations(cands, r)]
            for small, ok in sets:
                if not ok:
                    continue
                low = sorted(residual[v] for v in small)
                for big, big_ok in sets:
                    if all(x <= y for x, y in zip(low, sorted(residual[v] for v in big))):
                        assert big_ok, (residual, small, big)
                        pairs += 1
    assert pairs == 14206


def test_first_passing_matches_lex_scan():
    # seeded node states (u the first maximum, a random tenth of the
    # candidates cut off as base neighbors); from a set of the run of
    # failing sets that opens the node, the leap lands on the first later
    # set that passes, as a scan of combinations finds it
    rng = random.Random(12)
    states = leaps = 0
    while states < 4000:
        n = rng.randint(2, 12)
        # G(n,p) degrees, half of them in ascending order, so that the
        # first sets take the smallest residuals and the leaps are long
        residual = gnp_degrees(rng, n, rng.uniform(0.2, 0.9))
        if rng.random() < 0.5:
            residual.sort()
        r = max(residual)
        u = residual.index(r)
        residual[u] = 0
        cands = [v for v in range(n) if residual[v] and rng.random() >= 0.1]
        if not 0 < r <= len(cands):
            continue
        combos = list(itertools.combinations(cands, r))
        first = next((i for i, c in enumerate(combos) if lays_off(residual, c)), None)
        if first == 0:
            continue
        states += 1
        expected = None if first is None else combos[first]
        for start in {0, rng.randrange(first or len(combos))}:
            before = list(residual)
            assert search._first_passing(residual, cands, r, combos[start]) == expected, (residual, cands, combos[start])
            assert residual == before
            leaps += first is not None and first > start + 1
    assert leaps > 1000


def test_nodes_leap_only_from_a_run_of_failing_sets(monkeypatch):
    # a node leaps when its first two sets fail the check, never when its
    # first set led to a dead end: on random completion problems with dead
    # ends, every set up to the one a leap starts after fails
    leap = search._first_passing
    leaps = []

    def checked(residual, cands, r, after):
        assert not any(lays_off(residual, c) for c in itertools.takewhile(after.__ge__, itertools.combinations(cands, r)))
        leaps.append(after)
        return leap(residual, cands, r, after)

    monkeypatch.setattr(search, "_first_passing", checked)
    rng = random.Random(14)
    for _ in range(3000):
        n = rng.randint(4, 12)
        p = rng.random() * 0.7
        base = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                base[u] |= 1 << v
                base[v] |= 1 << u
        demand = [rng.randint(0, 5) for _ in range(n)]
        assert _complete(demand, base) == reference_complete(demand, base, None), (base, demand)
    assert len(leaps) > 40


def test_dense_placements_leap_in_few_checks(monkeypatch):
    # Erdos-Gallai checks of the realizer's placements on the four slowest
    # seed-1 realize-stream problems and a dense n = 56 sequence; a scan
    # that tests failing sets one by one makes 1,208 checks on the four and
    # about 40,000 per target on the n = 56 one
    calls = []

    def counted(terms):
        calls.append(1)
        return _eg_ok(terms)

    monkeypatch.setattr(search, "_eg_ok", counted)
    for text in ("14^2,13^3,12,11^4,10^3,9^10,8^2,7", "16,14^2,13^6,12^2,11^2,10^7,9^3,8,7,6"):
        for m in (6, 5):
            assert search._place_km_c4(seq(text).terms, m) is not None
    assert len(calls) <= 250
    s = seq("30,26,25^5,24^5,23^8,22^9,21^3,20^7,19^5,18^2,17^7,16,15^2")
    for realize in (realize_with_k6c4, realize_with_k5c4):
        del calls[:]
        cert = realize(s)
        assert len(calls) <= 400
        cert.revalidate(s)


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


def top_tuples():
    # every non-increasing top tuple with values 1..10, then three 1s
    return [
        (top + (1, 1, 1), m)
        for m in (5, 6)
        for top in itertools.combinations_with_replacement(range(10, 0, -1), m)
    ]


def reference_problems(d, m):
    """The completion problems, as (demand, base), of the reference
    placements with no negative demand, in order, when each placement's
    hub mask, base rows and demands are built on every call."""
    n = len(d)
    top = (1 << m) - 1
    for hubs, pairs in reference_role_assignments(d, m):
        hub_mask = sum(1 << h for h in hubs)
        base = [hub_mask] * m + [0] * (n - m)
        demand = list(d)
        for v in range(m):
            demand[v] -= m - 3
        for h in hubs:
            base[h] = top ^ 1 << h
            demand[h] -= 2
        for a, b in pairs:
            base[a] |= 1 << b
            base[b] |= 1 << a
        if min(demand) >= 0:
            yield demand, base


def test_placements_try_every_class_in_order(monkeypatch):
    # with a completion engine that never completes, ``_place_km_c4`` poses
    # the problem of every reference placement that passes the bounds, in
    # the reference's order
    problems = []

    def never(demand, base, m=0):
        problems.append((list(demand), list(base)))
        return None

    monkeypatch.setattr(search, "_complete", never)
    tops = top_tuples()
    posed = 0
    for d, m in tops:
        del problems[:]
        assert search._place_km_c4(d, m) is None
        assert problems == list(reference_problems(d, m)), (d, m)
        posed += len(problems)
    assert (len(tops), posed) == (7007, 21231)


def reference_placement_problems(d, m):
    """The reference's problems up to its first completion, and that
    completion's adjacency, or None."""
    problems = []
    for demand, base in reference_problems(d, m):
        problems.append((demand, base))
        adj = _complete(demand, base)
        if adj is not None:
            return problems, adj
    return problems, None


def placements_pose_reference_problems(monkeypatch, tops):
    # ``_place_km_c4`` hands the completion engine the reference's problems,
    # in the reference's order, and returns the same adjacency
    engine = search._complete
    problems = []

    def recorded(demand, base, m=0):
        problems.append((list(demand), list(base)))
        return engine(demand, base, m)

    monkeypatch.setattr(search, "_complete", recorded)
    counts = []
    for d, m in tops:
        del problems[:]
        found = search._place_km_c4(d, m)
        expected, adj = reference_placement_problems(d, m)
        assert problems == expected, (d, m)
        assert (None if found is None else found[0]) == adj, (d, m)
        counts.append(len(problems))
    return counts


def test_placements_pose_reference_problems_on_top_tuples(monkeypatch):
    # the top tuples of test_placements_try_every_class_in_order
    tops = [
        (top + (1, 1, 1), m)
        for m in (5, 6)
        for top in itertools.combinations_with_replacement(range(10, 0, -1), m)
    ]
    assert len(tops) == 7007
    counts = placements_pose_reference_problems(monkeypatch, tops)
    assert sum(counts) == 21108 and counts.count(0) == 4053 and max(counts) == 45


def test_placements_pose_reference_problems_on_gnp(monkeypatch):
    # seeded G(n,p) sequences at the realize-stream benchmark's sizes, whose
    # first placement completes or fails the bounds; decider-rejected
    # sequences add placements that do not complete
    rng = random.Random(19)
    sample = [DegreeSequence.of(gnp_degrees(rng, 8 + i % 25, rng.uniform(0.1, 0.7))) for i in range(400)]
    sample += [seq(text) for text in ("5^2,4^6", "5^3,3^3", "6^2,3^6", "4^2,2^3")]
    tops = [(s.terms, m) for s in sample for m in (6, 5) if s.n >= m]
    counts = placements_pose_reference_problems(monkeypatch, tops)
    assert len(tops) == 801 and sum(counts) == 731 and counts.count(0) == 70


def test_placement_tables_share_rows():
    # one class list per run shape of the top m terms (2**4 for m = 5, 2**5
    # for m = 6), all of them built from the same rows
    for d, m in top_tuples():
        search._class_list(tuple(a == b for a, b in zip(d, d[1:m])))
    assert search._class_list.cache_info().currsize == 16 + 32
    rows = {id(row) for m in (5, 6) for row in search._placements(m)}
    assert len(rows) == 15 + 45
    for m in (5, 6):
        for shape in itertools.product((False, True), repeat=m - 1):
            assert {id(row) for _, _, row in search._class_list(shape)} <= rows
    assert search._class_list.cache_info().currsize == 16 + 32


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


def test_an_equal_pattern_finds_its_target():
    # an unpickled pattern equals the registered one without being it
    copy = pickle.loads(pickle.dumps(K5_MINUS_C4))
    assert copy is not K5_MINUS_C4 and copy == K5_MINUS_C4
    assert oracle_decide_pattern(seq("4^5"), copy) is True
    assert oracle_decide_pattern(seq("4,2^5"), copy) is False
    rep = verify_range(5, copy)
    assert (rep.target, rep.total_sequences, rep.mismatches) == ("K5-C4", 20, [])


def exhaustive_only(s, pattern):
    # the reference: reference_complete alone, with the generic full
    # containment test, no dominance precheck, no placement witness, and no
    # leap, deferral or cut of search._complete
    accept = lambda adj, u: _contains_pattern_adj(adj, pattern, [a.bit_count() for a in adj])
    return reference_complete(s.terms, [0] * s.n, accept) is not None


def test_oracle_engines_agree_small():
    for target in TARGETS.values():
        for n in range(1, 9):
            for s in enumerate_graphic_sequences(n):
                assert oracle_decide(s, target) == exhaustive_only(s, target.pattern), (target.pattern.name, s.terms)


@pytest.fixture(scope="module")
def oracle_through_n9():
    # per target, the oracle's answer on every graphic sequence with n <= 9
    return {
        key: {s.terms: oracle_decide(s, target) for n in range(1, 10) for s in enumerate_graphic_sequences(n)}
        for key, target in TARGETS.items()
    }


def test_oracle_obeys_the_layoff_lemma(oracle_through_n9):
    # lay off the last term onto the largest others: when the child is
    # potentially H-graphic, so is the parent, since adding back the vertex,
    # joined to the lowered ones, keeps the copy of H.  No decider is asked
    pairs = 0
    for key, answers in oracle_through_n9.items():
        for terms, yes in answers.items():
            child = layoff(DegreeSequence(terms)).terms
            if child and answers[child]:
                pairs += 1
                assert yes, (key, terms, child)
    assert pairs == 6754


def low_children(terms):
    """The graphic children of ``terms``: its last term d laid off onto any d
    of the other terms, zeros stripped.  A child is fixed by how many terms
    of each run of equal terms it lowers, so each comes once."""
    rest, last = terms[:-1], terms[-1]
    runs = [(t, rest.count(t)) for t in sorted(set(rest), reverse=True)]
    kids = []

    def place(i, left, child):
        if i < len(runs):
            t, c = runs[i]
            for k in range(min(c, left) + 1):
                place(i + 1, left - k, child + [t] * (c - k) + [t - 1] * k)
        elif not left:
            s = DegreeSequence.of(child)
            if is_graphic(s):
                kids.append(s)

    place(0, last, [])
    return kids


def test_oracle_obeys_the_low_vertex_reduction(oracle_through_n9):
    # a vertex of degree below H's least degree m - 3 lies in no copy of H,
    # so deleting it keeps every copy: pi is potentially H-graphic iff some
    # graphic child is, where a child lays the last term off onto any d_n of
    # the other terms
    reduced = children = 0
    for key, answers in oracle_through_n9.items():
        least = TARGETS[key].pattern.vertex_count - 3
        for terms, yes in answers.items():
            if terms[-1] >= least:
                continue
            kids = [c.terms for c in low_children(terms)]
            reduced += 1
            children += len(kids)
            assert yes == any(answers[c] for c in kids if c), (key, terms, sorted(kids))
    assert (reduced, children) == (5149, 15020)


def decider_closure(key, ns):
    """Over the graphic sequences of the lengths ``ns`` whose last term is
    below the pattern's least degree: the count of each decider reason, the
    number of children, the sequences whose decider answer is not whether
    some child is decider-yes, and the number of sequences whose answer
    differs from their classical child's."""
    target = TARGETS[key]
    least = target.pattern.vertex_count - 3
    reasons = collections.Counter()
    children = classical = 0
    failures = []
    for n in ns:
        for s in enumerate_graphic_sequences(n):
            if s.terms[-1] >= least:
                continue
            verdict = target.decide(s)
            reasons[verdict.reason] += 1
            kids = low_children(s.terms)
            children += len(kids)
            if verdict.is_yes != any(target.decide(c).is_yes for c in kids):
                failures.append(render_notation(s))
            classical += verdict.is_yes != target.decide(layoff(s)).is_yes
    return dict(reasons), children, failures, classical


def test_decider_obeys_the_low_vertex_reduction():
    # the oracle test's statement with the decider on both sides, from the
    # pattern's vertex count: on a low sequence the decider says yes iff
    # some child is decider-yes.  The last count shows that a rule taking
    # only the classical child would be wrong
    k6 = {"OK": 37298, "COND1_D2": 2452, "COND1_D6": 2367, "COND2_SUM": 146, "COND2_RESIDUAL": 15,
          "COND3_FIXED": 12, "COND3_FAMILY_A": 4, "COND3_FAMILY_B": 3}
    k5 = {"OK": 24158, "COND1_D5": 253, "COND1_D1": 130, "COND2_FAMILY_KI": 43}
    assert (sum(k6.values()), sum(k5.values())) == (42297, 24584)
    assert decider_closure("k6-c4", range(6, 12)) == (k6, 197730, [], 436)
    assert decider_closure("k5-c4", range(5, 12)) == (k5, 79078, [], 77)


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=12..14 sweep")
def test_decider_obeys_the_low_vertex_reduction_n12_14():
    k6 = {"OK": 2107755, "COND1_D6": 11281, "COND1_D2": 6251, "COND2_SUM": 632, "COND2_RESIDUAL": 21,
          "COND3_FAMILY_A": 3, "COND3_FAMILY_B": 3}
    k5 = {"OK": 1227424, "COND1_D5": 421, "COND1_D1": 140, "COND2_FAMILY_KI": 72}
    assert (sum(k6.values()), sum(k5.values())) == (2125946, 1228057)
    assert decider_closure("k6-c4", range(12, 15)) == (k6, 15992220, [], 1070)
    assert decider_closure("k5-c4", range(12, 15)) == (k5, 5316743, [], 103)


@pytest.mark.parametrize("key", ["k6-c4", "k5-c4"])
@pytest.mark.parametrize("witness", ["wrong_degrees", "no_pattern", "padded"])
def test_oracle_checks_the_placement_witness(monkeypatch, key, witness):
    # a placement witness with other degrees than the sequence's (a complete
    # graph, which contains the pattern), with the right degrees but no copy
    # of the pattern, or with the right degrees on its first n rows and a
    # disjoint copy of the pattern on extra rows, must not turn a no into a yes
    def fake_placement(d, m):
        calls.append(d)
        if witness == "wrong_degrees":
            return list(complete_graph(len(d)).adj), (), ()
        adj = list(realize_graphic(DegreeSequence(tuple(d))).adj)
        if witness == "padded":
            adj += [row << len(d) for row in target.pattern.as_graph().adj]
        return adj, (), ()

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


def compare_cut_engine(monkeypatch, demands):
    # the oracle's search, with the bound-graph cut, against reference_complete,
    # which has none, on every demand whose sorted terms dominate the pattern's
    # degrees, as _oracle_pre lets through, for both targets.  Every graph
    # that accept sees must still have a completion; returns the number of
    # cuts and of cuts that undo a leap's landing set
    leap, bound_test, km_c4_accept = search._first_passing, search._bound_test, search._km_c4_accept
    seen = {"steps": 0, "leap": None, "cuts": 0, "leap_cuts": 0}

    def leaping(*args):
        landing = leap(*args)
        if landing is not None:
            seen["leap"] = seen["steps"]
        return landing

    def counting(demand, m):
        holds = bound_test(demand, m)

        def counted(adj, residual, u):
            ok = holds(adj, residual, u)
            if not ok:
                seen["cuts"] += 1
                # one accept call since the leap: the cut undoes its landing set
                seen["leap_cuts"] += seen["leap"] == seen["steps"] - 1
            return ok

        return counted

    def checked_accept(m):
        contains = km_c4_accept(m)

        def accept(adj, u):
            seen["steps"] += 1
            left = sorted((d - a.bit_count() for d, a in zip(demand, adj)), reverse=True)
            assert _eg_ok(left), (demand, adj)
            return contains(adj, u)

        return accept

    monkeypatch.setattr(search, "_first_passing", leaping)
    monkeypatch.setattr(search, "_bound_test", counting)
    monkeypatch.setattr(search, "_km_c4_accept", checked_accept)
    for demand in demands:
        empty = [0] * len(demand)
        top = sorted(demand, reverse=True)
        for target in TARGETS.values():
            degrees = target.pattern.degree_multiset
            if len(top) < len(degrees) or any(t < d for t, d in zip(top, degrees)):
                continue
            m = target.pattern.vertex_count
            got = _complete(demand, empty, m)
            assert got == reference_complete(demand, empty, km_c4_accept(m)), (target.pattern.name, demand)
    return seen["cuts"], seen["leap_cuts"]


def test_cut_engine_matches_reference_through_n9(monkeypatch):
    # every graphic sequence with n <= 9, as the oracle orders it; and with
    # n <= 8 in ascending order, where the first sets take the smallest
    # residuals, so nodes leap and some landing sets are cut
    demands = [s.terms for n in range(1, 10) for s in enumerate_graphic_sequences(n)]
    demands += [s.terms[::-1] for n in range(1, 9) for s in enumerate_graphic_sequences(n)]
    cuts, leap_cuts = compare_cut_engine(monkeypatch, demands)
    assert (cuts, leap_cuts) == (1112, 1)


def test_cut_of_a_leap_landing_set_checks_the_next_set(monkeypatch):
    # ascending n = 9 demands on which a cut undoes a leap's landing set: the
    # node's next set must be checked again, or the K6-C4 search goes on
    # from a graph that has no completion
    demands = [(2, 2, 3, 3, 4, 4, 6, 6, 6), (3, 3, 3, 3, 4, 5, 5, 5, 5), (2, 3, 3, 3, 4, 4, 5, 5, 5), (1, 1, 1, 3, 3, 4, 5, 5, 5)]
    assert compare_cut_engine(monkeypatch, demands) == (205, 8)


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=10..11 sweep")
def test_cut_engine_matches_reference_n10_n11(monkeypatch):
    demands = [s.terms for n in (10, 11) for s in enumerate_graphic_sequences(n)]
    cuts, _ = compare_cut_engine(monkeypatch, demands)
    assert cuts > 0


def bound_graph(adj, residual):
    # G+: the partial graph plus every pair of unsaturated vertices
    plus = list(adj)
    for a, b in itertools.combinations([v for v, r in enumerate(residual) if r], 2):
        plus[a] |= 1 << b
        plus[b] |= 1 << a
    return plus


def passes_without_search(demand, residual, u, m):
    k = sum(1 for r in residual if r)
    return demand[u] < m - 1 or sum(residual) == k * (k - 1)


def check_cut_against_capped_embedding(monkeypatch, lengths):
    # the oracle on every graphic sequence of the given lengths, for both
    # targets, with _bound_test wrapped: every call that passes neither
    # without-search case must answer as the generic capped embedder on G+;
    # returns the checked calls and cuts per pattern
    bound_test = search._bound_test
    seen = {}

    patterns = {target.pattern.vertex_count: target.pattern for target in TARGETS.values()}

    def checking(demand, m):
        holds = bound_test(demand, m)
        pattern = patterns[m]
        counts = seen.setdefault(pattern.name, [0, 0])

        def checked(adj, residual, u):
            got = holds(adj, residual, u)
            if passes_without_search(demand, residual, u, m):
                assert got is True
            else:
                expected = _contains_pattern_adj(bound_graph(adj, residual), pattern, caps=demand)
                assert got == expected, (pattern.name, demand, adj, residual, u)
                counts[0] += 1
                counts[1] += not got
            return got

        return checked

    monkeypatch.setattr(search, "_bound_test", checking)
    for target in TARGETS.values():
        for n in lengths:
            for s in enumerate_graphic_sequences(n):
                oracle_decide(s, target, bound=max(lengths))
    return seen


def test_cut_test_matches_capped_embedding_through_n9(monkeypatch):
    seen = check_cut_against_capped_embedding(monkeypatch, range(1, 10))
    checked, cuts = seen["K6-C4"]
    assert checked > cuts > 0
    assert seen["K5-C4"][0] > 0


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=10..11 sweep")
def test_cut_test_matches_capped_embedding_n10_n11(monkeypatch):
    seen = check_cut_against_capped_embedding(monkeypatch, (10, 11))
    assert seen["K6-C4"][1] > 0


def test_cut_test_matches_capped_embedding_random():
    # seeded random partial graphs, residuals and caps with n <= 9; the caps
    # cluster around m - 3..m - 1, where a host may take a quad vertex but
    # not a hub
    rng = random.Random(21)
    answers = {True: 0, False: 0}
    for _ in range(3000):
        pattern = rng.choice((K6_MINUS_C4, K5_MINUS_C4))
        m = pattern.vertex_count
        n = rng.randint(m, 9)
        adj = [0] * n
        p = rng.uniform(0.2, 0.9)
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        demand = [max(0, min(n - 1, m - 2 + rng.randint(-2, 2))) for _ in range(n)]
        residual = [rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n)]
        u = rng.randrange(n)
        if passes_without_search(demand, residual, u, m):
            continue
        got = search._bound_test(demand, m)(adj, residual, u)
        assert got == _contains_pattern_adj(bound_graph(adj, residual), pattern, caps=demand), (
            pattern.name, demand, adj, residual, u
        )
        answers[got] += 1
    assert min(answers.values()) > 100, answers


@pytest.mark.parametrize(
    "text,key", [("4^5,3^2,2^2", "k6-c4"), ("4^5", "k6-c4"), ("3^4,2", "k6-c4"), ("3^6", "k5-c4"), ("3^4", "k5-c4")]
)
def test_oracle_stops_at_a_sequence_without_dominance(monkeypatch, text, key):
    # no term, or too few terms, reach the pattern's degrees: the oracle
    # answers no with no placement, no search and no containment test, as
    # the exhaustive reference does after searching every realization
    s = seq(text)
    target = TARGETS[key]
    contains = search._km_c4_accept(target.pattern.vertex_count)

    def refused(*args):
        raise AssertionError(f"the oracle went past dominance on {text}")

    for name in ("_place_km_c4", "_complete", "_km_c4_accept"):
        monkeypatch.setattr(search, name, refused)
    assert oracle_decide(s, target) is False
    if key == "k6-c4":
        assert oracle_realization_k6c4(s) is None
    assert reference_complete(s.terms, [0] * s.n, contains) is None


def test_cut_saves_search_work(monkeypatch):
    # accept calls of the oracle on the seven slowest K6-C4 *no* sequences of
    # n = 9; without the cut they make 1,405, 1,259, 1,053, 1,014, 937, 201
    # and 198 calls
    contains = search._km_c4_accept(6)
    calls = []

    def counted(adj, u):
        calls.append(u)
        return contains(adj, u)

    monkeypatch.setattr(search, "_km_c4_accept", lambda m: counted)
    counts = {}
    for text in ("5^2,4,3^6", "5^2,4,3^5,1", "5^2,3^6,2", "5^2,3^5,2,1", "5^2,4^7", "6,5,3^7", "6,5,3^6,1"):
        del calls[:]
        assert oracle_decide_k6c4(seq(text)) is False
        counts[text] = len(calls)
    assert counts == {
        "5^2,4,3^6": 51,
        "5^2,4,3^5,1": 57,
        "5^2,3^6,2": 20,
        "5^2,3^5,2,1": 32,
        "5^2,4^7": 27,
        "6,5,3^7": 15,
        "6,5,3^6,1": 29,
    }


def test_realizer_makes_no_cut_test(monkeypatch):
    # the cut needs an empty base and the oracle's mode m > 0: the
    # realizer's completions (base edges, m = 0) never build the test
    built = []
    bound_test = search._bound_test

    def recorded(demand, m):
        built.append(m)
        return bound_test(demand, m)

    monkeypatch.setattr(search, "_bound_test", recorded)
    for n in range(5, 9):
        for s in enumerate_graphic_sequences(n):
            for decide, realize in ((decide_k6c4, realize_with_k6c4), (decide_k5c4, realize_with_k5c4)):
                if decide(s).is_yes:
                    realize(s)
    assert built == []
    assert oracle_decide_k6c4(seq("5^2,4,3^6")) is False
    assert built == [6]


# --- enumeration ------------------------------------------------------------


def test_enumeration_examples():
    assert [s.terms for s in enumerate_graphic_sequences(3)] == [(2, 2, 2), (2, 1, 1)]
    assert [s.terms for s in enumerate_graphic_sequences(2)] == [(1, 1)]
    n6 = [s.terms for s in enumerate_graphic_sequences(6)]
    assert (5, 5, 5, 5, 5, 5) in n6
    assert (5, 5, 3, 3, 3, 3) in n6


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_graphic_sequences(n)) for n in range(1, 9)] == [0, 1, 2, 7, 20, 71, 240, 871]


@pytest.mark.parametrize("n", [0, -1])
def test_enumeration_refuses_lengths_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_graphic_sequences(n)


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


def test_shards_cover_the_enumeration():
    # verify_range's shards, one per leading pair (d1, d2) in task order,
    # concatenate to the enumeration and to the plain filter over all tuples
    for n in range(1, 12):
        shards = [
            s.terms for a in range(n - 1, 0, -1) for b in range(a, 0, -1) for s in search._graphic_from(n, (a, b))
        ]
        plain = [
            t
            for t in itertools.combinations_with_replacement(range(n - 1, 0, -1), n)
            if sum(t) % 2 == 0 and _eg_ok(t)
        ]
        assert shards == [s.terms for s in enumerate_graphic_sequences(n)] == plain, n


# --- sigma, read off the verification sweep ----------------------------------


def test_sigma_search_n6():
    res = verify_range(6, K6_MINUS_C4)
    assert res.sigma == 26
    assert res.sigma_witness == "5^3,3^3"
    assert parse_notation(res.sigma_witness).sigma == 24


def test_sigma_search_n7_witness():
    res = verify_range(7, K6_MINUS_C4)
    assert res.sigma == 32
    assert res.sigma_witness == "6^3,3^4"


def test_sigma_search_k5c4():
    # the largest non-potential sum at n=5 is 14, first reached by the
    # family instance (4,4,2^3); frozen from the oracle-backed search
    res = verify_range(5, K5_MINUS_C4)
    assert res.sigma == 16
    assert res.sigma_witness == "4^2,2^3"
    assert parse_notation(res.sigma_witness).sigma == 14


def test_sigma_search_bound():
    with pytest.raises(OracleBoundError):
        verify_range(12, K6_MINUS_C4)


def test_sigma_comes_from_the_oracle_alone(monkeypatch):
    # a decider that always answers yes is wrong on every oracle no, and
    # sigma and its witness stay those of the oracle
    yes = decide_k6c4(seq("5^6"))
    monkeypatch.setitem(TARGETS, "k6-c4", dataclasses.replace(TARGETS["k6-c4"], decide=lambda s: yes))
    res = verify_range(7, K6_MINUS_C4)
    assert res.mismatches and all(m.decider == "yes" and not m.oracle for m in res.mismatches)
    assert res.sigma == 32
    assert res.sigma_witness == "6^3,3^4"


# --- verification -----------------------------------------------------------


@pytest.mark.parametrize("pattern", [K6_MINUS_C4, K5_MINUS_C4])
@pytest.mark.parametrize("n", [0, -3])
def test_verify_range_refuses_lengths_below_one(n, pattern):
    # as the enumeration does, not with an empty report
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify_range(n, pattern, progress=lambda done, total: pytest.fail("a shard ran"))


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


def test_serial_verify_passes_the_enumerated_sequences(monkeypatch):
    # a run builds each sequence once, in its shard's enumeration; a task
    # carries only the shard's leading pair
    trusted = DegreeSequence._trusted.__func__
    built = []

    def counted(cls, *args):
        built.append(args[0])
        return trusted(cls, *args)

    # the first run loads the decider's exception table, which parses
    verify_range(8, K6_MINUS_C4)
    monkeypatch.setattr(DegreeSequence, "_trusted", classmethod(counted))
    rep = verify_range(8, K6_MINUS_C4)
    assert rep.total_sequences == 871
    assert len(built) == 871


def test_serial_verify_streams_the_enumeration(monkeypatch):
    # no sequence is built more than one ahead of the oracle: the sweep
    # holds no list of the enumeration
    trusted = DegreeSequence._trusted.__func__
    oracle = search.oracle_decide
    built, ahead = [0], []

    def counted(cls, *args):
        built[0] += 1
        return trusted(cls, *args)

    def watched(s, target, bound):
        ahead.append(built[0] - len(ahead))
        return oracle(s, target, bound)

    # the first run loads the decider's exception table, which parses
    verify_range(9, K6_MINUS_C4)
    monkeypatch.setattr(DegreeSequence, "_trusted", classmethod(counted))
    monkeypatch.setattr(search, "oracle_decide", watched)
    rep = verify_range(9, K6_MINUS_C4)
    assert rep.total_sequences == len(ahead) == built[0] == 3148
    assert max(ahead) == 1


def test_verify_range_witness_is_the_first_across_shards(monkeypatch):
    # two oracle noes of equal, largest sum in the shards (6, 5) and (5, 5):
    # the later shard's witness does not replace the earlier one
    noes = {"5^4,4^2,2", "6,5^3,4^2,1"}
    monkeypatch.setattr(search, "oracle_decide", lambda s, target, bound: render_notation(s) not in noes)
    rep = verify_range(7, K6_MINUS_C4)
    assert rep.sigma == 32
    assert rep.sigma_witness == "6,5^3,4^2,1"


def test_verify_range_lists_mismatches_in_enumeration_order(monkeypatch):
    # a decider wrong on one sequence in each of the shards (6, 6) and (5, 5)
    yes, no = decide_k6c4(seq("5^6")), decide_k6c4(seq("5^2,4^6"))
    decide = TARGETS["k6-c4"].decide

    def wrong(s):
        verdict = decide(s)
        if render_notation(s) in {"5^2,4^5", "6^3,3^4"}:
            return no if verdict.is_yes else yes
        return verdict

    monkeypatch.setitem(TARGETS, "k6-c4", dataclasses.replace(TARGETS["k6-c4"], decide=wrong))
    rep = verify_range(7, K6_MINUS_C4)
    assert [m.sequence for m in rep.mismatches] == ["6^3,3^4", "5^2,4^5"]
    assert rep.agreements == rep.total_sequences - 2 == 238


def test_verify_range_caps_the_pool(monkeypatch):
    # a stand-in for multiprocessing.Pool that records its size and starts
    # no process
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    # at most one process per task: n = 5 has 10 shards, one per (d1, d2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert verify_range(5, K5_MINUS_C4, jobs=100_000).agreements == 20
    # and at most one per CPU the process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert verify_range(6, K6_MINUS_C4, jobs=100_000).agreements == 71
    assert verify_range(6, K6_MINUS_C4, jobs=2).agreements == 71
    # without an affinity call, the CPU count; a single CPU runs serially
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify_range(6, K6_MINUS_C4, jobs=100_000).agreements == 71
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify_range(6, K6_MINUS_C4, jobs=100_000).agreements == 71
    assert sizes == [10, 3, 2, 4]


@pytest.mark.parametrize("pattern", [K6_MINUS_C4, K5_MINUS_C4])
@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_range_length_without_sequences(monkeypatch, pattern, jobs):
    # n = 1 has no graphic sequence (zeros are stripped), so there is
    # nothing to split among workers and no pool to start
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    rep = verify_range(1, pattern, jobs=jobs)
    assert (rep.total_sequences, rep.agreements, rep.mismatches) == (0, 0, [])
    assert rep.sigma == 0 and rep.sigma_witness is None


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
    # one call per shard: (2, 2), (2, 1) and (1, 1), the last one empty
    assert calls == [(1, 3), (2, 3), (3, 3)]


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
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# --- public API -------------------------------------------------------------


def test_package_reexports_each_module_all():
    # the package's public names are exactly the union of its modules'
    # disjoint ``__all__`` lists, each the same object as in its module
    import potseq
    import potseq.characterize
    import potseq.graphs
    import potseq.sequences

    modules = (potseq.sequences, potseq.graphs, potseq.characterize, search)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    for module in modules:
        for name in module.__all__:
            assert getattr(potseq, name) is getattr(module, name), (module.__name__, name)
    public = {
        name
        for name, value in vars(potseq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(names)

import os
import random
from itertools import combinations

import pytest

from potseq.graphs import (
    Graph,
    K5_MINUS_C4,
    K6_MINUS_C4,
    TargetPattern,
    complete_graph,
    contains_pattern,
    cycle_graph,
    decode_graph6,
    degree_sequence_of,
    encode_graph6,
    find_km_minus_c4,
    from_edgelist,
    to_dot,
    to_edgelist,
    _find_km_minus_c4_adj,
    _matching_pair_in,
)
from potseq.search import _km_c4_accept

RUN_LONG = bool(os.environ.get("POTSEQ_RUN_LONG"))


def contains_k6c4(g):
    return find_km_minus_c4(g, 6) is not None


def k6_minus(removed):
    edges = [e for e in complete_graph(6).edges() if e not in set(removed)]
    return Graph.from_edges(6, edges)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# --- Graph basics -----------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="^adjacency length != n$"):
        Graph(3, (0, 0))
    with pytest.raises(ValueError, match="^loop at vertex 1$"):
        Graph.from_edges(3, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match="n >= 3"):
        cycle_graph(2)


def reference_check(n, adj):
    """Graph's checks as a plain scan, row by row and then pair by pair:
    raises the ValueError that names the first bad vertex or pair."""
    full = (1 << n) - 1
    for u, mask in enumerate(adj):
        if mask >> u & 1:
            raise ValueError(f"loop at vertex {u}")
        if mask & ~full:
            raise ValueError(f"neighbor bit out of range at vertex {u}")
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                raise ValueError(f"asymmetric adjacency at ({u},{v})")


def outcome(check, n, adj):
    """None if ``check(n, adj)`` accepts, else its ValueError's message."""
    try:
        check(n, adj)
    except ValueError as exc:
        return str(exc)
    return None


def assert_checked_like_reference(n, adj):
    expected = outcome(reference_check, n, adj)
    assert outcome(Graph, n, adj) == expected, (n, adj)
    if expected is None:
        assert Graph(n, adj).adj == adj


def test_graph_validation_names_first_asymmetric_pair():
    # random graphs on both sides of the packed check's 64-vertex cut, with
    # a few rows corrupted: a flipped pair, a loop bit, a bit at or above n,
    # a negative row
    rng = random.Random(17)
    for n in range(67):
        for _ in range(40):
            adj = list(random_graph(rng, n, rng.random()).adj)
            for _ in range(rng.randint(0, 3) if n else 0):
                u = rng.randrange(n)
                kind = rng.randrange(4)
                if kind == 0 and n > 1:
                    adj[u] ^= 1 << rng.choice([v for v in range(n) if v != u])
                elif kind == 1:
                    adj[u] |= 1 << u
                elif kind == 2:
                    adj[u] |= 1 << rng.randrange(n, max(n, 64) + 2)
                elif kind == 3:
                    adj[u] = -rng.randint(1, 1 << n + 1)
            assert_checked_like_reference(n, tuple(adj))
    # past the cut, with only the last rows corrupted, so that the first bad
    # pair comes after nearly every other pair in row order
    rng = random.Random(300)
    for n in range(65, 301, 15):
        for p in (0.02, 0.1, 0.5):
            for kinds in (1, 4):  # flipped pairs only, or any corruption
                adj = list(random_graph(rng, n, p).adj)
                for _ in range(rng.randint(0, 3)):
                    u, v = rng.sample(range(n - 6, n), 2)
                    kind = rng.randrange(kinds)
                    if kind == 0:
                        adj[u] ^= 1 << v
                    elif kind == 1:
                        adj[u] |= 1 << u
                    elif kind == 2:
                        adj[u] |= 1 << rng.randrange(n, n + 70)
                    else:
                        adj[u] = -rng.randint(1, 1 << n + 1)
                assert_checked_like_reference(n, tuple(adj))


def test_graph_validation_exhaustive_n5():
    # every labeled graph on at most 5 vertices, and each one-bit
    # corruption of a row: a flipped pair, a loop bit or the bit at n
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])
            assert_checked_like_reference(n, g.adj)
            for u in range(n):
                for bit in range(n + 1):
                    adj = list(g.adj)
                    adj[u] ^= 1 << bit
                    assert_checked_like_reference(n, tuple(adj))


def test_packed_check_alone_decides_up_to_64_vertices():
    # the scan runs only after the packed check fails, so on its own the
    # packed check must accept every simple graph and refuse any one-bit
    # corruption of it, and any negative row
    from potseq.graphs import _simple_by_transpose

    rng = random.Random(64)
    for n in range(65):
        for _ in range(10):
            adj = random_graph(rng, n, rng.random()).adj
            assert _simple_by_transpose(adj, n)
            if not n:
                continue
            u = rng.randrange(n)
            for row, bad in (
                (u, adj[u] ^ 1 << rng.randrange(66)),
                (n - 1, adj[n - 1] | 1 << n - 1),  # the last diagonal bit
                (u, adj[u] | 1 << n),
                (u, -rng.randint(1, 1 << n)),
            ):
                corrupted = adj[:row] + (bad,) + adj[row + 1 :]
                assert not _simple_by_transpose(corrupted, n)


def test_graph_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 1, 0)
    assert [g.degree(u) for u in range(4)] == [1, 2, 1, 0]
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.num_edges == 2
    assert g.neighbors(1) == (0, 2)


@pytest.mark.parametrize("bad", [-1, -4, 4, 9])
def test_graph_accessors_reject_out_of_range_vertices(bad):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    message = rf"^vertex {bad} out of range for n=4$"
    for call in (
        lambda: g.has_edge(bad, 2),
        lambda: g.has_edge(2, bad),
        lambda: g.has_edge(bad, bad),
        lambda: g.degree(bad),
        lambda: g.neighbors(bad),
    ):
        with pytest.raises(ValueError, match=message):
            call()


# --- patterns ---------------------------------------------------------------


def test_k6c4_pattern_invariants():
    assert K6_MINUS_C4.vertex_count == 6
    assert len(K6_MINUS_C4.edges) == 11
    assert K6_MINUS_C4.degree_multiset == (5, 5, 3, 3, 3, 3)


def test_k5c4_pattern_invariants():
    assert K5_MINUS_C4.vertex_count == 5
    assert len(K5_MINUS_C4.edges) == 6
    assert K5_MINUS_C4.degree_multiset == (4, 2, 2, 2, 2)


def test_pattern_is_k6_minus_a_4cycle():
    cycle = {(2, 3), (3, 4), (4, 5), (2, 5)}
    expected = sorted(e for e in complete_graph(6).edges() if e not in cycle)
    assert sorted(K6_MINUS_C4.edges) == expected


# --- containment ------------------------------------------------------------


def test_contains_k6c4_fixtures():
    assert contains_k6c4(complete_graph(6))
    assert contains_k6c4(K6_MINUS_C4.as_graph())
    assert not contains_k6c4(cycle_graph(6))
    assert not contains_k6c4(complete_graph(5))


def test_contains_k6c4_containment_chain():
    assert contains_k6c4(k6_minus([(0, 1), (2, 3)]))  # two disjoint edges removed
    assert contains_k6c4(k6_minus([(0, 1)]))  # one edge removed
    assert contains_k6c4(k6_minus([(0, 1), (1, 2)]))  # path with 2 edges removed


def test_contains_k6c4_tripartite_plus_apex():
    # complete tripartite 1,2,2 with a sixth vertex joined to all five
    parts = [[0], [1, 2], [3, 4]]
    edges = [
        (u, v)
        for a, b in combinations(range(3), 2)
        for u in parts[a]
        for v in parts[b]
    ]
    edges += [(5, v) for v in range(5)]
    assert contains_k6c4(Graph.from_edges(6, edges))


def test_witness_roles_verify():
    g = k6_minus([(0, 1), (2, 3)])
    w = find_km_minus_c4(g, 6)
    assert w is not None
    h1, h2 = w.hubs
    assert g.has_edge(h1, h2)
    for a, b in w.pairs:
        assert g.has_edge(a, b)
        for hub in w.hubs:
            assert g.has_edge(hub, a) and g.has_edge(hub, b)
    assert len(set(w.hosts)) == 6


def test_find_km_minus_c4_k5():
    assert find_km_minus_c4(K5_MINUS_C4.as_graph(), 5) is not None
    assert find_km_minus_c4(cycle_graph(5), 5) is None


@pytest.mark.parametrize("m", [4, 7])
def test_find_km_minus_c4_refuses_other_m(m):
    with pytest.raises(ValueError):
        find_km_minus_c4(complete_graph(8), m)


def test_contains_pattern_fixtures():
    assert contains_pattern(complete_graph(6), K6_MINUS_C4)
    assert contains_pattern(K5_MINUS_C4.as_graph(), K5_MINUS_C4)
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert not contains_pattern(star, K6_MINUS_C4)


def test_contains_pattern_refuses_patterns_past_ten_vertices():
    path = TargetPattern("P11", 11, tuple((i, i + 1) for i in range(10)))
    with pytest.raises(ValueError, match="too large"):
        contains_pattern(complete_graph(11), path)


def test_contains_equivalence_exhaustive_n6():
    pairs = list(combinations(range(6), 2))
    for mask in range(1 << 15):
        adj = [0] * 6
        m, i = mask, 0
        while m:
            if m & 1:
                u, v = pairs[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            m >>= 1
            i += 1
        g = Graph(6, tuple(adj))
        assert contains_k6c4(g) == contains_pattern(g, K6_MINUS_C4), g.adj
        assert (find_km_minus_c4(g, 5) is not None) == contains_pattern(g, K5_MINUS_C4), g.adj


def test_contains_equivalence_random_n8():
    rng = random.Random(7)
    for _ in range(10_000):
        g = random_graph(rng, 8, p=rng.choice([0.3, 0.5, 0.7]))
        assert contains_k6c4(g) == contains_pattern(g, K6_MINUS_C4), g.adj


def test_one_hub_finder_matches_contains_random_n7_n8():
    # the K5-C4 oracle's containment test rests on this finder
    rng = random.Random(11)
    for _ in range(10_000):
        g = random_graph(rng, rng.choice([7, 8]), p=rng.choice([0.3, 0.5, 0.7]))
        assert (find_km_minus_c4(g, 5) is not None) == contains_pattern(g, K5_MINUS_C4), g.adj


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield adj


def matching_pair_reference(adj, common):
    # the list-based search the bitmask version replaced
    members = [v for v in range(max(common.bit_length(), 1)) if common >> v & 1]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not adj[a] >> b & 1:
                continue
            rest = [v for v in members if v not in (a, b)]
            for j, c in enumerate(rest):
                others = [d for d in rest[j + 1 :] if adj[c] >> d & 1]
                if others:
                    return ((a, b), (c, others[-1]))
    return None


# (full test, test of the copies through u) for each containment routine
ANCHORED_TESTS = {
    "K6-C4 finder": (
        lambda adj: _find_km_minus_c4_adj(adj, 2) is not None,
        lambda adj, u: _find_km_minus_c4_adj(adj, 2, adj[u] | 1 << u) is not None,
    ),
    "one-hub finder": (
        lambda adj: _find_km_minus_c4_adj(adj, 1) is not None,
        lambda adj, u: _find_km_minus_c4_adj(adj, 1, adj[u] | 1 << u) is not None,
    ),
    "K6-C4 oracle test": (
        lambda adj: _km_c4_accept(6)(adj, -1),
        _km_c4_accept(6),
    ),
    "K5-C4 oracle test": (
        lambda adj: _km_c4_accept(5)(adj, -1),
        _km_c4_accept(5),
    ),
}


def check_anchored_contract(adj):
    # the oracle asks about the copies through u only after the graph
    # without u's edges had none; then the answer must be the full one
    n = len(adj)
    for name, (full, through) in ANCHORED_TESTS.items():
        whole = full(adj)
        for u in range(n):
            if not whole:
                assert not through(adj, u), (name, adj, u)
                continue
            cut = [a & ~(1 << u) for a in adj]
            cut[u] = 0
            if not full(cut):
                assert through(adj, u), (name, adj, u)


def test_anchored_containment_exhaustive_n6():
    for n in range(1, 7):
        for adj in all_graphs(n):
            check_anchored_contract(adj)


def test_anchored_containment_random_n7_n8():
    rng = random.Random(23)
    for _ in range(3_000):
        g = random_graph(rng, rng.choice([7, 8]), p=rng.choice([0.4, 0.6, 0.8]))
        check_anchored_contract(list(g.adj))


@pytest.mark.slow
@pytest.mark.skipif(not RUN_LONG, reason="set POTSEQ_RUN_LONG=1 for the n=9..10 finder sweep")
def test_finders_and_anchored_contract_random_n9_n10():
    rng = random.Random(31)
    for _ in range(60_000):
        g = random_graph(rng, rng.choice([9, 10]), p=rng.choice([0.3, 0.5, 0.7, 0.9]))
        for m, pattern in ((6, K6_MINUS_C4), (5, K5_MINUS_C4)):
            assert (find_km_minus_c4(g, m) is not None) == contains_pattern(g, pattern), (m, g.adj)
        check_anchored_contract(list(g.adj))


def test_matching_pair_matches_list_reference():
    # every vertex set of every graph on 5 vertices, the whole of every graph
    # on 6, and random sets with gaps in larger graphs
    for adj in all_graphs(5):
        for common in range(32):
            assert _matching_pair_in(adj, common) == matching_pair_reference(adj, common), (adj, common)
    for adj in all_graphs(6):
        assert _matching_pair_in(adj, 63) == matching_pair_reference(adj, 63), adj
    rng = random.Random(29)
    for _ in range(10_000):
        g = random_graph(rng, rng.randint(7, 12), p=rng.random())
        common = rng.getrandbits(g.n)
        assert _matching_pair_in(g.adj, common) == matching_pair_reference(g.adj, common)


# --- degree sequence --------------------------------------------------------


def test_degree_sequence_of():
    assert degree_sequence_of(complete_graph(6)).terms == (5,) * 6
    assert degree_sequence_of(K6_MINUS_C4.as_graph()).terms == (5, 5, 3, 3, 3, 3)
    assert degree_sequence_of(cycle_graph(6)).terms == (2,) * 6
    lonely = Graph.from_edges(3, [(0, 1)])
    assert degree_sequence_of(lonely).terms == (1, 1)
    assert degree_sequence_of(lonely).stripped_zeros == 1


# --- graph6 -----------------------------------------------------------------


def test_graph6_fixed_points():
    assert encode_graph6(Graph(1, (0,))) == "@"
    assert encode_graph6(complete_graph(2)) == "A_"


def test_graph6_round_trip_random():
    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, p=rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_header_tolerated():
    g = complete_graph(4)
    assert decode_graph6(">>graph6<<" + encode_graph6(g)) == g


@pytest.mark.parametrize("bad", ["", "A", "A_extra", "A\x1f"])
def test_graph6_rejects_malformed(bad):
    # "\x1f" is whitespace to str.strip(), but a bad byte to graph6
    with pytest.raises(ValueError, match="byte out of range" if bad == "A\x1f" else None):
        decode_graph6(bad)


def test_graph6_strips_only_ascii_whitespace():
    assert decode_graph6(" E}zO\r\n") == decode_graph6("E}zO")


@pytest.mark.parametrize(
    "text, message",
    [
        ("A!", "byte out of range: '!'"),
        ("A\x7f", "byte out of range"),
        ("~??~", "long-form graph6 not supported"),
        # str.strip() would drop these as whitespace
        ("E}zO\x1f", r"byte out of range: '\\x1f'"),
        ("E}zO\u3000", r"byte out of range: '\\u3000'"),
    ],
)
def test_graph6_names_what_it_refuses(text, message):
    with pytest.raises(ValueError, match=message):
        decode_graph6(text)


def test_graph6_rejects_nonzero_padding():
    with pytest.raises(ValueError):
        decode_graph6("A" + chr(63 + 1))  # only the top bit may be used for n=2


def test_graph6_large_n_refused():
    with pytest.raises(ValueError):
        encode_graph6(Graph(63, (0,) * 63))


# --- text formats -----------------------------------------------------------


def test_edgelist_round_trip():
    g = K6_MINUS_C4.as_graph()
    text = to_edgelist(g, comments=["hosts: 0 1 2 3 4 5"])
    assert text.startswith("# hosts")
    assert from_edgelist(text) == g


def test_edgelist_requires_header():
    with pytest.raises(ValueError):
        from_edgelist("0 1\n")


def test_edgelist_rejects_a_bad_edge_line():
    with pytest.raises(ValueError, match=r"^bad edge line: '0 1 2'$"):
        from_edgelist("n=3\n0 1\n0 1 2\n")


def test_dot_output():
    text = to_dot(complete_graph(3), comments=["triangle"])
    assert "graph g {" in text and "0 -- 1;" in text and "// triangle" in text

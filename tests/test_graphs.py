import random
from itertools import combinations

import pytest

from potseq.graphs import (
    Graph,
    K5_MINUS_C4,
    K6_MINUS_C4,
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
    _contains_pattern_adj,
    _find_km_minus_c4_adj,
    _matching_pair_in,
    _orbit_anchors,
)


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


def first_asymmetric_pair(n, adj):
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                return u, v
    return None


def test_graph_validation_names_first_asymmetric_pair():
    # random symmetric graphs with a few bits flipped, against a plain scan
    # of the pairs in order
    rng = random.Random(17)
    for _ in range(5_000):
        n = rng.randint(1, 9)
        adj = list(random_graph(rng, n, rng.random()).adj)
        for _ in range(rng.randint(0, 3) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            adj[u] ^= 1 << v
        pair = first_asymmetric_pair(n, adj)
        if pair is None:
            assert Graph(n, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError, match=rf"^asymmetric adjacency at \({pair[0]},{pair[1]}\)$"):
                Graph(n, tuple(adj))


def test_graph_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 1, 0)
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


def test_contains_pattern_fixtures():
    assert contains_pattern(complete_graph(6), K6_MINUS_C4)
    assert contains_pattern(K5_MINUS_C4.as_graph(), K5_MINUS_C4)
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert not contains_pattern(star, K6_MINUS_C4)


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
        lambda adj: _find_km_minus_c4_adj(adj, len(adj), 2) is not None,
        lambda adj, u: _find_km_minus_c4_adj(adj, len(adj), 2, adj[u] | 1 << u) is not None,
    ),
    "one-hub finder": (
        lambda adj: _find_km_minus_c4_adj(adj, len(adj), 1) is not None,
        lambda adj, u: _find_km_minus_c4_adj(adj, len(adj), 1, adj[u] | 1 << u) is not None,
    ),
    "generic K6-C4": (
        lambda adj: _contains_pattern_adj(adj, len(adj), K6_MINUS_C4),
        lambda adj, u: _contains_pattern_adj(adj, len(adj), K6_MINUS_C4, u),
    ),
    "generic K5-C4": (
        lambda adj: _contains_pattern_adj(adj, len(adj), K5_MINUS_C4),
        lambda adj, u: _contains_pattern_adj(adj, len(adj), K5_MINUS_C4, u),
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


def test_orbit_anchors():
    # hubs and quad vertices are the two orbits of either pattern
    for pattern in (K6_MINUS_C4, K5_MINUS_C4):
        anchors = _orbit_anchors(pattern)
        assert [steps[0][0] for steps in anchors] == [pattern.vertex_count - 1, pattern.vertex_count - 3]
        assert all(len(steps) == pattern.vertex_count for steps in anchors)


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
    with pytest.raises(ValueError):
        decode_graph6(bad)


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


def test_dot_output():
    text = to_dot(complete_graph(3), comments=["triangle"])
    assert "graph g {" in text and "0 -- 1;" in text and "// triangle" in text

"""Small simple graphs (adjacency bitmasks), fixed-pattern containment, file formats.

Vertices are dense 0-based labels.  All predicates are label-respecting
searches over vertex maps; "contains" always means a not-necessarily-induced
subgraph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .sequences import DegreeSequence

__all__ = [
    "Graph",
    "TargetPattern",
    "PatternWitness",
    "K6_MINUS_C4",
    "K5_MINUS_C4",
    "complete_graph",
    "cycle_graph",
    "find_km_minus_c4",
    "contains_pattern",
    "degree_sequence_of",
    "encode_graph6",
    "decode_graph6",
    "to_edgelist",
    "from_edgelist",
    "to_dot",
]


# The adjacency of up to 64 vertices as a 64x64 bit matrix, one row per
# 64-bit stride: bit c of row r sits at 64 * r + c.  _DIAG holds the loop
# bits; delta swap j exchanges bit (r, c + j) with bit (r + j, c), 63 * j
# places higher, wherever bit j of both r and c is 0, and the six swaps for
# j = 32, 16, ..., 1 transpose the matrix (Warren, Hacker's Delight, 7-3).
_DIAG = sum(1 << 65 * i for i in range(64))
_SWAPS = tuple(
    (63 * j, sum(1 << c for c in range(64) if c & j) * sum(1 << 64 * r for r in range(64) if not r & j))
    for j in (32, 16, 8, 4, 2, 1)
)


def _simple_by_transpose(adj: tuple[int, ...], n: int) -> bool:
    """Whether the rows ``adj`` of n <= 64 vertices are an adjacency matrix
    with no loop, no bit at or above n, and equal to its transpose."""
    try:
        t = packed = int.from_bytes(struct.pack(f"<{n}Q", *adj), "little")
    except struct.error:  # a negative row, or a bit at or above 64
        return False
    if packed & _DIAG:
        return False
    for shift, mask in _SWAPS:
        x = ((t >> shift) ^ t) & mask
        t ^= x ^ (x << shift)
    # a bit at or above n lands in a row past n, which packed leaves empty
    return t == packed


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph; ``adj[u]`` is a neighbor bitmask.

    Construction checks the rows by one of two routes.  With at most 64
    vertices they are packed into a 64x64 bit matrix, and a few big-integer
    operations test the rows' range, find loops and compare the matrix with
    its transpose.  Past 64 vertices, and whenever that test fails, one pass
    over the rows names the first bad vertex or pair: it compares each
    row's bits below the diagonal with the column bits that earlier rows
    set.  The cut follows from the input size: a packed test's masks and
    operands grow as the square of its stride (32 MiB per mask for the
    2**14-bit stride that n = 10**4 needs), while the pass takes a few
    steps per vertex and per edge, which on the sparse graphs of long
    sequences is far less work.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n:
            raise ValueError("adjacency length != n")
        adj = self.adj
        if self.n <= 64 and _simple_by_transpose(adj, self.n):
            return
        # below[v] holds the rows u < v with bit v; at row v it is complete,
        # and its bits that differ from row v's are the asymmetric pairs (u, v)
        full = (1 << self.n) - 1
        below = [0] * self.n
        first = (self.n, 0)  # the least (u, v), u < v, found asymmetric
        for u, mask in enumerate(adj):
            bit = 1 << u
            if mask & bit:
                raise ValueError(f"loop at vertex {u}")
            if mask & ~full:
                raise ValueError(f"neighbor bit out of range at vertex {u}")
            odd = (mask & bit - 1) ^ below[u]
            if odd:
                first = min(first, ((odd & -odd).bit_length() - 1, u))
            rest = mask >> u + 1
            while rest:
                low = rest & -rest
                rest ^= low
                below[u + low.bit_length()] |= bit
        if first[0] < self.n:
            raise ValueError(f"asymmetric adjacency at ({first[0]},{first[1]})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return tuple(v for v in range(self.n) if self.adj[u] >> v & 1)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@dataclass(frozen=True)
class TargetPattern:
    """A fixed small pattern: vertex count plus edge list on 0..vertex_count-1."""

    name: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property  # computed once: the oracle reads it on every call
    def degree_multiset(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg, reverse=True))

    def as_graph(self) -> Graph:
        return Graph.from_edges(self.vertex_count, self.edges)


def _km_minus_c4_pattern(m: int, name: str) -> TargetPattern:
    # K_m with the 4-cycle on its last four vertices removed: what is left
    # among those four is the diagonal perfect matching.
    hubs = range(m - 4)
    quad = list(range(m - 4, m))
    edges = [(u, v) for u in hubs for v in range(u + 1, m)]
    edges += [(quad[0], quad[2]), (quad[1], quad[3])]
    return TargetPattern(name, m, tuple(sorted(edges)))


K6_MINUS_C4 = _km_minus_c4_pattern(6, "K6-C4")
K5_MINUS_C4 = _km_minus_c4_pattern(5, "K5-C4")


@dataclass(frozen=True, slots=True)
class PatternWitness:
    """Host vertices of an embedded K_m - C4: hub(s) plus the matched pairs."""

    hubs: tuple[int, ...]
    pairs: tuple[tuple[int, int], tuple[int, int]]

    @property
    def hosts(self) -> tuple[int, ...]:
        flat = list(self.hubs) + [v for p in self.pairs for v in p]
        return tuple(sorted(flat))


def _matching_pair_in(adj: Sequence[int], common: int) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two disjoint edges inside the vertex set ``common`` (a bitmask): the
    first edge (a, b) in lexicographic order that leaves one, and with it
    the lowest vertex c of the rest that has a neighbor in the rest, paired
    with its highest such neighbor d."""
    above_a = common
    while above_a:
        low_a = above_a & -above_a
        above_a ^= low_a
        a = low_a.bit_length() - 1
        bs = adj[a] & above_a
        while bs:
            low_b = bs & -bs
            bs ^= low_b
            # c's neighbors in the rest all lie above it, or a lower vertex
            # would have had one
            cs = common ^ low_a ^ low_b
            while cs:
                low_c = cs & -cs
                cs ^= low_c
                c = low_c.bit_length() - 1
                other = adj[c] & cs
                if other:
                    return ((a, low_b.bit_length() - 1), (c, other.bit_length() - 1))
    return None


def _find_km_minus_c4_adj(adj: Sequence[int], hub_count: int, hubs: int | None = None) -> PatternWitness | None:
    """First K_m - C4 (m = hub_count + 4, hub_count 1 or 2, unchecked)
    whose hubs all lie in the bitmask ``hubs`` (default: every vertex),
    hubs in ascending order.

    Every copy through a vertex u has its hubs in N[u]: u is a hub and the
    others are its neighbors, or u is a quad vertex adjacent to every hub.
    So ``hubs = adj[u] | 1 << u`` finds a copy whenever one contains u.  A
    hub has degree at least m - 1, so lower-degree vertices are skipped
    without changing which witness comes first.
    """
    need = hub_count + 3
    rest = (1 << len(adj)) - 1 if hubs is None else hubs
    while rest:
        low = rest & -rest
        rest ^= low
        u1 = low.bit_length() - 1
        nb = adj[u1]
        if nb.bit_count() < need:
            continue
        if hub_count == 1:
            pairs = _matching_pair_in(adj, nb)
            if pairs is not None:
                return PatternWitness((u1,), pairs)
            continue
        # second hub: a neighbor above u1 among the allowed hubs
        seconds = nb & rest
        while seconds:
            low2 = seconds & -seconds
            seconds ^= low2
            common = nb & adj[low2.bit_length() - 1]
            if common.bit_count() >= 4:
                pairs = _matching_pair_in(adj, common)
                if pairs is not None:
                    return PatternWitness((u1, low2.bit_length() - 1), pairs)
    return None


def find_km_minus_c4(g: Graph, m: int) -> PatternWitness | None:
    """Witness for a K_m - C4 subgraph (m in {5, 6}), or None."""
    if m not in (5, 6):
        raise ValueError("only K5-C4 and K6-C4 are supported")
    return _find_km_minus_c4_adj(g.adj, m - 4)


@lru_cache(maxsize=16)  # bounded: contains_pattern takes any pattern
def _embedding_steps(pattern: TargetPattern) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The order in which ``_contains_pattern_adj`` maps pattern vertices:
    per step, the vertex's pattern degree and the earlier steps whose
    vertices it must be adjacent to."""
    p = pattern.vertex_count
    pdeg = [0] * p
    padj = [0] * p
    for u, v in pattern.edges:
        pdeg[u] += 1
        pdeg[v] += 1
        padj[u] |= 1 << v
        padj[v] |= 1 << u
    # assign high-degree pattern vertices first, preferring ones adjacent to
    # already-assigned vertices so edge constraints bite early
    order = []
    placed = 0
    for _ in range(p):
        best = -1
        best_key = (-1, -1)
        for x in range(p):
            if placed >> x & 1:
                continue
            key = ((padj[x] & placed).bit_count(), pdeg[x])
            if key > best_key:
                best_key = key
                best = x
        order.append(best)
        placed |= 1 << best
    return tuple(
        (pdeg[x], tuple(j for j, y in enumerate(order[:idx]) if padj[x] >> y & 1))
        for idx, x in enumerate(order)
    )


def _contains_pattern_adj(adj: Sequence[int], pattern: TargetPattern, caps: Sequence[int]) -> bool:
    """Whether the graph contains ``pattern`` with every pattern vertex on a
    host whose cap ``caps[v]`` is at least its pattern degree; with each
    host's degree as its cap, whether the graph contains the pattern."""
    if pattern.vertex_count > len(adj):
        return False
    steps = _embedding_steps(pattern)
    return _embed(adj, caps, steps, [-1] * len(steps), 0, (1 << len(adj)) - 1)


def _embed(
    adj: Sequence[int],
    caps: Sequence[int],
    steps: tuple[tuple[int, tuple[int, ...]], ...],
    assign: list[int],
    idx: int,
    free: int,
) -> bool:
    """Map steps ``idx``.. onto the host vertices in the bitmask ``free``,
    given the hosts ``assign[:idx]`` of the earlier steps; a step's host
    must have a cap of at least its pattern degree."""
    if idx == len(steps):
        return True
    need, back = steps[idx]
    cands = free
    for j in back:
        cands &= adj[assign[j]]
    while cands:
        low = cands & -cands
        cands ^= low
        v = low.bit_length() - 1
        if caps[v] >= need:
            assign[idx] = v
            if _embed(adj, caps, steps, assign, idx + 1, free ^ low):
                return True
    return False


def contains_pattern(g: Graph, pattern: TargetPattern) -> bool:
    """Injective vertex map preserving all pattern edges (brute force)."""
    if pattern.vertex_count > 10:
        raise ValueError("pattern too large for brute-force containment")
    # a list, not g.degrees(): a tuple built from a generator is resized,
    # and freed into a free list it never takes from, which keeps growing
    return _contains_pattern_adj(g.adj, pattern, [a.bit_count() for a in g.adj])


def degree_sequence_of(g: Graph) -> DegreeSequence:
    """Sorted degree sequence, zeros stripped and counted."""
    return DegreeSequence.of(g.degrees())


def encode_graph6(g: Graph) -> str:
    """Standard graph6: byte n+63, then the upper triangle column by column
    packed into 6-bit groups, each +63.  Short form only (n <= 62)."""
    if g.n > 62:
        raise ValueError("short-form graph6 supports n <= 62")
    bits: list[int] = []
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            bits.append(col >> u & 1)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        value = 0
        for bit in group:
            value = value << 1 | bit
        out.append(chr(value + 63))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    """Exact inverse of :func:`encode_graph6`, up to ASCII whitespace around it."""
    s = text.strip(" \t\n\r\v\f")  # string.whitespace; a bare strip() also drops \x1c-\x1f
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6 byte out of range: {ch!r}")
    n = ord(s[0]) - 63
    if n > 62:
        raise ValueError("long-form graph6 not supported")
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(s) != expected:
        raise ValueError(f"graph6 length {len(s)} != expected {expected} for n={n}")
    bits: list[int] = []
    for ch in s[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits")
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(n, tuple(adj))


def to_edgelist(g: Graph, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n={g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            n = int(line[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("missing n=<k> header")
    return Graph.from_edges(n, edges)


def to_dot(g: Graph, comments: Sequence[str] = ()) -> str:
    lines = ["graph g {"]
    lines.extend(f"  // {c}" for c in comments)
    lines.extend(f"  {u};" for u in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"

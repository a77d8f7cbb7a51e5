"""Exhaustive search machinery: realization construction, the brute-force
potential-subgraph oracle, graphic-sequence enumeration, and
decider-vs-oracle verification, which also reads off the sigma threshold.

One completion engine, ``_complete``, builds every realization: the
oracle's, the realizer's and ``realize_graphic``'s.  It saturates one
vertex at a time (largest residual first, neighbor sets in lexicographic
order) with an Erdos-Gallai feasibility check on the non-zero residual
demands after each step.  Every edge it adds has a saturated end,
so unsaturated vertices are adjacent only through edges of the starting
graph, and a step finds its candidates from the residuals and that graph
alone, without a scan of the partial graph.  Candidates with equal
residual and equal adjacency mask are twins, and swapping two twins maps
the partial graph and residuals onto themselves; so of the neighbor sets
that differ only in which twins they take, just the first in
lexicographic order is expanded (orbit pruning in the style of McKay,
"Isomorph-free exhaustive generation", 1998).  The
search is still exhaustive up to isomorphism: every realization is
isomorphic to one in the pruned tree, and the oracle's containment test does
not change under isomorphism.  The first success in the pruned tree is the
first in the full tree, so certificates are the same as without pruning.

A node whose first four neighbor sets fail the check does not test the
sets after them one by one: ``_first_passing`` computes the first later set
that passes.  It rests on one lemma: if laying ``u`` off onto a set S passes,
so does laying it off onto any S' whose residuals are at least as large,
member for member.  Passing depends only on the residuals a set takes,
and a chain of swaps leads from those of S to those of S', each trading an
a in S for a b outside it with res(b) > res(a); so one swap is enough.  It
moves one unit from the term res(b) of the laid-off sequence to its
smaller term res(a) - 1.  In a realization of that sequence b has degree
at least deg(a) + 2, so it has a neighbor w outside N[a]; replacing the
edge bw by aw realizes the sequence laid off onto S - a + b.  The sets the
search expands do not change.  Every set up to the fourth fails: the sets
the scan skipped take a twin without its earlier twins, and swapping twins
back leads to one it tested, with the same residuals.  So the leap
lands on the first passing set in lexicographic order, and the scan would
accept that set first: it takes no twin without its earlier twins, since
the twin swap would give an earlier set with the same residuals, which
would pass.  The node's iterator then resumes after the landing set, so a
later backtrack (after a dead end, or in the oracle's exhaustive *no*
search) scans on exactly as before.

The oracle, ``oracle_decide``, answers *no* when the sorted terms do not
dominate the pattern's sorted degrees; decider/oracle agreement on the
deciders' condition (1) therefore holds by construction, and the brute-force
test over all graphs with n <= 6 is its independent check.  It then tries
the realizer's placement of the pattern on the top vertices as a witness,
checked by degrees and the full containment test, and otherwise searches.
Every *no* past dominance comes from that search, whose graph starts empty:
unsaturated vertices are then never adjacent to each other, so the residual
check is exact, no branch is a dead end, and the search stops at the first
partial graph that contains the pattern.

The oracle's test is ``accept(adj, u)`` (a full test for ``u = -1``), called
after every step with ``u`` the vertex that step saturated.  The parent
graph had no copy of the pattern (the root is empty) and the new edges all
touch ``u``, so only copies through ``u`` need to be looked for.
Both patterns are K_m - C4 (m = 6 and m = 5), and one test serves both: the
K_m - C4 finder with m - 4 hubs (``_km_c4_accept``).  The hubs of a copy
through ``u`` lie in N[u], since ``u`` is a hub or a quad vertex joined to
every hub, so the finder takes its hubs from there, once ``u`` has at
least the pattern's least degree (3 for K6-C4, 2 for K5-C4).  The engine
keeps its frames on an explicit stack, so Python's recursion limit does
not bound the length of a sequence.

The oracle's search also cuts the steps below which no partial graph can
hold the pattern.  Call a vertex unsaturated while its residual is
non-zero.  The bound graph G+ of a node is its graph plus every pair of
unsaturated vertices, and each vertex ``v`` gets the cap ``demand[v]``,
its degree in every completion.  Lemma: every partial graph H below the
node is a subgraph of G+, with deg_H(v) <= demand[v].  Proof: a vertex
saturated at the node stays saturated below it, and a step joins its
vertex u, unsaturated until then, to unsaturated candidates; so every edge
added below the node joins two vertices that are unsaturated at the node,
and lies in G+.  The base is empty, so no degree passes its demand.  Hence
if H contains the pattern, the pattern embeds in G+ with every pattern
vertex on a host whose cap is at least its pattern degree.  After a step
on which ``accept`` fails, the search looks for such an embedding
(``_bound_test``, with the K_m - C4 finder that ``accept`` runs, on G+
restricted by the caps); when there is none, ``accept``, which holds exactly
on the graphs that contain the pattern, fails on every partial graph
below, and the step is undone like a dead end.  The cut subtrees hold no
success, so the first success is the same as without the cut, and so are
the oracle's answers and realizations.  Skipping the test is always safe:
the ways in which it is skipped, or passes without a search, are in
``_bound_test``'s docstring.

``verify_range`` streams the enumeration in shards, one per leading pair
(d1, d2) of terms.  Each shard is a contiguous run of the enumeration, so
the shards' results, merged in task order, are those of one pass over it,
in this process or in a pool, and no list of sequences is ever built.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import combinations, combinations_with_replacement, compress, dropwhile
from operator import eq, ge, sub
from typing import Callable, Iterator, Sequence

from .characterize import Verdict, decide_k5c4, decide_k6c4, sigma_formula_k6c4
from .graphs import Graph, K5_MINUS_C4, K6_MINUS_C4, PatternWitness, TargetPattern, _find_km_minus_c4_adj
from .sequences import DegreeSequence, _eg_ok, is_graphic, render_notation

__all__ = [
    "DEFAULT_ORACLE_BOUND",
    "OracleBoundError",
    "NotPotentialError",
    "EmbeddingFailure",
    "RealizationCertificate",
    "Mismatch",
    "VerificationReport",
    "realize_graphic",
    "realize_with_k6c4",
    "realize_with_k5c4",
    "oracle_decide",
    "oracle_decide_k6c4",
    "oracle_realization_k6c4",
    "oracle_decide_pattern",
    "enumerate_graphic_sequences",
    "verify_range",
    "Target",
    "TARGETS",
]

DEFAULT_ORACLE_BOUND = 10


class OracleBoundError(RuntimeError):
    """Refusal to run an exhaustive search above the configured bound."""


class NotPotentialError(ValueError):
    """Constructor called on a sequence the decider rejected."""

    def __init__(self, verdict: Verdict) -> None:
        self.verdict = verdict
        super().__init__(f"sequence is not potentially {verdict.target}-graphic: {verdict.reason}")


class EmbeddingFailure(RuntimeError):
    """No embedded realization completes; a bug signal on decider-yes input."""


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise OracleBoundError(f"n = {n} exceeds the exhaustive-search bound {bound}")


# ---------------------------------------------------------------------------
# plain realization


def realize_graphic(seq: DegreeSequence) -> Graph:
    """Deterministic realization of a graphic sequence: the completion
    engine's first completion of the empty graph, which never dead-ends
    there (see ``_complete``)."""
    if not is_graphic(seq):
        raise ValueError(f"not graphic: {render_notation(seq)}")
    return Graph(seq.n, tuple(_complete(seq.terms, [0] * seq.n, None)))


# ---------------------------------------------------------------------------
# exhaustive completion search


_Accept = Callable[[list[int], int], bool]


def _complete(
    demand: Sequence[int], base: Sequence[int], accept: _Accept | None, pattern: TargetPattern | None = None
) -> list[int] | None:
    """Add edges to the graph ``base`` (adjacency bitmasks) until every
    vertex ``v`` has gained ``demand[v]`` new neighbors.

    With ``accept`` None, returns the adjacency of the first completion in
    search order, or None when there is none (``realize_graphic`` calls it
    so on an empty base, where no step dead-ends).  Otherwise returns the
    first partial graph on which ``accept`` holds, or None when no
    completion satisfies it.  ``accept`` must be monotone under edge addition,
    invariant under isomorphism and false on the empty graph, and ``base``
    must be empty: only then does the Erdos-Gallai check prove that a
    partial graph can be completed.

    With ``pattern`` given, a K_m - C4, ``accept`` must hold exactly on the
    graphs that contain it.  The search then returns None at once when the
    sorted demand does not dominate the pattern's sorted degrees: the
    root's bound graph is the complete graph on the unsaturated vertices,
    and no copy of the pattern fits its caps.  A step on which ``accept`` fails is cut,
    undone like a dead end, when no copy of the pattern fits the bound graph
    (``_bound_test``; the lemma and its proof are in the module
    docstring).  A step that joins ``u`` to every unsaturated vertex leaves
    the bound graph as it was, so it is not tested.  A cut clears the mark
    that a leap's landing set passed, so the node's next set is checked
    again.  The realizers pass no pattern and never build the test.

    ``accept(adj, u)`` is called after each step that saturates ``u`` by
    adding the edges from ``u`` to a neighbor set, before the search goes
    deeper.  Each step's parent graph failed the test or is the empty base,
    and the test is monotone, so any copy of the pattern in the new graph
    uses a new edge, and every new edge touches ``u``: a test that only
    looks at copies through ``u`` is exact.

    Every edge the search adds has a saturated end: it joins the step's
    ``u``, whose residual stays 0 while its frame is open, to a neighbor.
    So two unsaturated vertices are adjacent only through an edge of
    ``base``, and a step's candidates are the other unsaturated vertices
    minus ``base[u]``, found without a scan of ``adj``; the filter runs
    only when ``base[u]`` is non-zero (the realizer's top m vertices;
    never in the oracle's search or ``realize_graphic``, whose base is
    empty).  The Erdos-Gallai check after a step looks at the non-zero
    residuals only: a saturated vertex adds a zero term, which changes no
    inequality.

    A node saturates a vertex ``u`` with the largest residual ``r``.  That
    residual is read off the head of the live terms that the parent's check
    has just sorted; only at the root, and after a leap's landing set,
    which is not checked, is it found by ``max``.  Each saturated vertex
    has a frame on an explicit stack: ``[u, r, cands, combinations
    iterator, twin map, set applied, sets failed]``, the last None once a
    set of the node has passed.  The first set, ``cands[:r]``, never takes
    a twin without its earlier twins, so it is tried as the node opens.
    The iterator and the twin map (slots 3 and 4) stay None until the node
    first backtracks, which most nodes never do; then the iterator is
    built and advanced past the first set, and the twin map is built.  The
    next sets are tried in turn; when the first four have failed, the node
    leaps to the first set that passes (``_first_passing``) without
    testing the sets in between, and the frame's iterator is advanced past
    it, so a later backtrack resumes the scan where it would have stood.
    A short run of failing sets is cheaper to scan than to leap over, so
    the leap waits for the fourth failure.  The module docstring proves
    the lemma the leap rests on, and that the leap expands the same sets
    as the scan.
    """
    if sum(demand) % 2:
        return None
    adj = list(base)
    n = len(adj)
    residual = list(demand)
    holds = None
    if pattern is not None:
        # the root's bound graph: no copy of the pattern fits its caps
        if not _dominates(sorted(demand, reverse=True), pattern.degree_multiset):
            return None
        holds = _bound_test(demand, pattern)
    # the next node's largest residual: the head of the live terms the check
    # has just sorted, or their max where no check ran (at the root, and
    # after a leap's landing set)
    top = max(residual) if n else 0
    stack: list[list] = []
    while True:
        # open a node on the current graph and take its first neighbor set;
        # ``passed``: the set is known to pass the check
        passed = False
        combo = None
        r = top
        if r == 0:
            if accept is None:
                return adj
        else:
            u = residual.index(r)
            # unsaturated vertices are adjacent only through base edges
            residual[u] = 0
            cands = list(compress(range(n), residual))
            if base[u]:
                cands = [v for v in cands if not base[u] >> v & 1]
            if r <= len(cands):
                frame = [u, r, cands, None, None, (), 0]
                stack.append(frame)
                combo = tuple(cands[:r])
            else:
                residual[u] = r
        while True:
            if combo is None:
                # backtrack: the next set of the deepest open node
                if not stack:
                    return None
                frame = stack[-1]
                u, r, cands, combos, twin_before, applied, _ = frame
                # u had no edge to any candidate, so XOR clears just the step's
                bit = 1 << u
                for v in applied:
                    adj[u] ^= 1 << v
                    adj[v] ^= bit
                    residual[v] += 1
                if combos is None:
                    # the node's first backtrack: resume after its first set
                    combos = frame[3] = combinations(cands, r)
                    next(combos)
                    twin_before = frame[4] = _twin_before(adj, residual, cands)
                combo = _next_set(combos, twin_before)
                if combo is None:
                    residual[u] = r
                    stack.pop()
                    continue
            for v in combo:
                residual[v] -= 1
            # on the live terms: zeros change no inequality.  Exact when
            # unsaturated vertices are pairwise non-adjacent (empty base);
            # otherwise it ignores base pairs and is merely necessary
            live = None if passed else sorted(filter(None, residual), reverse=True)
            if not (passed or _eg_ok(live)):
                for v in combo:
                    residual[v] += 1
                frame[5] = ()
                failed = frame[6]
                if failed is not None:
                    failed = frame[6] = failed + 1
                if failed == 4:
                    # the node's first four sets failed, so every set up
                    # to this one fails: leap to the first that passes
                    frame[6] = None
                    combo = _first_passing(residual, cands, r, combo)
                    passed = combo is not None
                    frame[3] = dropwhile(combo.__ge__, combos) if passed else iter(())
                else:
                    combo = None
                continue
            top = max(residual) if passed else live[0] if live else 0
            frame[5] = combo
            frame[6] = None
            bit = 1 << u
            nb = adj[u]
            for v in combo:
                nb |= 1 << v
                adj[v] |= bit
            adj[u] = nb
            if accept is not None:
                if accept(adj, u):
                    return adj
                if holds is not None and r < len(cands) and not holds(adj, residual, u):
                    # cut: undo the step like a dead end, and check the
                    # next set even if this one was a leap's landing set
                    combo = None
                    passed = False
                    continue
            break


def _bound_test(demand: Sequence[int], pattern: TargetPattern) -> Callable[[list[int], list[int], int], bool]:
    """The oracle search's cut test ``holds(adj, residual, u)``, for a step
    that has just saturated ``u``: False only when the pattern has no
    embedding in the bound graph G+ (``adj`` plus every pair of unsaturated
    vertices) with each pattern vertex on a host whose cap ``demand[v]`` is
    at least its pattern degree.  The module docstring proves that no
    partial graph below such a step holds the pattern.

    Every registered pattern is K_m - C4, whose hubs have degree m - 1 and
    whose quad vertices have degree m - 3.  So a capped copy has its hubs
    on hosts with cap >= m - 1 and all its vertices on hosts with cap
    >= m - 3, and the test is the K_m - C4 finder on G+ with every row
    masked to the hosts ``able`` (cap >= m - 3), its hubs taken from the
    hosts ``hubs`` (cap >= m - 1).

    The test passes without a search in two cases.  After a step on a
    vertex whose cap is below m - 1: the cuts come from saturating the
    vertices that can be hubs, and the small *no* searches, which seldom
    cut, pay for every test.  And when the residuals ask for exactly a
    clique on the k unsaturated vertices (k - 1 each, a leaf when k = 0):
    the one completion left is G+ itself, and the steps below test it.
    The masks are built on the first call, which many searches never make.
    """
    n = len(demand)
    m = pattern.vertex_count
    bits: list[int] = []
    masks: list[int] = []

    def holds(adj: list[int], residual: list[int], u: int) -> bool:
        if demand[u] < m - 1:
            return True
        if not bits:
            bits.extend([1 << v for v in range(n)])
            masks.append(sum(b for b, x in zip(bits, demand) if x >= m - 3))
            masks.append(sum(b for b, x in zip(bits, demand) if x >= m - 1))
        unsat = sum(compress(bits, residual))
        k = unsat.bit_count()
        if sum(residual) == k * (k - 1):
            return True
        able, hubs = masks
        plus = [(a | unsat ^ b if r else a) & able for a, b, r in zip(adj, bits, residual)]
        return _find_km_minus_c4_adj(plus, n, m - 4, hubs) is not None

    return holds


def _twin_before(adj: list[int], residual: list[int], cands: list[int]) -> list[int]:
    """Per candidate, the bit of its previous twin (equal residual and
    adjacency mask) among ``cands``, or 0."""
    last: dict[tuple[int, int], int] = {}
    twin_before = [0] * len(adj)
    for v in cands:
        key = (residual[v], adj[v])
        if key in last:
            twin_before[v] = 1 << last[key]
        last[key] = v
    return twin_before


def _next_set(combos: Iterator[tuple[int, ...]], twin_before: list[int]) -> tuple[int, ...] | None:
    """The next set from ``combos`` that takes no twin without its earlier
    twins, or None."""
    for combo in combos:
        taken = 0
        for v in combo:
            if twin_before[v] & ~taken:
                break
            taken |= 1 << v
        else:
            return combo
    return None


def _first_passing(residual: list[int], cands: list[int], r: int, after: tuple[int, ...]) -> tuple[int, ...] | None:
    """The first set of ``r`` candidates after ``after``, in the order of
    ``combinations(cands, r)``, whose lay-off passes the Erdos-Gallai check,
    or None; ``after`` and every set before it must fail.

    Passing depends only on the residuals a set takes, and by the lemma in
    the module docstring it is monotone in them.  So a prefix has a passing
    extension if and only if its best extension, by the largest residuals
    at later positions, passes.  The sets after ``after`` that keep its
    first j members come before those that keep fewer, so j is tried from
    r - 1 down: the first j with a candidate after ``after``'s j-th member
    whose best extension passes keeps that candidate, and the later slots
    are filled in order, each with the first candidate that still has a
    passing extension.  At a slot, a candidate whose residual is no larger
    than one that failed there is dominated and skipped, and so is every
    candidate after one that fails while holding the largest residual
    left.  Once a passing extension is known to exist, a candidate holding
    the largest residual left needs no test: the slot's passing extensions
    all start at or after it.
    """
    k = len(cands)
    vals = [residual[v] for v in cands]

    def passes(chosen: list[int], start: int) -> bool:
        # the positions ``chosen`` with the largest residuals from ``start`` on
        if len(chosen) < r:
            chosen += sorted(range(start, k), key=vals.__getitem__, reverse=True)[: r - len(chosen)]
        for p in chosen:
            residual[cands[p]] -= 1
        ok = _eg_ok(sorted(filter(None, residual), reverse=True))
        for p in chosen:
            residual[cands[p]] += 1
        return ok

    def first(prefix: list[int], lo: int, failed: int, sure: bool) -> int | None:
        # the first candidate from position lo on to follow ``prefix`` with a
        # passing extension, or None; ``sure``: such a candidate exists
        for q in range(lo, k - r + len(prefix) + 1):
            x = vals[q]
            if x <= failed:
                continue
            top = max(vals[q:])  # the slot's largest residual left
            if sure and top == x or passes(prefix + [q], q + 1):
                return q
            if top == x:  # every later candidate is dominated
                return None
            failed = x
        return None

    # every set keeping t[:j+1] fails, so only a residual larger than t[j]'s
    # can take slot j
    t = [cands.index(v) for v in after]
    for j in range(r - 1, -1, -1):
        q = first(t[:j], t[j] + 1, vals[t[j]], False)
        if q is not None:
            break
    else:
        return None
    prefix = t[:j] + [q]
    while len(prefix) < r:
        prefix.append(first(prefix, prefix[-1] + 1, -1, True))
    # from a list: a tuple built from a generator is resized, and freed
    # into a free list it never takes from, which keeps growing
    return tuple([cands[p] for p in prefix])


def _oracle_pre(seq: DegreeSequence, target: Target, bound: int) -> bool:
    """Refuse sequences above the bound or not graphic; then whether the
    sorted terms dominate the pattern's sorted degrees, which any graph
    containing the pattern must do."""
    _check_bound(seq.n, bound)
    if not is_graphic(seq):
        raise ValueError(f"oracle requires a graphic sequence, got {render_notation(seq)}")
    return _dominates(seq.terms, target.pattern.degree_multiset)


def _dominates(terms: Sequence[int], degrees: tuple[int, ...]) -> bool:
    """Whether the non-increasing ``terms`` dominate the non-increasing
    ``degrees`` term by term, with at least as many terms."""
    return len(terms) >= len(degrees) and all(map(ge, terms, degrees))


def _km_c4_accept(pattern: TargetPattern) -> _Accept:
    """The oracle's containment test ``accept(adj, u)`` for K_m - C4, from
    the K_m - C4 finder with m - 4 hubs.  A copy through u has its hubs in
    N[u], and puts u on a vertex of at least the pattern's least degree."""
    hub_count = pattern.vertex_count - 4
    least = pattern.degree_multiset[-1]

    def accept(adj: list[int], u: int) -> bool:
        if u < 0:
            return _find_km_minus_c4_adj(adj, len(adj), hub_count) is not None
        nb = adj[u]
        if nb.bit_count() < least:
            return False
        return _find_km_minus_c4_adj(adj, len(adj), hub_count, nb | 1 << u) is not None

    return accept


def oracle_decide(seq: DegreeSequence, target: Target, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Ground truth for "potentially ``target.pattern``-graphic": *no* if
    the terms do not dominate the pattern's degrees; *yes* if the completed
    top-vertex placement has exactly the sequence's degrees and the full
    containment test finds the pattern in it; else the exhaustive search's
    answer.  So the answer never depends on the placement claim."""
    if not _oracle_pre(seq, target, bound):
        return False
    found = _place_km_c4(seq.terms, target.pattern.vertex_count)
    if found is not None:
        adj = found[0]
        # every row: a padded witness must not pass on its first n rows
        # a display: see _place_km_c4
        if (*map(int.bit_count, adj),) == seq.terms and target.accept(adj, -1):
            return True
    return _complete(seq.terms, [0] * seq.n, target.accept, target.pattern) is not None


def oracle_decide_k6c4(seq: DegreeSequence, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """``oracle_decide`` for K6 - C4."""
    return oracle_decide(seq, TARGETS["k6-c4"], bound)


def oracle_decide_pattern(seq: DegreeSequence, pattern: TargetPattern, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """``oracle_decide`` for a registered pattern; ValueError otherwise."""
    return oracle_decide(seq, TARGETS[_key_of(pattern)], bound)


def oracle_realization_k6c4(seq: DegreeSequence, bound: int = DEFAULT_ORACLE_BOUND) -> Graph | None:
    """Some realization containing K6 - C4, or None if none exists: the
    first in the exhaustive search's order, never the placement witness."""
    target = TARGETS["k6-c4"]
    if not _oracle_pre(seq, target, bound):
        return None
    adj = _complete(seq.terms, [0] * seq.n, target.accept, target.pattern)
    if adj is None:
        return None
    residual = [d - a.bit_count() for d, a in zip(seq.terms, adj)]
    # the residual passed the exact Erdos-Gallai check, so this completes
    adj = _complete(residual, adj, None)
    if adj is None:
        raise AssertionError("feasible residual had no extension")
    return Graph(seq.n, tuple(adj))


# ---------------------------------------------------------------------------
# embedded realization (pattern placed on the top-degree vertices)


@dataclass(frozen=True)
class RealizationCertificate(PatternWitness):
    """A realization with K_m - C4 placed on the first m vertices: the
    roles (hubs and pairs, whose union is ``hosts``) and the graph."""

    graph: Graph

    def role_edges(self) -> list[tuple[int, int]]:
        edges = set()
        for h in self.hubs:
            for x in self.hosts:
                if x != h:
                    edges.add((min(h, x), max(h, x)))
        for a, b in self.pairs:
            edges.add((min(a, b), max(a, b)))
        return sorted(edges)

    def revalidate(self, seq: DegreeSequence) -> None:
        """Check degrees and the stated embedding.

        The role edges are checked by masks; only when one is missing does
        the edge-by-edge scan run, to name the first missing edge.  A role
        vertex outside 0..n-1 makes its role edges missing.  Then the roles
        must be m = len(hubs) + 4 distinct hosts, split into the hubs and
        two disjoint pairs that cover the rest: only then do the role edges
        form K_m - C4."""
        n = self.graph.n
        adj = self.graph.adj
        # the positive degrees, sorted: the terms of the graph's DegreeSequence
        if tuple(sorted(filter(None, map(int.bit_count, adj)), reverse=True)) != seq.terms:
            raise EmbeddingFailure("certificate degrees do not match the sequence")
        hosts = self.hosts
        m = len(self.hubs) + 4
        split = sum(map(len, self.pairs)) == 4 and len(set(hosts)) == m
        found = split and min(hosts) >= 0 and max(hosts) < n
        if found:
            mask = sum(1 << x for x in hosts)
            found = all((adj[h] | 1 << h) & mask == mask for h in self.hubs) and all(
                adj[a] >> b & 1 for a, b in self.pairs
            )
        if not found:
            for u, v in self.role_edges():
                if not (0 <= u < n and 0 <= v < n and adj[u] >> v & 1):
                    raise EmbeddingFailure(f"certificate is missing role edge ({u},{v})")
            if not split:
                raise EmbeddingFailure(
                    f"certificate roles are not {m} distinct hosts split into hubs and two disjoint pairs"
                )


class _Placement(tuple):
    """One placement of K_m - C4 on hosts 0..m-1, which is the pair
    (hubs, pairs) in the certificate's form: the hubs ascend, each pair
    ascends, and the pairs are in order.  It carries per host its base row
    and its demand offset (m - 1 for a hub, m - 3 for a quad vertex)."""

    def __new__(cls, m: int, hubs: tuple[int, ...], pairs: tuple) -> _Placement:
        self = super().__new__(cls, (hubs, pairs))
        top = (1 << m) - 1
        hub_mask = sum(1 << h for h in hubs)
        self.base = [top ^ 1 << v if v in hubs else hub_mask for v in range(m)]
        for a, b in pairs:
            self.base[a] |= 1 << b
            self.base[b] |= 1 << a
        self.offsets = tuple(m - 1 if v in hubs else m - 3 for v in range(m))
        return self


@cache
def _placements(m: int) -> list[_Placement]:
    """Every placement on hosts 0..m-1 in placement order: the hub sets of
    ``combinations``, each with the pairings of its quad vertices in the
    order (0,2,1,3), (0,1,2,3), (0,3,1,2).  Built on first use, not at
    import, like the class lists."""
    rows = []
    for hubs in combinations(range(m), m - 4):
        quad = [v for v in range(m) if v not in hubs]
        # diagonal pairing first so a zero-demand completion reproduces the
        # pattern constant exactly
        for a, b, c, e in ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2)):
            rows.append(_Placement(m, hubs, ((quad[a], quad[b]), (quad[c], quad[e]))))
    return rows


@cache
def _class_list(shape: tuple[bool, ...]) -> list[tuple[int, int, _Placement]]:
    """The placements that open a class, in placement order, with their
    last hub and last quad vertex, for top terms of run shape ``shape``
    (``shape[i]``: whether terms i and i + 1 are equal).

    Two placements whose hubs have equal multisets of terms, and whose
    pairs equal multisets of term pairs, pose isomorphic completion
    problems; only the first of each class is tried.  Classes are a
    function of the run shape: a key compares terms only through sorting
    and equality, and relabeling each top term by minus its run index is
    injective and order-preserving, so it keeps equal keys equal and
    unequal keys unequal."""
    m = len(shape) + 1
    d = [0]  # each top term relabeled by minus its run index
    for same in shape:
        d.append(d[-1] - (not same))
    seen = set()
    classes = []
    for row in _placements(m):
        hubs, pairs = row
        key = tuple(sorted(d[h] for h in hubs)), tuple(sorted(tuple(sorted((d[p], d[q]))) for p, q in pairs))
        if key not in seen:
            seen.add(key)
            classes.append((hubs[-1], max(map(max, pairs)), row))
    return classes


def _place_km_c4(d: Sequence[int], m: int) -> tuple[list[int], _Placement] | None:
    """The first completion, in placement order, of a graph with degrees
    ``d`` (non-increasing, at least m terms) that has K_m - C4 on vertices
    0..m-1, as (adjacency, placement); None when no placement completes.

    It tries the first placement of each class (see ``_class_list``) that
    passes the bounds: the last hub's term is >= m - 1 and the last quad
    vertex's >= m - 3.  Hubs ascend and ``d`` is non-increasing, so these
    are the least terms of their roles.  A hub's demand is its term minus m - 1, a quad
    vertex's its term minus m - 3, and the tail's its terms, so the bounds
    hold exactly when no demand is negative.  A class key fixes both least
    terms, so a class passes or fails as a whole: skipping the rows that
    fail tries the first member of each passing class, as deduplicating
    the passing placements would."""
    tail = d[m:]
    zeros = [0] * len(tail)
    # a display, not tuple(map(...)): a tuple built from an iterator is
    # resized, and freed into a free list it never takes from
    for h, q, row in _class_list((*map(eq, d, d[1:m]),)):
        if d[h] >= m - 1 and d[q] >= m - 3:
            adj = _complete([*map(sub, d, row.offsets), *tail], row.base + zeros, None)
            if adj is not None:
                return adj, row
    return None


def realize_with_k6c4(seq: DegreeSequence) -> RealizationCertificate:
    """Realization with K6 - C4 on the six largest-degree vertices.

    Enforces the closed-form decider first, raising NotPotentialError on a
    *no*.  Raises EmbeddingFailure when no placement completes, which for
    decider-yes input indicates a bug.
    """
    return TARGETS["k6-c4"].realize(seq)


def realize_with_k5c4(seq: DegreeSequence) -> RealizationCertificate:
    """Realization with K5 - C4 on the five largest-degree vertices."""
    return TARGETS["k5-c4"].realize(seq)


# ---------------------------------------------------------------------------
# enumeration, verification


def enumerate_graphic_sequences(n: int) -> Iterator[DegreeSequence]:
    """All graphic sequences with n positive terms, lexicographically decreasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _graphic_from(n, ())


def _graphic_from(n: int, head: tuple[int, ...]) -> Iterator[DegreeSequence]:
    """The graphic sequences of length n that start with ``head``, in
    enumeration order (``head`` non-increasing, its terms in 1..n-1)."""
    for rest in combinations_with_replacement(range(head[-1] if head else n - 1, 0, -1), n - len(head)):
        terms = head + rest
        if sum(terms) % 2 == 0 and _eg_ok(terms):
            yield DegreeSequence._trusted(terms, 0, True)


@dataclass(frozen=True)
class Mismatch:
    sequence: str
    decider: str
    decider_reason: str
    oracle: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "oracle": "yes" if self.oracle else "no"}


@dataclass
class VerificationReport:
    """Per-length comparison of the closed-form decider with the oracle.

    ``sigma`` is the smallest even s such that every graphic sequence of
    length n with sum >= s is potentially target-graphic: 2 more than the
    largest sum of an oracle *no*, or 0 if there is none.  ``sigma_witness``
    renders the first sequence in enumeration order with that largest sum,
    or is None.  Both come from the oracle's answers alone, so they do not
    depend on the decider.
    """

    n: int
    target: str
    total_sequences: int
    mismatches: list[Mismatch] = field(default_factory=list)
    wall_time: float = 0.0
    sigma: int = 0
    sigma_witness: str | None = None

    @property
    def agreements(self) -> int:
        return self.total_sequences - len(self.mismatches)

    def to_dict(self) -> dict:
        mismatches = [m.to_dict() for m in self.mismatches]
        return {**asdict(self), "agreements": self.agreements, "mismatches": mismatches}

    def summary(self) -> str:
        return (
            f"n={self.n} target={self.target}: {self.total_sequences} sequences checked, "
            f"{len(self.mismatches)} mismatches"
        )


def _verify_shard(task: tuple[int, tuple[int, int], str, int]) -> tuple[int, list[Mismatch], DegreeSequence | None]:
    """Decider and oracle on the sequences of length n that start with
    ``head``: their count, the mismatches in enumeration order, and the
    first oracle *no* of largest sum (or None)."""
    n, head, key, bound = task
    target = TARGETS[key]
    count = 0
    mismatches: list[Mismatch] = []
    best: DegreeSequence | None = None
    for seq in _graphic_from(n, head):
        count += 1
        verdict = target.decide(seq)
        oracle = oracle_decide(seq, target, bound)
        if verdict.is_yes != oracle:
            mismatches.append(Mismatch(render_notation(seq), verdict.decision, verdict.reason, oracle))
        if not oracle and (best is None or seq.sigma > best.sigma):
            best = seq
    return count, mismatches, best


def verify_range(
    n: int,
    target: TargetPattern = K6_MINUS_C4,
    bound: int = DEFAULT_ORACLE_BOUND,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> VerificationReport:
    """Run decider and oracle on every graphic sequence of length n, and
    read sigma and its witness off the oracle's *no* answers.

    ``_verify_shard`` runs one shard per leading pair (d1, d2), serially or
    in a pool of at most ``jobs`` processes, one per shard and one per CPU
    this process may run on.  Shard results are merged in enumeration
    order, a witness replacing the current one only on a strictly larger
    sum, so reports are identical for any ``jobs`` value, and memory does
    not grow with the number of sequences.  ``progress(done, total)``
    counts shards.
    """
    _check_bound(n, bound)
    start = time.perf_counter()
    key = _key_of(target)
    tasks = [(n, (a, b), key, bound) for a in range(n - 1, 0, -1) for b in range(a, 0, -1)]
    total = 0
    mismatches: list[Mismatch] = []
    best: DegreeSequence | None = None  # the first oracle *no* of largest sum
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
    pool = None
    if workers > 1:
        from multiprocessing import Pool  # imported here: a serial run never pays for it

        pool = Pool(processes=workers)
    with pool or nullcontext():
        results = pool.imap(_verify_shard, tasks) if pool else map(_verify_shard, tasks)
        for done, (count, shard_mismatches, witness) in enumerate(results, 1):
            total += count
            mismatches += shard_mismatches
            if witness is not None and (best is None or witness.sigma > best.sigma):
                best = witness
            if progress is not None:
                progress(done, len(tasks))
    return VerificationReport(
        n=n,
        target=target.name,
        total_sequences=total,
        mismatches=mismatches,
        wall_time=time.perf_counter() - start,
        sigma=0 if best is None else best.sigma + 2,
        sigma_witness=None if best is None else render_notation(best),
    )


# ---------------------------------------------------------------------------
# target registry


@dataclass(frozen=True)
class Target:
    """What potseq knows about one pattern: its closed-form decider, the
    containment test ``accept(adj, u)`` that ``oracle_decide`` runs (a full
    test for ``u = -1``, else only copies through ``u``; for both registered
    patterns, ``_km_c4_accept``) and, when the paper gives one, its sigma
    formula.  The minimum sequence length is ``pattern.vertex_count``."""

    pattern: TargetPattern
    decide: Callable[[DegreeSequence], Verdict]
    accept: _Accept
    sigma_formula: Callable[[int], int] | None

    def realize(self, seq: DegreeSequence) -> RealizationCertificate:
        """The realizer: K_m - C4 on the m largest-degree vertices, for the
        sequences ``decide`` accepts (none shorter than m)."""
        verdict = self.decide(seq)
        if not verdict.is_yes:
            raise NotPotentialError(verdict)
        m = self.pattern.vertex_count
        found = _place_km_c4(seq.terms, m)
        if found is None:
            raise EmbeddingFailure(
                f"no embedded realization of {render_notation(seq)} completes on the top {m} vertices"
            )
        adj, row = found
        cert = RealizationCertificate(*row, Graph(seq.n, tuple(adj)))
        cert.revalidate(seq)
        return cert


TARGETS = {
    "k6-c4": Target(K6_MINUS_C4, decide_k6c4, _km_c4_accept(K6_MINUS_C4), sigma_formula_k6c4),
    "k5-c4": Target(K5_MINUS_C4, decide_k5c4, _km_c4_accept(K5_MINUS_C4), None),
}


def _key_of(pattern: TargetPattern) -> str:
    # by identity first: callers mostly pass a registered pattern, and ``==``
    # compares names and edge tuples
    for key, target in TARGETS.items():
        if target.pattern is pattern:
            return key
    for key, target in TARGETS.items():
        if target.pattern == pattern:
            return key
    raise ValueError(f"no registered target for pattern {pattern.name!r}")

"""Exhaustive search machinery: realization construction, the brute-force
potential-subgraph oracle, graphic-sequence enumeration, sigma thresholds,
and decider-vs-oracle verification.

One completion engine, ``_complete``, serves the oracle and the realizer.
It saturates one vertex at a time (largest residual first, neighbor sets in
lexicographic order) with an Erdos-Gallai feasibility check on the non-zero
residual demands after each step.  Every edge it adds has a saturated end,
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

The oracle's test is ``accept(adj, u)``: called once on the base with
``u = -1`` (a full test), then after every step, with ``u`` the vertex that
step saturated.  The parent graph had no copy of the pattern and the new
edges all touch ``u``, so only copies through ``u`` need to be looked for:
the K6-C4 oracle takes its hubs from N[u], and the generic one maps each
automorphism orbit of the pattern to ``u`` in turn.  The engine keeps its
frames on an explicit stack, so Python's recursion limit does not bound
the length of a sequence.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, compress
from typing import Callable, Iterator, Sequence

from .characterize import Verdict, decide_k5c4, decide_k6c4, sigma_formula_k6c4
from .graphs import (
    Graph,
    K5_MINUS_C4,
    K6_MINUS_C4,
    TargetPattern,
    _contains_pattern_adj,
    _find_km_minus_c4_adj,
    degree_sequence_of,
)
from .sequences import DegreeSequence, _eg_ok, is_graphic, render_notation

__all__ = [
    "DEFAULT_ORACLE_BOUND",
    "ORACLE_BOUND_ENV",
    "OracleBoundError",
    "NotPotentialError",
    "EmbeddingFailure",
    "RealizationCertificate",
    "Mismatch",
    "VerificationReport",
    "SigmaSearchResult",
    "realize_graphic",
    "realize_with_k6c4",
    "realize_with_k5c4",
    "oracle_decide",
    "oracle_decide_k6c4",
    "oracle_realization_k6c4",
    "oracle_decide_pattern",
    "enumerate_graphic_sequences",
    "count_graphic_sequences",
    "sigma_search",
    "verify_range",
    "Target",
    "TARGETS",
]

DEFAULT_ORACLE_BOUND = 10
ORACLE_BOUND_ENV = "POTSEQ_ORACLE_BOUND"


class OracleBoundError(RuntimeError):
    """Refusal to run an exhaustive search above the configured bound."""


class NotPotentialError(ValueError):
    """Constructor called on a sequence the decider rejected."""

    def __init__(self, verdict: Verdict) -> None:
        self.verdict = verdict
        super().__init__(f"sequence is not potentially {verdict.target}-graphic: {verdict.reason}")


class EmbeddingFailure(RuntimeError):
    """No embedded realization completes; a bug signal on decider-yes input."""


def resolve_oracle_bound(bound: int | None) -> int:
    if bound is not None:
        return bound
    env = os.environ.get(ORACLE_BOUND_ENV)
    if not env:
        return DEFAULT_ORACLE_BOUND
    try:
        return int(env)
    except ValueError:
        raise OracleBoundError(f"{ORACLE_BOUND_ENV}={env!r} is not an integer") from None


# ---------------------------------------------------------------------------
# plain realization (greedy, highest degree first)


def realize_graphic(seq: DegreeSequence) -> Graph:
    """Deterministic realization of a graphic sequence.

    Saturates the vertex with the largest remaining demand by connecting it
    to the vertices with the next-largest demands.
    """
    if not is_graphic(seq):
        raise ValueError(f"not graphic: {render_notation(seq)}")
    n = seq.n
    residual = list(seq.terms)
    adj = [0] * n
    while True:
        u = max(range(n), key=lambda v: (residual[v], -v), default=-1)
        if u < 0 or residual[u] == 0:
            break
        partners = sorted(
            (v for v in range(n) if v != u and residual[v] > 0),
            key=lambda v: (-residual[v], v),
        )[: residual[u]]
        if len(partners) < residual[u]:
            raise AssertionError("greedy realization starved on graphic input")
        for v in partners:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            residual[v] -= 1
        residual[u] = 0
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# exhaustive completion search


_Accept = Callable[[list[int], int], bool]


def _complete(demand: Sequence[int], base: Sequence[int], accept: _Accept | None) -> list[int] | None:
    """Add edges to the graph ``base`` (adjacency bitmasks) until every
    vertex ``v`` has gained ``demand[v]`` new neighbors.

    With ``accept`` None, returns the adjacency of the first completion in
    search order, or None when there is none.  Otherwise returns the first
    partial graph on which ``accept`` holds, or None when no completion
    satisfies it.  ``accept`` must be monotone under edge addition and
    invariant under isomorphism, and ``base`` must be empty: only then does
    the Erdos-Gallai check prove that a partial graph can be completed.

    ``accept(adj, u)`` is called once on the base with ``u = -1``, a full
    test, and then after each step that saturates ``u`` by adding the
    edges from ``u`` to a neighbor set, before the search goes deeper.
    Each step's parent graph failed the test, and the test is monotone, so
    any copy of the pattern in the new graph uses a new edge, and every new
    edge touches ``u``: a test that only looks at copies through ``u`` is
    exact.

    Every edge the search adds has a saturated end: it joins the step's
    ``u``, whose residual stays 0 while its frame is open, to a neighbor.
    So two unsaturated vertices are adjacent only through an edge of
    ``base``, and a step's candidates are the other unsaturated vertices
    minus ``base[u]``, found without a scan of ``adj``; the filter runs
    only when ``base[u]`` is non-zero (the realizer's top m vertices;
    never in the oracle's search, whose base is empty).  The Erdos-Gallai
    check after a step looks at the non-zero residuals only: a saturated
    vertex adds a zero term, which changes no inequality.

    Each saturated vertex has a frame on an explicit stack: ``[u, r,
    cands, combinations iterator, twin map, set applied]``.  The first set
    never takes a twin without its earlier twins, so it is tried as the
    node opens, and the twin map (None until then) is only built once it
    has failed.
    """
    if sum(demand) % 2:
        return None
    adj = list(base)
    if accept is not None and accept(adj, -1):
        return adj
    n = len(adj)
    residual = list(demand)
    stack: list[list] = []
    while True:
        # open a node on the current graph and take its first neighbor set
        combo = None
        r = max(residual, default=0)
        if r == 0:
            if accept is None:
                return adj
        else:
            u = residual.index(r)
            # unsaturated vertices are adjacent only through base edges
            cands = list(compress(range(n), residual))
            cands.remove(u)
            if base[u]:
                cands = [v for v in cands if not base[u] >> v & 1]
            if r <= len(cands):
                residual[u] = 0
                combos = combinations(cands, r)
                frame = [u, r, cands, combos, None, ()]
                stack.append(frame)
                combo = next(combos)
        while True:
            if combo is None:
                # backtrack: the next set of the deepest open node
                if not stack:
                    return None
                frame = stack[-1]
                u, r, cands, combos, twin_before, applied = frame
                # u had no edge to any candidate, so XOR clears just the step's
                bit = 1 << u
                for v in applied:
                    adj[u] ^= 1 << v
                    adj[v] ^= bit
                    residual[v] += 1
                if twin_before is None:
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
            if not _eg_ok(sorted(filter(None, residual), reverse=True)):
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


def _oracle_pre(seq: DegreeSequence, target: Target, bound: int | None) -> bool:
    """Refuse sequences above the bound or not graphic; then whether the
    sorted terms dominate the pattern's sorted degrees, which any graph
    containing the pattern must do."""
    limit = resolve_oracle_bound(bound)
    if seq.n > limit:
        raise OracleBoundError(
            f"n = {seq.n} exceeds the exhaustive-search bound {limit}; "
            f"raise it explicitly to force the run"
        )
    if not is_graphic(seq):
        raise ValueError(f"oracle requires a graphic sequence, got {render_notation(seq)}")
    degrees = target.pattern.degree_multiset
    return seq.n >= len(degrees) and all(x >= y for x, y in zip(seq.terms, degrees))


def _has_k6c4(adj: list[int], u: int) -> bool:
    if u < 0:
        return _find_km_minus_c4_adj(adj, len(adj), 2) is not None
    # every vertex of K6 - C4 has degree >= 3; the hubs of a copy through u
    # lie in N[u]
    nb = adj[u]
    return nb.bit_count() >= 3 and _find_km_minus_c4_adj(adj, len(adj), 2, nb | 1 << u) is not None


def _has_k5c4(adj: list[int], u: int) -> bool:
    return _contains_pattern_adj(adj, len(adj), K5_MINUS_C4, u)


def oracle_decide(seq: DegreeSequence, target: Target, bound: int | None = None) -> bool:
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
        if all(a.bit_count() == x for a, x in zip(adj, seq.terms)) and target.accept(adj, -1):
            return True
    return _complete(seq.terms, [0] * seq.n, target.accept) is not None


def oracle_decide_k6c4(seq: DegreeSequence, bound: int | None = None) -> bool:
    """``oracle_decide`` for K6 - C4."""
    return oracle_decide(seq, TARGETS["k6-c4"], bound)


def oracle_decide_pattern(seq: DegreeSequence, pattern: TargetPattern, bound: int | None = None) -> bool:
    """``oracle_decide`` for a registered pattern; ValueError otherwise."""
    return oracle_decide(seq, TARGETS[_key_of(pattern)], bound)


def oracle_realization_k6c4(seq: DegreeSequence, bound: int | None = None) -> Graph | None:
    """Some realization containing K6 - C4, or None if none exists: the
    first in the exhaustive search's order, never the placement witness."""
    target = TARGETS["k6-c4"]
    if not _oracle_pre(seq, target, bound):
        return None
    adj = _complete(seq.terms, [0] * seq.n, target.accept)
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


@dataclass
class RealizationCertificate:
    """A realization with K_m - C4 placed on the first m vertices."""

    graph: Graph
    hosts: tuple[int, ...]
    hubs: tuple[int, ...]
    pairs: tuple[tuple[int, int], tuple[int, int]]
    checked: bool = False

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
        """Check degrees and the stated embedding; sets ``checked``.

        The role edges are checked by masks; only when one is missing does
        the edge-by-edge scan run, to name the first missing edge."""
        if degree_sequence_of(self.graph).terms != seq.terms:
            raise EmbeddingFailure("certificate degrees do not match the sequence")
        adj = self.graph.adj
        try:
            hosts = sum(1 << x for x in set(self.hosts))
            found = all((adj[h] | 1 << h) & hosts == hosts for h in self.hubs) and all(
                adj[a] >> b & 1 for a, b in self.pairs
            )
        except (IndexError, ValueError):  # a role vertex outside the graph
            found = False
        if not found:
            for u, v in self.role_edges():
                if not self.graph.has_edge(u, v):
                    raise EmbeddingFailure(f"certificate is missing role edge ({u},{v})")
        self.checked = True


def _placement_class(d: Sequence[int], m: int, hubs: tuple[int, ...], pairs: tuple) -> tuple:
    """The class key of a placement: its sorted hub residuals and its sorted
    per-pair residual pairs."""
    hub_key = tuple(sorted(d[h] - (m - 1) for h in hubs))
    pair_key = tuple(sorted(tuple(sorted((d[p] - (m - 3), d[q] - (m - 3)))) for p, q in pairs))
    return hub_key, pair_key


def _role_assignments(d: Sequence[int], m: int) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Candidate (hubs, matched pairs) placements on hosts 0..m-1, deduplicated.

    Two placements with equal hub residual multisets and equal multisets of
    per-pair residual pairs yield isomorphic completion problems, so only the
    first of each class is yielded.  Lazy, since the first placement
    usually completes: its class key is built only when the generator is
    resumed.  ``d`` is non-increasing and ``combinations`` yields ascending
    tuples, so the last hub and the last quad vertex have the smallest
    degrees of their roles, and only they are tested against the bounds.
    """
    seen = None
    for hubs in combinations(range(m), m - 4):
        if d[hubs[-1]] < m - 1:
            continue
        quad = [v for v in range(m) if v not in hubs]
        if d[quad[-1]] < m - 3:
            continue
        # diagonal pairing first so a zero-demand completion reproduces the
        # pattern constant exactly
        for a, b, c, e in ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2)):
            pairs = ((quad[a], quad[b]), (quad[c], quad[e]))
            if seen is None:
                yield hubs, pairs
                seen = {_placement_class(d, m, hubs, pairs)}
                continue
            key = _placement_class(d, m, hubs, pairs)
            if key in seen:
                continue
            seen.add(key)
            yield hubs, pairs


def _place_km_c4(d: Sequence[int], m: int) -> tuple[list[int], tuple[int, ...], tuple] | None:
    """The first completion, in placement order, of a graph with degrees
    ``d`` (non-increasing, at least m terms) that has K_m - C4 on vertices
    0..m-1, as (adjacency, hubs, pairs); None when no placement completes."""
    n = len(d)
    top = (1 << m) - 1
    for hubs, pairs in _role_assignments(d, m):
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
        if min(demand) < 0:
            continue
        adj = _complete(demand, base, None)
        if adj is not None:
            return adj, hubs, pairs
    return None


def _realize_with_km_c4(
    seq: DegreeSequence, m: int, decide: Callable[[DegreeSequence], Verdict] | None
) -> RealizationCertificate:
    """Realization with K_m - C4 on the m largest-degree vertices; refuses
    the sequences ``decide`` rejects unless it is None."""
    if decide is not None:
        verdict = decide(seq)
        if not verdict.is_yes:
            raise NotPotentialError(verdict)
    n = seq.n
    if n < m:
        raise EmbeddingFailure(f"need at least {m} positive terms, have {n}")
    found = _place_km_c4(seq.terms, m)
    if found is None:
        raise EmbeddingFailure(
            f"no embedded realization of {render_notation(seq)} completes on the top {m} vertices"
        )
    adj, hubs, pairs = found
    pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
    cert = RealizationCertificate(Graph(n, tuple(adj)), tuple(range(m)), tuple(sorted(hubs)), pairs)
    cert.revalidate(seq)
    return cert


def realize_with_k6c4(seq: DegreeSequence, unchecked: bool = False) -> RealizationCertificate:
    """Realization with K6 - C4 on the six largest-degree vertices.

    Enforces the closed-form decider first; ``unchecked=True`` bypasses it
    (used to probe the completeness claim).  Raises EmbeddingFailure when no
    placement completes, which for decider-yes input indicates a bug.
    """
    return _realize_with_km_c4(seq, 6, None if unchecked else decide_k6c4)


def realize_with_k5c4(seq: DegreeSequence, unchecked: bool = False) -> RealizationCertificate:
    """Realization with K5 - C4 on the five largest-degree vertices."""
    return _realize_with_km_c4(seq, 5, None if unchecked else decide_k5c4)


# ---------------------------------------------------------------------------
# enumeration, sigma search, verification


def enumerate_graphic_sequences(n: int, min_term: int = 1) -> Iterator[DegreeSequence]:
    """All graphic sequences with n positive terms, lexicographically decreasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if min_term < 1:
        raise ValueError("min_term must be >= 1")
    for terms in combinations_with_replacement(range(n - 1, min_term - 1, -1), n):
        if sum(terms) % 2 == 0 and _eg_ok(terms):
            yield DegreeSequence._trusted(terms, 0, True)


def count_graphic_sequences(n: int) -> int:
    return sum(1 for _ in enumerate_graphic_sequences(n))


@dataclass(frozen=True)
class SigmaSearchResult:
    n: int
    target: str
    value: int
    witness: DegreeSequence | None

    @property
    def witness_sigma(self) -> int | None:
        return None if self.witness is None else self.witness.sigma


def sigma_search(n: int, target: TargetPattern = K6_MINUS_C4, bound: int | None = None) -> SigmaSearchResult:
    """Smallest even s such that every n-term positive graphic sequence with
    sum >= s is potentially target-graphic, plus an extremal witness at s - 2.

    Decided by the exhaustive oracle for every target, so the value is
    independent of the closed-form deciders.
    """
    entry = TARGETS[_key_of(target)]
    if n < target.vertex_count:
        raise ValueError(f"sigma search for {target.name} requires n >= {target.vertex_count}")
    limit = resolve_oracle_bound(bound)
    if n > limit:
        raise OracleBoundError(f"n = {n} exceeds the exhaustive-search bound {limit}")
    best: DegreeSequence | None = None
    for seq in enumerate_graphic_sequences(n):
        if not oracle_decide(seq, entry, limit) and (best is None or seq.sigma > best.sigma):
            best = seq
    value = 0 if best is None else best.sigma + 2
    return SigmaSearchResult(n=n, target=target.name, value=value, witness=best)


@dataclass(frozen=True)
class Mismatch:
    sequence: str
    decider: str
    decider_reason: str
    oracle: bool

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "decider": self.decider,
            "decider_reason": self.decider_reason,
            "oracle": "yes" if self.oracle else "no",
        }


@dataclass
class VerificationReport:
    """Per-length comparison of the closed-form decider with the oracle."""

    n: int
    target: str
    total_sequences: int
    agreements: int
    mismatches: list[Mismatch] = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "target": self.target,
            "total_sequences": self.total_sequences,
            "agreements": self.agreements,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "wall_time": self.wall_time,
        }

    def summary(self) -> str:
        return (
            f"n={self.n} target={self.target}: {self.total_sequences} sequences checked, "
            f"{len(self.mismatches)} mismatches"
        )


def _verify_one(args: tuple[tuple[int, ...], str, int]) -> tuple[str, str, bool]:
    terms, key, bound = args
    seq = DegreeSequence._trusted(terms, 0, True)  # terms of an enumerated sequence
    target = TARGETS[key]
    verdict = target.decide(seq)
    return (verdict.decision, verdict.reason, oracle_decide(seq, target, bound))


def verify_range(
    n: int,
    target: TargetPattern = K6_MINUS_C4,
    bound: int | None = None,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> VerificationReport:
    """Run decider and oracle on every graphic sequence of length n.

    Results are merged in enumeration order, so reports are identical for
    any ``jobs`` value.
    """
    limit = resolve_oracle_bound(bound)
    if n > limit:
        raise OracleBoundError(f"n = {n} exceeds the exhaustive-search bound {limit}")
    start = time.perf_counter()
    seqs = list(enumerate_graphic_sequences(n))
    key = _key_of(target)
    tasks = [(s.terms, key, limit) for s in seqs]
    mismatches: list[Mismatch] = []
    pool = None
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool  # imported here: a serial run never pays for it

        pool = Pool(processes=jobs)
    with pool or nullcontext():
        # large chunks at large n: a call is cheap next to pickling a task
        chunks = max(8, len(tasks) // (jobs * 64))
        results = pool.imap(_verify_one, tasks, chunksize=chunks) if pool else map(_verify_one, tasks)
        for done, (seq, (decision, reason, oracle)) in enumerate(zip(seqs, results), 1):
            if (decision == "yes") != oracle:
                mismatches.append(Mismatch(render_notation(seq), decision, reason, oracle))
            if progress is not None:
                progress(done, len(seqs))
    return VerificationReport(
        n=n,
        target=target.name,
        total_sequences=len(seqs),
        agreements=len(seqs) - len(mismatches),
        mismatches=mismatches,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# target registry


@dataclass(frozen=True)
class Target:
    """What potseq knows about one pattern: its closed-form decider, its
    constructive realizer, the containment test ``accept(adj, u)`` that
    ``oracle_decide`` runs (a full test for ``u = -1``, else only copies
    through ``u``) and, when the paper gives one, its sigma formula.  The
    minimum sequence length is ``pattern.vertex_count``."""

    pattern: TargetPattern
    decide: Callable[[DegreeSequence], Verdict]
    realize: Callable[[DegreeSequence], RealizationCertificate]
    accept: _Accept
    sigma_formula: Callable[[int], int] | None


TARGETS = {
    "k6-c4": Target(K6_MINUS_C4, decide_k6c4, realize_with_k6c4, _has_k6c4, sigma_formula_k6c4),
    "k5-c4": Target(K5_MINUS_C4, decide_k5c4, realize_with_k5c4, _has_k5c4, None),
}


def _key_of(pattern: TargetPattern) -> str:
    for key, target in TARGETS.items():
        if target.pattern == pattern:
            return key
    raise ValueError(f"no registered target for pattern {pattern.name!r}")

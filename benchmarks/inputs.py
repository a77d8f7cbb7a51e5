"""Seeded inputs for the check-stream and realize-stream workloads.

Generation uses only the standard library and this file's own
Erdos-Gallai test, so the inputs do not depend on the code under test
(except that realize-stream keeps the sequences the deciders accept).
"""

from __future__ import annotations

import random
from typing import Callable

GNP = "gnp"
SHAPE = "shape"
PERTURBED = "perturbed"
# Fixed proportions of the check-stream mix, out of 10.
CHECK_MIX = (GNP,) * 5 + (SHAPE,) * 3 + (PERTURBED,) * 2
REALIZE_TRIES = 200
REALIZE_SIZES = 25  # n = 8..32


def graphic(terms) -> bool:
    """Erdos-Gallai on non-increasing positive ints, checked at the corners
    r where d_r > d_{r+1} (Tripathi-Vijay) and at r = n."""
    n = len(terms)
    if sum(terms) % 2:
        return False
    head = 0
    for r in range(1, n + 1):
        head += terms[r - 1]
        if r < n and terms[r - 1] == terms[r]:
            continue
        if head > r * (r - 1) + sum(min(d, r) for d in terms[r:]):
            return False
    return True


def gnp_degrees(rng: random.Random, n: int, p: float) -> list[int]:
    """Vertex degrees of one G(n, p) sample, in vertex order (zeros kept)."""
    deg = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                deg[i] += 1
                deg[j] += 1
    return deg


def notation(terms) -> str:
    parts = []
    i = 0
    while i < len(terms):
        j = i
        while j < len(terms) and terms[j] == terms[i]:
            j += 1
        parts.append(f"{terms[i]}^{j - i}" if j - i > 1 else str(terms[i]))
        i = j
    return ",".join(parts)


def _gnp_text(rng: random.Random) -> str:
    # plain comma list in vertex order: unsorted, zeros included
    n = rng.randint(6, 40)
    p = min(1.0, rng.uniform(1.0, 12.0) / (n - 1))
    return ",".join(map(str, gnp_degrees(rng, n, p)))


def _shape_text(rng: random.Random) -> str:
    """Graphic (d1,d2,d3,3^k,2^t,1^m).  Two in three have k >= 3 and the
    head sum near the condition (2) bound n+2k+t+1, so K6-C4's COND2_SUM
    and COND2_RESIDUAL both fire; the rest have k = 0 and sit on or next to
    the K5-C4 exception families."""
    if rng.random() < 1 / 3:
        return _k5_family_text(rng)
    while True:
        n = rng.randint(7, 40)
        k = rng.randint(3, n - 3)
        t = rng.randint(0, n - 3 - k)
        m = n - 3 - k - t
        target = n + 2 * k + t + 1 + rng.randint(-4, 3)
        d3 = rng.randint(3, n - 1)
        d2 = rng.randint(max(d3, 5), max(d3, 5, n - 1))
        d1 = target - d2 - d3
        if not d2 <= d1 <= n - 1:
            continue
        terms = (d1, d2, d3) + (3,) * k + (2,) * t + (1,) * m
        if graphic(terms):
            return notation(terms)


def _k5_family_text(rng: random.Random) -> str:
    """A K5-C4 exception: (4,2^5), (4,2^6), ((n-2)^2,2^(n-2)) or a member
    of (n-k,k+i,2^i,1^(n-i-2)); half the time instead the graphic near
    miss with one unit moved from a 2 to d2."""
    while True:
        n = rng.randint(7, 40)
        roll = rng.random()
        if roll < 0.05:
            terms = [4] + [2] * rng.randint(5, 6)  # the two fixed exceptions
        elif roll < 0.15:
            terms = [n - 2, n - 2] + [2] * (n - 2)
        else:
            k = rng.randint(1, (n - 1) // 2 - 1)
            i = rng.randint(3, n - 2 * k)
            terms = [n - k, k + i] + [2] * i + [1] * (n - i - 2)
        if rng.random() < 0.5:
            terms[1] += 1
            terms[terms.index(2)] = 1
            terms.sort(reverse=True)
        if terms[0] < len(terms) and graphic(terms):
            return notation(terms)


def _perturbed_text(rng: random.Random) -> str:
    """A G(n,p) sequence made odd-sum, or given a top term >= n with even
    sum; either way it is not graphic."""
    while True:
        n = rng.randint(6, 40)
        p = min(1.0, rng.uniform(1.0, 12.0) / (n - 1))
        terms = sorted((d for d in gnp_degrees(rng, n, p) if d > 0), reverse=True)
        if len(terms) >= 2:
            break
    if rng.random() < 0.5:
        terms[rng.randrange(len(terms))] += 1  # degree sums are even
    else:
        terms[0] = len(terms)
        if sum(terms) % 2:
            terms[0] += 1
    terms.sort(reverse=True)
    return notation(terms)


_MAKERS = {GNP: _gnp_text, SHAPE: _shape_text, PERTURBED: _perturbed_text}


def check_inputs(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` (kind, text) pairs in the fixed CHECK_MIX proportions."""
    rng = random.Random(seed)
    kinds = [CHECK_MIX[i % len(CHECK_MIX)] for i in range(count)]
    rng.shuffle(kinds)
    return [(kind, _MAKERS[kind](rng)) for kind in kinds]


def realize_inputs(seed: int, count: int, accepted: Callable[[list[int]], bool]) -> list[list[int]]:
    """``count`` sorted G(n,p) degree sequences that ``accepted`` keeps.
    The i-th has n = 8 + i mod 25.  The inputs of one n split the mean
    degree range 2..10 into equal strata, one input to a stratum in a
    seeded order, so every seed has the same mix of sizes and densities:
    the latency tail follows both, and is densest at the top of the range,
    just past the deciders' thresholds."""
    rng = random.Random(seed)
    per_n = -(-count // REALIZE_SIZES)
    strata = [rng.sample(range(per_n), per_n) for _ in range(REALIZE_SIZES)]
    out = []
    for i in range(count):
        n = 8 + i % REALIZE_SIZES
        stratum = strata[i % REALIZE_SIZES][i // REALIZE_SIZES]
        for _ in range(REALIZE_TRIES):
            mean = 2.0 + 8.0 * (stratum + rng.random()) / per_n
            p = min(1.0, mean / (n - 1))
            terms = sorted((d for d in gnp_degrees(rng, n, p) if d > 0), reverse=True)
            if accepted(terms):
                out.append(terms)
                break
        else:
            raise RuntimeError(f"the deciders accepted none of {REALIZE_TRIES} G({n},p) sequences")
    return out

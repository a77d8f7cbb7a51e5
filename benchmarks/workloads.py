"""The three workloads, each with its correctness gate and verdict digest.

Load model: one process, one client, closed loop -- the next sequence is
submitted only after the previous call returns.  Every workload makes one
pass that answers every input, then repeats passes over its inputs for the
requested seconds, so a run always measures the same mix of inputs.  The
gate runs after the timed passes and uses untraced calls.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from types import SimpleNamespace

import inputs
from spans import Tracer

# public potseq functions the workloads call, by module
CALLS = {
    "sequences": ("parse_notation", "render_notation", "is_graphic"),
    "characterize": ("decide_k6c4", "decide_k5c4", "explain"),
    "search": (
        "verify_range",
        "oracle_decide_k6c4",
        "oracle_decide_pattern",
        "realize_with_k6c4",
        "realize_with_k5c4",
        "realize_graphic",
        "enumerate_graphic_sequences",
    ),
    "graphs": ("find_km_minus_c4", "contains_pattern"),
}
LAYERS = ("sequences", "graphs", "characterize", "search", "cli")


@dataclass(frozen=True)
class Size:
    verify_sweeps: tuple[tuple[int, str], ...]  # (n, target) pairs
    check_batch: int
    realize_batch: int
    jobs_n: int  # n of the K6-C4 sweep timed with 1 and 2 processes


FULL = Size(((9, "k6c4"), (8, "k5c4")), 8192, 12288, 8)
TINY = Size(((7, "k6c4"), (6, "k5c4")), 200, 40, 7)


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The functions listed in CALLS, each wrapped in a ``<module>.<name>``
    span when a tracer is given.  Looked up at call time of this function,
    so a patched module attribute is what gets measured."""
    api = SimpleNamespace()
    for module_name, names in CALLS.items():
        module = importlib.import_module(f"potseq.{module_name}")
        for name in names:
            fn = getattr(module, name)
            if name == "enumerate_graphic_sequences":
                gen = fn
                fn = lambda n, gen=gen: list(gen(n))  # consume inside the span
            if tracer is not None:
                fn = tracer.wrap(f"{module_name}.{name}", fn)
            setattr(api, name, fn)
    graphs = importlib.import_module("potseq.graphs")
    api.patterns = {"k6c4": graphs.K6_MINUS_C4, "k5c4": graphs.K5_MINUS_C4}
    return api


@dataclass
class Outcome:
    """What one workload run did.  ``timings`` holds, per input, its times
    over all passes, and an input's latency is their median: on a shared
    host the fastest of several timings jumps with the neighbours' load
    from one spell to the next, while the median of each input's passes,
    spread over the whole run, holds much steadier."""

    workload: str
    timings: list = field(default_factory=list)  # per input, an array of seconds
    ref: list = field(default_factory=list)  # per reference slot, an array of seconds
    count: int = 0  # sequence operations attempted over all passes
    elapsed: float = 0.0
    passes: int = 0
    start: float = 0.0
    repeat_start: float = 0.0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)

    @property
    def timed_once(self) -> int:
        """Inputs too slow to repeat after the first pass."""
        return sum(1 for ts in self.timings if len(ts) == 1)

    @property
    def raw_latency(self) -> list[float]:
        """Per input, the median of its timings, in seconds."""
        return [statistics.median(ts) for ts in self.timings]

    def host_factor(self, first_pass: bool = False) -> float:
        """REF_NOMINAL_S over the reference job's time in this run.  By
        default that time is taken the way the latency of an input timed on
        every pass is: the median, over the reference slots, of each slot's
        median over the passes.  With ``first_pass`` it is the mean of the
        middle 80% of the first pass's timings, for the inputs timed only
        there: one call of seconds carries the host's mean speed over its
        length, which the median of many short timings does not follow."""
        if not self.ref:
            return 1.0
        if first_pass:
            first = sorted(ts[0] for ts in self.ref)
            cut = len(first) // 10
            return REF_NOMINAL_S / statistics.fmean(first[cut : len(first) - cut])
        return REF_NOMINAL_S / statistics.median(statistics.median(ts) for ts in self.ref)

    @property
    def latency(self) -> list[float]:
        """Per input, the median of its timings scaled by the host factor:
        seconds at the host speed where the reference job takes
        REF_NOMINAL_S.  An input is timed on every pass, or only on the
        first when it is slow."""
        every, first = self.host_factor(), self.host_factor(first_pass=True)
        return [statistics.median(ts) * (first if len(ts) == 1 else every) for ts in self.timings]

    def another_pass(self, seconds: float) -> bool:
        """Whether to make another pass: the first one, which answers every
        input once, then repeats for ``seconds``, and MIN_PASSES in all at
        least.  Keeps ``elapsed`` up to date."""
        now = time.perf_counter()
        if self.passes == 0:
            self.start = now
        elif self.passes == 1:
            self.repeat_start = now
        self.elapsed = now - self.start
        return self.passes < MIN_PASSES or now - self.repeat_start < seconds

    def record(self, i: int, seconds: float, into: list | None = None) -> None:
        """Add a timing of input i, or of slot i of ``into``."""
        if into is None:
            into = self.timings
            self.count += 1
        if i >= len(into):
            into.append(array("d"))
        into[i].append(seconds)

    @property
    def batch(self) -> int:
        return len(self.timings)

    @property
    def attempted(self) -> int:
        return max(1, self.count)

    @property
    def failed(self) -> int:
        return len(self.failures)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# Every run makes at least MIN_PASSES passes, and after the first one skips
# inputs slower than REPEAT_LIMIT_S: at seed state that keeps the 20 or so
# oracle calls of 0.05-18 s to one timing each, and times every cheaper input
# on every repeat pass, about one second apart in verify.  A second timing of
# the long calls would add about 28 s to every verify run.
MIN_PASSES = 3
REPEAT_LIMIT_S = 0.05
REF_STRIDE = 32
REF_NOMINAL_S = 9e-5  # about the reference job's median on the host of the README's numbers


def _skip(out: Outcome, i: int) -> bool:
    """Whether this pass skips input i.  First, at every REF_STRIDE-th
    input, time the reference job, so that it is sampled at the same points
    of every pass as the inputs around it."""
    if i % REF_STRIDE == 0:
        t = time.perf_counter()
        reference_job()
        out.record(i // REF_STRIDE, time.perf_counter() - t, out.ref)
    return out.passes > 0 and out.timings[i][0] > REPEAT_LIMIT_S


# fixed sequences of 30 terms for the reference job
REF_SEQS = tuple(tuple(sorted((random.Random(i).randint(1, 20) for _ in range(30)), reverse=True)) for i in range(8))


def reference_job() -> None:
    """A fixed job in plain Python of about 0.1 ms, independent of potseq:
    this benchmark's own Erdos-Gallai test and notation on REF_SEQS and one
    G(12, 0.3) sample.  Its calls, loops and small-int arithmetic slow down
    with the host nearly as potseq's do: over 1 s windows of a 90 s run, a
    workload's time against the job's rose with a log-log slope of 0.8 to
    1.0 (correlation 0.87 to 0.95), where a bit-mask clique count gave 0.6
    to 0.8."""
    rng = random.Random(0)
    for terms in REF_SEQS:
        inputs.graphic(terms)
        inputs.notation(terms)
    inputs.gnp_degrees(rng, 12, 0.3)


def graphic_sequences(n: int) -> list[tuple[int, ...]]:
    """Every graphic sequence of n positive terms, lexicographically
    decreasing: this file's own enumeration, for the verify gate."""
    return [t for t in combinations_with_replacement(range(n - 1, 0, -1), n) if inputs.graphic(t)]


# ---------------------------------------------------------------------------
# verify


def run_verify(api, seed: int, seconds: float, size: Size, tracer: Tracer | None = None) -> Outcome:
    """Every graphic sequence of each sweep through its decider and the
    exhaustive oracle, serially: the per-sequence job of ``verify_range``.

    The sequences of all sweeps run in one order shuffled by the seed.
    ``verify_range`` itself walks them in enumeration order, which puts
    the cheap sequences in a window of a second or two, so a single pass
    would time them all in whatever speed phase the host happens to be in.
    """
    oracles = {
        "k6c4": lambda seq, n: api.oracle_decide_k6c4(seq, bound=n),
        "k5c4": lambda seq, n: api.oracle_decide_pattern(seq, api.patterns["k5c4"], bound=n),
    }
    deciders = {"k6c4": api.decide_k6c4, "k5c4": api.decide_k5c4}
    sweeps = {(n, key): api.enumerate_graphic_sequences(n) for n, key in size.verify_sweeps}
    items = [(key, n, i) for (n, key), seqs in sweeps.items() for i in range(len(seqs))]
    random.Random(seed).shuffle(items)
    out = Outcome("verify")
    results: list = [None] * len(items)
    while out.another_pass(seconds):
        for j, (key, n, i) in enumerate(items):
            if _skip(out, j):
                continue
            seq = sweeps[(n, key)][i]
            t = time.perf_counter()
            span = tracer.begin("bench.verify.sequence") if tracer is not None else -1
            try:
                v = deciders[key](seq)
                res = (v.decision, v.reason, oracles[key](seq, n))
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                res = None
                out.failures.append(f"verify {key} {seq.terms}: {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.finish(span)
            out.record(j, time.perf_counter() - t)
            if out.passes == 0:
                results[j] = res
            elif res is not None and res != results[j]:
                out.failures.append(f"verify {key} {seq.terms}: answer changed between passes")
        out.passes += 1
    _verify_gate(out, sweeps, items, results)
    return out


def _verify_gate(out: Outcome, sweeps: dict, items: list, results: list) -> None:
    import potseq

    by_item = {item: (res, seconds) for item, res, seconds in zip(items, results, out.latency)}
    lines = []
    busy: dict[str, float] = {}
    calls: Counter = Counter()
    slow = []
    for (n, key), seqs in sorted(sweeps.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if [s.terms for s in seqs] != graphic_sequences(n):
            out.failures.append(f"verify {key} n={n}: enumeration differs from the reference")
        for i, seq in enumerate(seqs):
            res, seconds = by_item[(key, n, i)]
            name = potseq.render_notation(seq)
            if res is None:
                lines.append(f"{key}|{name}|error")
                continue
            decision, reason, oracle = res
            if (decision == "yes") != oracle:
                out.failures.append(f"verify {key} {name}: decider {decision} ({reason}), oracle {'yes' if oracle else 'no'}")
            lines.append(f"{key}|{name}|{decision}|{reason}|{'yes' if oracle else 'no'}")
            cls = f"{key}.{'yes' if oracle else 'no'}"
            busy[cls] = busy.get(cls, 0.0) + seconds
            calls[cls] += 1
            slow.append((seconds, f"{key}:{name}"))
    slow.sort(reverse=True)
    out.digest = _digest(lines)
    out.info.update(oracle_busy_s=busy, oracle_calls=dict(calls), top5=slow[:5])


# ---------------------------------------------------------------------------
# check-stream


def expand_notation(text: str) -> tuple[int, ...]:
    """This file's own reading of a sequence literal: expand ``r^t``, sort
    non-increasing, drop zeros."""
    terms = []
    for item in text.split(","):
        value, _, count = item.partition("^")
        terms += [int(value)] * (int(count) if count else 1)
    return tuple(sorted((t for t in terms if t > 0), reverse=True))


def run_check(api, seed: int, seconds: float, size: Size, tracer: Tracer | None = None) -> Outcome:
    """The in-process ``potseq check`` path for both targets:
    parse -> is_graphic -> decide x2 -> explain x2 -> render."""
    batch = inputs.check_inputs(seed, size.check_batch)
    out = Outcome("check-stream")
    results: list = [None] * len(batch)
    while out.another_pass(seconds):
        for i, (_, text) in enumerate(batch):
            if _skip(out, i):
                continue
            t = time.perf_counter()
            span = tracer.begin("bench.check_stream.sequence") if tracer is not None else -1
            try:
                seq = api.parse_notation(text)
                g = api.is_graphic(seq)
                v6 = api.decide_k6c4(seq)
                v5 = api.decide_k5c4(seq)
                e6 = api.explain(v6)
                e5 = api.explain(v5)
                canon = api.render_notation(seq)
                res = (seq, g, v6, v5, e6, e5, canon)
            except Exception as exc:
                res = None
                out.failures.append(f"check {text}: {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.finish(span)
            out.record(i, time.perf_counter() - t)
            if out.passes == 0:
                results[i] = res
            elif res is not None and results[i] is not None and res[2:4] != results[i][2:4]:
                out.failures.append(f"check {text}: verdict changed between passes")
        out.passes += 1
    _check_gate(out, batch, results)
    return out


def _check_gate(out: Outcome, batch, results) -> None:
    import potseq

    lines = []
    reasons: Counter = Counter()
    for (kind, text), res in zip(batch, results):
        if res is None:
            lines.append(f"{text}|error")
            continue
        seq, g, v6, v5, e6, e5, canon = res
        ref = inputs.graphic(seq.terms)
        problems = []
        if seq.terms != expand_notation(text):
            problems.append(f"parsed as {seq.terms}")
        if seq.n and potseq.parse_notation(canon) != seq:
            problems.append(f"rendering {canon!r} does not parse back")
        if g != ref:
            problems.append(f"is_graphic={g}, reference says {ref}")
        if ref != (kind != inputs.PERTURBED):
            problems.append(f"{kind} input has graphic={ref}")
        for v, target, text_out in ((v6, "K6-C4", e6), (v5, "K5-C4", e5)):
            if v.target != target or v.n != seq.n:
                problems.append(f"verdict {v.target} n={v.n} for {target} n={seq.n}")
            if (v.reason == "NOT_GRAPHIC") == ref:
                problems.append(f"{target} reason {v.reason} but graphic={ref}")
            if not (isinstance(text_out, str) and text_out):
                problems.append(f"{target} explanation {text_out!r}")
        if v6.is_yes and not v5.is_yes:
            # a realization containing K6-C4 contains K5-C4
            problems.append(f"K6-C4 yes but K5-C4 {v5.reason}")
        for p in problems:
            out.failures.append(f"check {text}: {p}")
        lines.append(f"{canon}|{v6.decision}|{v6.reason}|{v5.decision}|{v5.reason}|-")
        reasons[f"k6c4.{v6.reason}"] += 1
        reasons[f"k5c4.{v5.reason}"] += 1
    out.digest = _digest(lines)
    out.info.update(
        reasons=dict(reasons),
        ns=[res[0].n if res is not None else 0 for res in results],
        kinds=dict(Counter(kind for kind, _ in batch)),
    )


# ---------------------------------------------------------------------------
# realize-stream


def run_realize(api, seed: int, seconds: float, size: Size, tracer: Tracer | None = None) -> Outcome:
    """A certificate for every target whose decider accepts the sequence:
    ``realize_with_k5c4`` always, ``realize_with_k6c4`` when K6-C4 says yes."""
    import potseq

    batch = []
    for terms in inputs.realize_inputs(
        seed,
        size.realize_batch,
        lambda terms: potseq.decide_k5c4(potseq.DegreeSequence(tuple(terms))).is_yes,
    ):
        seq = potseq.DegreeSequence(tuple(terms))
        batch.append((seq, potseq.decide_k6c4(seq).is_yes))
    out = Outcome("realize-stream")
    results: list = [None] * len(batch)
    while out.another_pass(seconds):
        for i, (seq, want6) in enumerate(batch):
            if _skip(out, i):
                continue
            t = time.perf_counter()
            span = tracer.begin("bench.realize_stream.sequence") if tracer is not None else -1
            try:
                c6 = api.realize_with_k6c4(seq) if want6 else None
                c5 = api.realize_with_k5c4(seq)
                res = (c6, c5)
            except Exception as exc:
                res = None
                out.failures.append(f"realize {potseq.render_notation(seq)}: {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.finish(span)
            out.record(i, time.perf_counter() - t)
            if out.passes == 0:
                results[i] = res
            elif res is not None:
                for cert in res:
                    try:
                        if cert is not None:
                            cert.revalidate(seq)
                    except potseq.EmbeddingFailure as exc:
                        out.failures.append(f"realize {potseq.render_notation(seq)}: revalidate: {exc}")
        out.passes += 1
    _realize_gate(out, batch, results)
    return out


def _realize_gate(out: Outcome, batch, results) -> None:
    import potseq

    lines = []
    for (seq, want6), res in zip(batch, results):
        name = potseq.render_notation(seq)
        if res is None:
            lines.append(f"{name}|error")
            continue
        for cert, m, pattern in ((res[0], 6, potseq.K6_MINUS_C4), (res[1], 5, potseq.K5_MINUS_C4)):
            if cert is None:
                continue
            g = cert.graph
            problems = []
            try:
                cert.revalidate(seq)
            except potseq.EmbeddingFailure as exc:
                problems.append(f"revalidate: {exc}")
            if tuple(sorted((a.bit_count() for a in g.adj if a), reverse=True)) != seq.terms:
                problems.append("graph degrees differ from the sequence")
            if potseq.degree_sequence_of(g) != seq:
                problems.append("degree_sequence_of differs from the sequence")
            if potseq.find_km_minus_c4(g, m) is None:
                problems.append(f"find_km_minus_c4(m={m}) finds no target")
            if not potseq.contains_pattern(g, pattern):
                problems.append(f"contains_pattern({pattern.name}) is false")
            for p in problems:
                out.failures.append(f"realize {name} {pattern.name}: {p}")
        lines.append(f"{name}|k6c4:{'yes' if want6 else 'no'}|k5c4:yes|certs:{int(res[0] is not None)}{int(res[1] is not None)}")
    out.digest = _digest(lines)
    out.info.update(k6c4_certificates=sum(1 for _, w in batch if w), k5c4_certificates=len(batch))


WORKLOADS = {"verify": run_verify, "check-stream": run_check, "realize-stream": run_realize}

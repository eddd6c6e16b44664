"""Pure arithmetic of the benchmark: percentiles with their sample counts,
failure accounting, span self time and the seeded coord query stream.

Nothing here imports charcoords, so the harness tests run without the
package and the query stream cannot depend on the code under test.
"""

from __future__ import annotations

import functools
import random
import statistics
import time

# -- percentiles ---------------------------------------------------------------


def tail(values, q: int) -> dict:
    """The q-th percentile (1 <= q <= 99, linear interpolation between
    closest ranks) with the number of samples it rests on and the number
    strictly beyond it: a percentile is only worth reporting when at least
    ten samples lie beyond it."""
    xs = list(values)
    p = statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]
    return {"value": p, "samples": len(xs), "beyond": sum(1 for v in xs if v > p)}


# -- failure accounting -----------------------------------------------------------


def sweep_failures(report, returncode: int, expected: dict[str, int]) -> int:
    """Failed cases of one `verify --format json` run, out of sum(expected).

    Every failure record counts, and so does every expected case the
    report does not show (a missing suite or a short case count), so a run
    that checks fewer cases cannot look faster and clean.  A nonzero exit
    or `passed: false` fails at least one case even if the report lists
    none; no report at all fails every case.
    """
    total = sum(expected.values())
    if not isinstance(report, dict):
        return total
    suites = {s.get("name"): s for s in report.get("suites", ())}
    failed = 0
    for name, count in expected.items():
        suite = suites.get(name)
        if suite is None:
            failed += count
            continue
        failures = len(suite.get("failures", ()))
        failed += min(count, failures + max(0, count - int(suite.get("cases", 0))))
    if returncode != 0 or report.get("passed") is not True:
        failed = max(failed, 1)
    return min(failed, total)


def query_failures(records) -> int:
    """Failed requests of a coord query stream.

    ``records`` holds one (pair_id, method, returncode, value) per request,
    value being the parsed JSON ``value`` of the single result or None.  A
    request fails when it exits nonzero or yields no value; both requests
    of a def/closed pair fail when their values differ, since the check
    cannot tell which side is wrong.
    """
    by_pair: dict[int, list] = {}
    for pair_id, method, rc, value in records:
        by_pair.setdefault(pair_id, []).append((method, rc, value))
    failed = 0
    for members in by_pair.values():
        bad = sum(1 for _, rc, value in members if rc != 0 or value is None)
        if sorted(method for method, _, _ in members) != ["closed", "def"]:
            failed += len(members)  # an unpaired request cannot be checked
        elif bad:
            failed += bad
        elif members[0][2] != members[1][2]:
            failed += 2
    return failed


def failed_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted case")
    return failed / attempted


# -- spans --------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: one [name, start, end, parent] per call of a
    wrapped function, parent being the index of the enclosing span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds, self time being
    a span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += end - start - child[i]
    return stats


# -- the coord query stream ------------------------------------------------------------

QUERY_N = range(3, 51)
QUERY_R = range(1, 9)


def euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def query_stream(seed: int, rep: int, pairs: int) -> list[tuple[int, str, list[str]]]:
    """``pairs`` random (n, index, r) draws for stream ``rep`` of ``seed``,
    each issued once as --method def and once as --method closed, at
    shuffled positions.  Returns (pair_id, method, argv) per request.

    n is drawn from 3..50 with Zipf weights 1/(n - 2), so small fields
    recur and large-L fields are rare and mostly cold; the character index
    is uniform over the phi(n) characters and r uniform over 1..8.  Draws
    are with replacement, so a triple can recur and hit the caches.
    """
    rng = random.Random(seed * 1_000_003 + rep)
    ns = list(QUERY_N)
    weights = [1 / (n - QUERY_N.start + 1) for n in ns]
    requests = []
    for pair_id in range(pairs):
        n = rng.choices(ns, weights)[0]
        idx = rng.randrange(euler_phi(n))
        r = rng.choice(QUERY_R)
        for method in ("def", "closed"):
            argv = ["coord", str(n), str(idx), str(r), "--method", method, "--format", "json"]
            requests.append((pair_id, method, argv))
    rng.shuffle(requests)
    return requests

import random
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from charcoords import cli, memo  # importing the package registers every memo
from charcoords.characters import enumerate_characters
from charcoords.coordinates import coord_power_closed


def test_every_memo_is_bounded_and_cleared_at_once():
    assert cli.build_parser in memo._MEMOS
    for chi in enumerate_characters(12):
        coord_power_closed(chi, 4)
    assert any(cached.cache_info().currsize for cached in memo._MEMOS)
    for cached in memo._MEMOS:
        assert cached.cache_info().maxsize == memo.MEMO_MAXSIZE, cached.__wrapped__
    memo.clear_memos()
    assert [c.__wrapped__ for c in memo._MEMOS if c.cache_info().currsize] == []


def test_memo_module_is_the_only_cache():
    for path in sorted(Path(memo.__file__).parent.glob("*.py")):
        if path.name != "memo.py":
            text = path.read_text(encoding="utf-8")
            # a memo or a lock outside memo.py would be a second caching mechanism
            pattern = r"lru_cache|functools\b.*\bcache\b|threading|Lock"
            assert not re.search(pattern, text), path.name


def _counted_recurrence():
    """row(k, a) = a * (k + 1), with every run of step counted."""
    calls = Counter()

    def step(rows, a):
        calls[a, len(rows)] += 1
        time.sleep(0)  # let other threads run mid-growth, where a race would build a row twice
        return rows[-1] + a

    return memo.recurrence(lambda a: a, step), calls


def test_recurrence_reaches_a_deep_row_without_recursion():
    row, calls = _counted_recurrence()
    assert sys.getrecursionlimit() < 5000
    assert row(5000, 3) == 3 * 5001
    assert len(calls) == 5000 and set(calls.values()) == {1}


def test_recurrence_builds_each_row_once_across_threads():
    row, calls = _counted_recurrence()
    start = threading.Barrier(8)

    def ask(t):
        start.wait(timeout=60)
        wanted = [(k, a) for k in range(t, 600, 1 + t % 3) for a in (1, 2)]
        random.Random(t).shuffle(wanted)
        return all(row(k, a) == a * (k + 1) for k, a in wanted)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the growth loop too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(ask, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert set(calls) == {(a, w) for a in (1, 2) for w in range(1, 600)}
    assert set(calls.values()) == {1}


def test_clear_memos_drops_the_rows():
    row, calls = _counted_recurrence()
    assert row(10, 1) == 11
    memo.clear_memos()
    assert row(10, 1) == 11
    assert set(calls.values()) == {2}

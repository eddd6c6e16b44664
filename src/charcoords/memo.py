"""The package's one memo: a bounded, thread-safe lru_cache per function,
registered so that clear_memos() empties every memo in one call."""

from functools import lru_cache

# The largest memo holds 3,160 keys on the exact suites, 3,089 on
# float_crosscheck and 5,144 on a default verify run: none is evicted at the
# default ranges, and a long-lived process stays capped.
MEMO_MAXSIZE = 8192
_MEMOS = []


def memo(fn):
    _MEMOS.append(lru_cache(maxsize=MEMO_MAXSIZE)(fn))
    return _MEMOS[-1]


def clear_memos() -> None:
    for cached in _MEMOS:
        cached.cache_clear()

"""The package's one memo: a bounded, thread-safe lru_cache per function,
registered so that clear_memos() empties every memo in one call, and
recurrence(), which keeps the rows of a sequence built from its earlier rows
as one memo entry: a list grown in a loop under the package's one lock."""

import threading
from functools import lru_cache

# The largest memo holds 1,662 keys on the exact suites and on a default
# verify run (coord_cotangent_closed) and 773 on float_crosscheck
# (DirichletCharacter.primitive_part); the suites' definitional coordinates come
# from coords_definitional_many and are not memoized, but the traces of
# their elements are (_traces, 407 keys after a default verify run): none is
# evicted at the default ranges, and a long-lived process stays capped.
MEMO_MAXSIZE = 8192
_MEMOS = []
_GROWTH_LOCK = threading.RLock()  # re-entrant: a step may read another recurrence's rows


def memo(fn):
    _MEMOS.append(lru_cache(maxsize=MEMO_MAXSIZE)(fn))
    return _MEMOS[-1]


def recurrence(first, step):
    """row(k, *key): row k of the sequence that starts with first(*key) and
    grows by rows.append(step(rows, *key)), each row built once, no recursion."""
    rows_of = memo(lambda *key: [first(*key)])

    def row(k, *key):
        rows = rows_of(*key)
        if len(rows) <= k:
            with _GROWTH_LOCK:
                rows = rows_of(*key)  # the cached list, should a racing miss have built another
                while len(rows) <= k:
                    rows.append(step(rows, *key))
        return rows[k]

    return row


def clear_memos() -> None:
    for cached in _MEMOS:
        cached.cache_clear()

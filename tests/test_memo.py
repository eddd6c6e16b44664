import re
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
            assert not re.search(r"lru_cache|functools\b.*\bcache\b", text), path.name

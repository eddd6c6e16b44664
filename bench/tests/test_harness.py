"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    Tracer,
    aggregate,
    euler_phi,
    failed_share,
    query_failures,
    query_stream,
    sweep_failures,
    tail,
)
import run  # noqa: E402


# -- percentiles with their sample counts -----------------------------------------


def test_tail_counts_samples_and_those_beyond():
    assert tail(list(range(1, 101)), 99) == {"value": pytest.approx(99.01), "samples": 100, "beyond": 1}
    t = tail([float(i) for i in range(1200)], 99)
    assert t["samples"] == 1200 and t["beyond"] == 12
    # 1,000 samples put exactly ten beyond p99, the least the metrics allow
    assert tail(list(range(1000)), 99)["beyond"] == 10
    # one sample (a sweep run with a single worker) is its own percentile
    assert tail([7.0], 99) == {"value": 7.0, "samples": 1, "beyond": 0}


# -- failure accounting ---------------------------------------------------------------

EXPECTED = {"a": 10, "b": 5}


def report(cases_a=10, cases_b=5, failures_a=0, passed=True):
    return {
        "passed": passed,
        "suites": [
            {"name": "a", "cases": cases_a, "failures": [{}] * failures_a},
            {"name": "b", "cases": cases_b, "failures": []},
        ],
    }


def test_clean_sweep_has_no_failures():
    assert sweep_failures(report(), 0, EXPECTED) == 0
    assert failed_share(0, 15) == 0.0


def test_failure_records_count():
    assert sweep_failures(report(failures_a=3, passed=False), 1, EXPECTED) == 3
    assert failed_share(3, 15) == pytest.approx(0.2)


def test_short_case_count_counts_as_failed():
    # a run that checked 7 of 10 cases and reports it passed still fails 3
    assert sweep_failures(report(cases_a=7), 0, EXPECTED) == 3


def test_missing_suite_fails_all_its_cases():
    rep = report()
    rep["suites"] = rep["suites"][:1]
    assert sweep_failures(rep, 0, EXPECTED) == 5


def test_nonzero_exit_or_not_passed_fails_at_least_one_case():
    assert sweep_failures(report(), 1, EXPECTED) == 1
    assert sweep_failures(report(passed=False), 0, EXPECTED) == 1
    assert sweep_failures(report(), None, EXPECTED) == 1  # main raised


def test_no_report_fails_everything():
    assert sweep_failures(None, 0, EXPECTED) == 15
    assert sweep_failures(None, None, EXPECTED) == 15


def test_failed_share_needs_attempts():
    with pytest.raises(ValueError):
        failed_share(0, 0)


def test_query_pairs_must_agree_on_value():
    v = {"order": 4, "coeffs": ["1/2", "0"]}
    w = {"order": 4, "coeffs": ["1/3", "0"]}
    good = [(0, "def", 0, v), (0, "closed", 0, dict(v))]
    assert query_failures(good) == 0
    assert query_failures([(0, "def", 0, v), (0, "closed", 0, w)]) == 2
    assert query_failures([(0, "def", 2, None), (0, "closed", 0, v)]) == 1
    assert query_failures([(0, "def", 0, v)]) == 1  # unpaired
    assert query_failures(good + [(1, "def", 0, v), (1, "closed", 0, w)]) == 2


# -- spans ----------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["main", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2],
        ["a", 8.5, 9.0, 0],
    ]
    stats = aggregate(spans)
    assert stats["main"] == {"calls": 1, "busy_s": 10.0, "self_s": pytest.approx(3.5)}
    assert stats["a"] == {"calls": 2, "busy_s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["c"]["self_s"] == pytest.approx(1.0)


def test_tracer_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    stats = aggregate(tracer.spans)
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert stats["outer"] == {"calls": 1, "busy_s": 5.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] is not None and not tracer._stack


# -- the query stream ---------------------------------------------------------------------


def test_query_stream_is_deterministic_per_seed_and_rep():
    assert query_stream(1, 0, 50) == query_stream(1, 0, 50)
    assert query_stream(1, 0, 50) != query_stream(2, 0, 50)
    assert query_stream(1, 0, 50) != query_stream(1, 1, 50)


def test_query_stream_issues_each_draw_as_def_and_closed():
    stream = query_stream(7, 0, 300)
    assert len(stream) == 600
    pairs = {}
    for pair_id, method, argv in stream:
        pairs.setdefault(pair_id, []).append((method, argv))
    assert len(pairs) == 300
    for members in pairs.values():
        (m1, a1), (m2, a2) = sorted(members)
        assert (m1, m2) == ("closed", "def")
        assert a1[:4] == a2[:4] and a1[0] == "coord" and a1[-2:] == ["--format", "json"]
        n, idx, r = (int(x) for x in a1[1:4])
        assert 3 <= n <= 50 and 0 <= idx < euler_phi(n) and 1 <= r <= 8
    # requests are shuffled, not issued in draw order
    ids = [pair_id for pair_id, _, _ in stream]
    assert ids != sorted(ids)


def test_query_stream_favours_small_moduli():
    ns = [int(argv[1]) for _, _, argv in query_stream(3, 0, 2000)]
    assert sum(n <= 10 for n in ns) > sum(n >= 40 for n in ns) * 3


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 12, 46, 47, 49, 50)] == [1, 1, 4, 22, 46, 42, 20]


# -- the benchmark definition --------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_metrics_run_py_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert len(spec["per_layer"]) <= 128


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "exact_sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

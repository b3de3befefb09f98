"""Tests of the benchmark itself: tail helper, wrappers, smoke runs, digests.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys

import pytest

import run
from tracing import LAYERS, Tracer, installed
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_tail_percentile_values():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(39) is None  # p74 would be the tail
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(60) == 83
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(40, 2000):
        q = run.tail_percentile(n)
        assert n - run.rank(q, n) >= 10
        assert n - run.rank(q + 1, n) < 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank([5.0], 75) == 5.0


def test_tracer_splits_inclusive_and_self_time():
    tracer = Tracer()
    name_outer, name_inner = "invariants.invariants", "groebner.normal_form"

    def inner():
        return sum(range(20000))

    traced_inner = tracer.wrap(name_inner, inner)

    def outer():
        return traced_inner() + traced_inner()

    tracer.wrap(name_outer, outer)()
    assert tracer.inclusive[name_outer] == 0  # times join the totals at end_op
    tracer.end_op(2.0)
    assert tracer.calls[name_outer] == 1 and tracer.calls[name_inner] == 2
    children = tracer.inclusive[name_inner]
    assert tracer.self_time[name_outer] == pytest.approx(
        tracer.inclusive[name_outer] - children
    )
    assert 0 < tracer.self_time[name_outer] < tracer.inclusive[name_outer]
    assert tracer.self_time[name_inner] == pytest.approx(children)


def _namespaces():
    return [m for n, m in sys.modules.items() if n == "logtangent" or n.startswith("logtangent.")]


def test_wrappers_replace_every_binding_and_are_removed():
    originals = {
        f"{m}.{f}": getattr(importlib.import_module(f"logtangent.{m}"), f)
        for m, f in LAYERS
    }
    bindings = [
        (ns, attr)
        for ns in _namespaces()
        for attr, value in vars(ns).items()
        if any(value is o for o in originals.values())
    ]
    with installed(Tracer()):
        for ns in _namespaces():
            for attr, value in vars(ns).items():
                assert not any(value is o for o in originals.values()), (ns, attr)
        seq = sys.modules["logtangent.sequences"]
        bourbaki = sys.modules["logtangent.bourbaki"]
        package = sys.modules["logtangent"]
        assert (
            seq.module_gb_and_syzygies.__wrapped__
            is originals["groebner.module_gb_and_syzygies"]
        )
        assert (
            bourbaki.minimal_generators.__wrapped__
            is originals["resolution.minimal_generators"]
        )
        assert package.invariants.__wrapped__ is originals["invariants.invariants"]
    for ns, attr in bindings:
        assert any(getattr(ns, attr) is o for o in originals.values())


def test_benchmark_json_names_every_metric_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(workload, seed=0, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_share: 0.0" in capsys.readouterr().out


def test_wrong_recorded_digest_registers_as_failure(capsys, monkeypatch):
    wrong = {"schemes-fp": {"0": ["0" * 64] * WORKLOADS["schemes-fp"].pass_count}}
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "load_digests", lambda: wrong)
    result = run.run("schemes-fp", seed=0, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "differs from 000000000000" in capsys.readouterr().out


def test_unrecorded_seed_checks_repeatability():
    workload = WORKLOADS["search-cubic-fp"](10**6, {})
    assert workload.recorded is None
    rows = [workload.op(x) for x in workload.passes[0][:2]]
    assert workload.check(0, rows) == [None, None]
    rows[1].m += 1  # a pass that no longer repeats its first digest
    assert all(u is not None for u in workload.check(0, rows))

"""Self-tests of the benchmark's helpers.

Run from the repository root::

    python3 -m pytest layerbench/test_layerbench.py
"""

from __future__ import annotations

import asyncio
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


# -- percentile rule ---------------------------------------------------

def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert workload.nearest_rank(values, 50) == 50
    assert workload.nearest_rank(values, 99) == 99
    assert workload.nearest_rank(values, 100) == 100
    assert workload.nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        workload.nearest_rank([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert workload.n_beyond(1000, 99) == 10
    assert workload.n_beyond(999, 99) == 9
    short = workload.latency_summary([0.001] * 999)
    assert short["n"] == 999 and short["p99_ms"] is None
    assert short["p50_ms"] == pytest.approx(1.0)
    full = workload.latency_summary([i / 1000 for i in range(1000)])
    assert full["n"] == 1000
    assert full["p99_ms"] == pytest.approx(989.0)
    assert full["p50_ms"] == pytest.approx(499.0)
    assert workload.latency_summary([]) == {"n": 0, "p50_ms": None,
                                            "p99_ms": None}


# -- inputs --------------------------------------------------------------

def test_catalogue_cycle_covers_every_configuration_equally():
    per_cycle = len(workload.catalogue_entries())
    assert per_cycle == len(workload.CATALOGUE) * len(workload.VARIANTS)
    for seed in (0, 1, 12345):
        for cycle in range(3):
            entries = [workload.cold_entry(seed, cycle * per_cycle + i)
                       for i in range(per_cycle)]
            assert Counter(entries) == Counter(workload.catalogue_entries())
            configs = Counter(index for index, _ in entries)
            assert set(configs.values()) == {len(workload.VARIANTS)}


def test_cold_jobs_have_unique_keys_and_seed_independent_costs():
    n = 3 * len(workload.catalogue_entries())
    a = [workload.cold_payload(1, i) for i in range(n)]
    b = [workload.cold_payload(2, i) for i in range(n)]
    assert len({p["seed"] for p in a + b}) == 2 * n

    def cost_view(payloads):
        return sorted(json.dumps({k: v for k, v in p.items() if k != "seed"},
                                 sort_keys=True) for p in payloads)

    assert cost_view(a) == cost_view(b)
    assert [p["seed"] for p in a] != [p["seed"] for p in b]


def test_zipf_draws_are_deterministic_for_a_seed():
    counts = workload.zipf_counts(64, 4096)
    assert sum(counts) == 4096
    assert counts == sorted(counts, reverse=True)
    first = workload.zipf_schedule(7, 64)
    assert first == workload.zipf_schedule(7, 64)
    other = workload.zipf_schedule(8, 64)
    assert other != first
    assert sorted(other) == sorted(first)
    assert Counter(first) == dict(enumerate(counts))


def test_hot_set_ranks_are_fixed_and_half_the_requests_declare_qos():
    entries = workload.hot_entries()
    assert sorted(entries) == sorted(workload.catalogue_entries())
    assert entries == workload.hot_entries()
    counts = workload.zipf_counts(len(entries), workload.ZIPF_LENGTH)
    share = Counter()
    for (_, variant), count in zip(entries, counts):
        share[variant] += count / workload.ZIPF_LENGTH
    assert share["plain"] == pytest.approx(0.5, abs=0.01)
    assert share["qos_met"] == pytest.approx(0.25, abs=0.01)
    assert share["qos_missed"] == pytest.approx(0.25, abs=0.01)
    one, two = workload.hot_payloads(1), workload.hot_payloads(2)
    for a, b in zip(one, two):
        assert {**a, "seed": 0} == {**b, "seed": 0}


def test_budgets_give_both_admission_modes_far_from_the_threshold():
    from repro.errors.analytic import predict_error_statistics

    for params, met, missed in workload.CATALOGUE:
        rate = predict_error_statistics(params)["error_rate"]
        assert 0.0 < rate
        assert missed < rate / 1.4
        assert met >= min(1.0, rate * 1.4)


# -- spans ---------------------------------------------------------------

def test_covered_is_the_clipped_union_of_intervals():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (2, 4)]) == pytest.approx(3)
    assert spans.covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8)
    assert spans.covered(0, 10, [(-5, 2), (8, 15)]) == pytest.approx(4)
    assert spans.covered(0, 10, [(11, 12)]) == 0


def test_self_time_subtracts_what_children_cover():
    # (id, parent, name, start, end, key, active, note)
    tree = [
        (1, 0, "root", 0.0, 10.0, None, 10.0, None),
        (2, 1, "child", 1.0, 4.0, None, 3.0, None),
        (3, 1, "child", 3.0, 6.0, None, 3.0, None),
        (4, 2, "leaf", 1.5, 2.0, None, 0.5, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    table = spans.span_table(tree)
    assert table["child"]["count"] == 2
    assert table["child"]["total_ms"] == pytest.approx(6000.0)
    assert table["child"]["self_ms"] == pytest.approx(5500.0)
    assert table["child"]["median_ms"] == pytest.approx(3000.0)


def _toy_module():
    module = types.ModuleType("layerbench_toy")

    def outer(x):
        return module.inner(x) + 1

    def inner(x):
        return x * 2

    async def waits(x):
        await asyncio.sleep(0.05)
        return x

    class Box:
        def get(self, key):
            return key

    module.outer, module.inner, module.waits, module.Box = (
        outer, inner, waits, Box)
    sys.modules[module.__name__] = module
    return module


def test_tracer_records_parents_keys_and_active_time():
    module = _toy_module()
    tracer = spans.Tracer()
    tracer.install([
        spans.Target("toy", "toy.outer", "layerbench_toy:outer"),
        spans.Target("toy", "toy.inner", "layerbench_toy:inner",
                     key=lambda x: f"k{x}", after=lambda r: r),
        spans.Target("toy", "toy.waits", "layerbench_toy:waits",
                     active=True),
        spans.Target("toy", "toy.get", "layerbench_toy:Box.get",
                     key=lambda self, key: key),
        spans.Target("gone", "gone.f", "layerbench_toy:missing"),
        spans.Target("gone", "gone.g", "layerbench_toy_absent:f"),
    ])
    assert dict(tracer.absent) == {
        "gone": ["layerbench_toy:missing", "layerbench_toy_absent:f"]}
    module.outer(3)
    assert tracer.spans == []  # not recording yet
    tracer.recording = True
    assert module.outer(3) == 7
    assert module.Box().get("abc") == "abc"
    assert asyncio.run(module.waits(5)) == 5
    tracer.recording = False
    tracer.uninstall()
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["toy.inner"][1] == by_name["toy.outer"][0]
    assert by_name["toy.inner"][5] == "k3" and by_name["toy.inner"][7] == 6
    assert by_name["toy.get"][5] == "abc"
    waited = by_name["toy.waits"]
    assert waited[4] - waited[3] >= 0.04
    assert waited[6] < 0.02
    assert module.Box.get.__name__ == "get" and module.outer(1) == 3
    assert len(tracer.spans) == 4


def test_declared_per_layer_metrics_match_the_benchmark_file():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == \
        [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in declared["per_layer"]] == \
        [unit for _, unit in layers.PER_LAYER]


def test_sweep_rounds_match_the_campaign_cli():
    cli = pytest.importorskip("repro.cli")
    build = getattr(cli, "_campaign_tasks", None)
    if build is None:
        pytest.skip("the CLI no longer exposes its task builder")
    import sweep_proc

    ours = sweep_proc.round_tasks(42)
    for name in ours:
        argv = ["campaign", name, "--workers", "2", "--seed", "42"]
        if name == "fig6":
            argv += ["--widths", "2", "4", "8", "16"]
        args = cli.build_parser().parse_args(argv)
        assert [t.key for t in build(args)] == [t.key for t in ours[name]]

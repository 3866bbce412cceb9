"""Tests for fault-rate sweeps through the hardened campaign engine."""

import pytest

from repro.resilience.sweep import (
    WORKLOAD_LAYERS,
    fault_sweep_tasks,
    resilience_record,
    run_fault_sweep,
)


class TestTaskConstruction:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            fault_sweep_tasks("gpu", [0.1])

    def test_one_task_per_rate(self):
        tasks = fault_sweep_tasks("cell", [0.0, 0.01, 0.1], seed=3)
        assert [t.params["rate"] for t in tasks] == [0.0, 0.01, 0.1]
        assert all(t.kind == "resilience" for t in tasks)
        assert all(t.seed == 3 for t in tasks)

    def test_extra_params_forwarded(self):
        (task,) = fault_sweep_tasks("sad", [0.01], qos=True, n_pixels=8)
        assert task.params["qos"] is True
        assert task.params["n_pixels"] == 8


class TestResilienceRecord:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            resilience_record({"workload": "gpu", "rate": 0.1}, seed=0)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_LAYERS))
    def test_each_workload_produces_json_record(self, workload):
        import json

        params = {"workload": workload, "rate": 0.01,
                  "n_samples": 200, "n_blocks": 2, "size": 32}
        record = resilience_record(params, seed=1)
        assert record["layer"] == WORKLOAD_LAYERS[workload]
        assert record["rate"] == 0.01
        assert json.loads(json.dumps(record)) == record

    def test_filter_record_at_small_size(self):
        params = {"workload": "filter", "rate": 0.01, "image": "edges",
                  "size": 16}
        record = resilience_record(params, seed=2)
        assert record["image"] == "edges"
        assert 0.0 <= record["pixel_error_rate"] <= 1.0

    def test_zero_rate_cell_has_no_errors(self):
        record = resilience_record({"workload": "cell", "rate": 0.0}, seed=0)
        assert record["n_flips"] == 0 and record["error_rate"] == 0.0

    def test_record_reproducible(self):
        params = {"workload": "gear", "rate": 0.02, "n_samples": 500}
        assert resilience_record(params, 7) == resilience_record(params, 7)


class TestGuardedSweepAcceptance:
    """The ISSUE acceptance scenario: a SAD transient sweep where the
    QosGuard detects violations and golden fallback restores exact
    output, bit-identical across worker counts."""

    RATES = [0.0, 0.001, 0.01]

    def _run(self, n_workers, cache_dir=None):
        return run_fault_sweep(
            "sad", self.RATES, seed=11, n_workers=n_workers,
            cache_dir=cache_dir, qos=True, n_pixels=16, n_samples=128,
        )

    def test_guard_restores_exact_output_with_full_accounting(self):
        result = self._run(n_workers=1)
        assert result.ok
        by_rate = {r["rate"]: r for r in result.results}
        quiet = by_rate[0.0]
        assert quiet["n_fault_affected"] == 0
        assert quiet["qos"]["final_stage"] == "faulty_approx"
        assert quiet["qos"]["exact_match"] is True
        for rate in self.RATES[1:]:
            record = by_rate[rate]
            assert record["n_fault_affected"] > 0, rate
            qos = record["qos"]
            assert qos["final_stage"] == "golden"
            assert qos["exact_match"] is True
            # The log accounts for every fault-affected block.
            assert (len(qos["fault_affected_indices"])
                    == record["n_fault_affected"])

    def test_bit_identical_across_worker_counts(self, tmp_path):
        serial = self._run(n_workers=1, cache_dir=str(tmp_path / "c1"))
        parallel = self._run(n_workers=4, cache_dir=str(tmp_path / "c4"))
        # Drop wall-clock fields before comparing.
        def strip(records):
            out = []
            for record in records:
                record = dict(record)
                qos = dict(record["qos"])
                qos.pop("wall_s")
                record["qos"] = qos
                out.append(record)
            return out

        assert strip(serial.results) == strip(parallel.results)

    def test_resume_recomputes_nothing(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = self._run(n_workers=2, cache_dir=cache)
        warm = self._run(n_workers=2, cache_dir=cache)
        assert warm.stats.n_executed == 0
        assert warm.stats.n_cache_hits == len(self.RATES)
        assert cold.results == warm.results

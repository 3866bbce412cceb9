"""Brownout ladder unit tests, fully deterministic under a fake clock.

The controller must escalate only on a *sustained* SLO breach (one
hysteresis window per level), degrade admissions according to its
level -- cheaper approximate configurations first, exact single-block
twins second, load shedding last -- recover one level per sustained-ok
window, and surface every transition in ``/v1/stats``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.admission import negotiate
from repro.service.brownout import (
    BrownoutController,
    LEVELS,
    ShedLoad,
    SloConfig,
)
from repro.service.schemas import JobSpec, QosSpec


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> "FakeClock":
        self.t += dt
        return self


def _controller(**slo_overrides):
    slo = SloConfig(**{
        "target_latency_s": 1.0,
        "max_queue_depth": 4,
        "escalate_after_s": 1.0,
        "recover_after_s": 2.0,
        **slo_overrides,
    })
    clock = FakeClock()
    return BrownoutController(slo=slo, clock=clock), clock


class TestEscalation:
    def test_momentary_spike_never_escalates(self):
        ctrl, clock = _controller()
        ctrl.tick(queue_depth=100)  # breach starts
        clock.advance(0.5)
        ctrl.tick(queue_depth=0)    # breach clears inside the window
        clock.advance(10.0)
        ctrl.tick(queue_depth=100)  # a fresh breach starts a fresh timer
        assert ctrl.level == 0
        assert ctrl.transitions == []

    def test_sustained_breach_climbs_one_level_per_window(self):
        ctrl, clock = _controller()
        ctrl.tick(queue_depth=100)
        for expected_level in (1, 2, 3):
            clock.advance(1.1)
            ctrl.tick(queue_depth=100)
            assert ctrl.level == expected_level
        clock.advance(1.1)
        ctrl.tick(queue_depth=100)
        assert ctrl.level == 3  # the ladder tops out at shed
        assert [t["to"] for t in ctrl.transitions] == \
            ["cheaper_approx", "exact_twin", "shed"]
        assert all("queue depth" in t["reason"] for t in ctrl.transitions)

    def test_latency_ewma_breach_also_escalates(self):
        ctrl, clock = _controller()
        for _ in range(8):
            ctrl.observe_latency("analytic", 5.0)
        ctrl.tick(queue_depth=0)
        clock.advance(1.1)
        ctrl.tick(queue_depth=0)
        assert ctrl.level == 1
        assert "latency EWMA[analytic]" in ctrl.transitions[0]["reason"]

    def test_ewma_smooths_single_outliers(self):
        ctrl, _ = _controller(ewma_alpha=0.25)
        for _ in range(20):
            ctrl.observe_latency("analytic", 0.1)
        ctrl.observe_latency("analytic", 30.0)  # one pathological job
        ctrl.observe_latency("analytic", 0.1)
        # One outlier lifts the EWMA but a healthy stream pulls it back.
        for _ in range(30):
            ctrl.observe_latency("analytic", 0.1)
        assert ctrl._latency_ewma["analytic"] < 1.0


class TestRecovery:
    def test_recovers_one_level_per_sustained_ok_window(self):
        ctrl, clock = _controller()
        ctrl.tick(queue_depth=100)
        for _ in range(2):
            clock.advance(1.1)
            ctrl.tick(queue_depth=100)
        assert ctrl.level == 2

        ctrl.tick(queue_depth=0)       # ok: recovery timer arms
        clock.advance(2.1)
        ctrl.tick(queue_depth=0)
        assert ctrl.level == 1
        clock.advance(2.1)
        ctrl.tick(queue_depth=0)
        assert ctrl.level == 0
        assert [t["to"] for t in ctrl.transitions[-2:]] == \
            ["cheaper_approx", "normal"]

    def test_recovery_needs_the_margin_not_just_no_breach(self):
        """Queue depth inside the hysteresis band (no breach, but above
        the recovery margin) holds the current level forever."""
        ctrl, clock = _controller(max_queue_depth=10, recover_margin=0.5)
        ctrl.tick(queue_depth=100)
        clock.advance(1.1)
        ctrl.tick(queue_depth=100)
        assert ctrl.level == 1
        for _ in range(10):
            clock.advance(5.0)
            ctrl.tick(queue_depth=8)  # 8 <= 10 (no breach) but > 10*0.5
        assert ctrl.level == 1


def _decision(kind="analytic", params=None, **spec_kw):
    spec = JobSpec(kind=kind,
                   params=params or {"n": 8, "r": 2, "p": 2}, **spec_kw)
    return negotiate(spec)


class TestApply:
    def test_level0_passes_through_untouched(self):
        ctrl, _ = _controller()
        decision = _decision()
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None

    def test_level1_clamps_samples_and_retries(self):
        ctrl, _ = _controller(brownout_samples=1000)
        ctrl.level = 1
        decision = _decision(
            kind="gear_dse_row",
            params={"n": 8, "r": 2, "p": 2, "model": "monte_carlo",
                    "n_samples": 100_000},
            max_attempts=3,
        )
        applied, stage = ctrl.apply(decision)
        assert stage == "cheaper_approx"
        assert applied.spec.params["n_samples"] == 1000
        assert applied.spec.max_attempts == 1
        assert applied.spec.params["r"] == 2  # level 1 keeps the config
        assert "[brownout: cheaper_approx]" in applied.detail
        assert ctrl.n_degraded == 1

    def test_level2_rewrites_block_adders_to_exact_twin(self):
        ctrl, _ = _controller()
        ctrl.level = 2
        applied, stage = ctrl.apply(_decision(
            params={"n": 8, "r": 2, "p": 2},
        ))
        assert stage == "exact_twin"
        assert applied.spec.params == {"n": 8, "r": 8, "p": 0}

        applied, stage = ctrl.apply(_decision(
            params={"segments": [[4, 0], [4, 2]]},
        ))
        assert stage == "exact_twin"
        assert applied.spec.params == {"segments": [[8, 0]]}
        assert ctrl.n_degraded == 2

    @pytest.mark.parametrize("params", [
        {"segments": [[8, 0]]},
        {"segments": "8:0"},
    ])
    def test_level2_already_exact_segment_jobs_are_a_noop(self, params):
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(params=params)
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None
        assert ctrl.n_degraded == 0

    def test_level2_leaves_admission_exact_fallback_alone(self):
        """A job admission already rewrote to its exact twin is not
        degraded (or re-keyed) a second time."""
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(
            params={"segments": [[4, 0], [4, 2]]},
            qos=QosSpec(error_budget=0.0),
        )
        assert decision.mode == "exact_fallback"
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None
        assert ctrl.n_degraded == 0

    def test_level2_leaves_invalid_layouts_alone(self):
        """``p_0 = 2`` is no valid layout; the job fails at execution
        rather than being turned into a valid exact one."""
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(params={"segments": [[4, 2], [4, 2]]})
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None

    def test_level2_leaves_unpredictable_kinds_alone(self):
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(kind="ripple_adder",
                             params={"width": 8, "approx_lsbs": 2})
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None  # nothing to degrade

    def test_level2_exact_twin_is_already_exact_noop(self):
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(params={"n": 8, "r": 8, "p": 0})
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None

    def test_level3_sheds_with_retry_after(self):
        ctrl, _ = _controller(shed_retry_after_s=2.5)
        ctrl.level = 3
        with pytest.raises(ShedLoad) as exc:
            ctrl.apply(_decision())
        assert exc.value.retry_after_s == 2.5
        assert ctrl.n_shed == 1

    def test_disabled_controller_never_interferes(self):
        ctrl = BrownoutController(enabled=False, clock=FakeClock())
        ctrl.tick(queue_depth=10**6)
        assert ctrl.level == 0
        ctrl.level = 3  # even forced, apply is a no-op when disabled
        decision = _decision()
        applied, stage = ctrl.apply(decision)
        assert applied is decision and stage is None

    def test_degraded_admission_still_honors_qos_mode(self):
        """Brownout composes with QoS admission: an exact_fallback
        decision keeps its mode, only the spec degrades further."""
        ctrl, _ = _controller()
        ctrl.level = 2
        decision = _decision(
            params={"n": 8, "r": 2, "p": 2},
            qos=QosSpec(error_budget=0.0),
        )
        assert decision.mode == "exact_fallback"
        applied, stage = ctrl.apply(decision)
        assert applied.mode == "exact_fallback"
        assert applied.spec.params["p"] == 0


class TestServiceIntegration:
    def test_ladder_walks_and_transitions_surface_in_stats(
        self, service_harness
    ):
        """Drive a paused service into overload through real admissions:
        the ladder climbs to shed, POSTs answer 503 with Retry-After,
        and /v1/stats exposes the transition log."""
        slo = SloConfig(target_latency_s=60.0, max_queue_depth=1,
                        escalate_after_s=0.5, recover_after_s=5.0)
        clock = FakeClock()

        def job(seed):
            return {"kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
                    "seed": seed}

        async def body():
            async with service_harness(
                n_workers=1, paused=True, slo=slo, clock=clock,
            ) as (app, client):
                for seed in range(3):  # queue depth past the SLO
                    status, _ = await client.post_job(job(seed))
                    assert status == 202
                statuses = []
                for seed in range(3, 10):
                    clock.advance(0.6)
                    status, body = await client.post_job(job(seed))
                    statuses.append(status)
                    if status == 503:
                        assert body["error"] == "brownout_shed"
                        break
                assert statuses[-1] == 503, statuses
                assert app.brownout.level == 3

                _, headers, shed = await client.request(
                    "POST", "/v1/jobs", body=job(99),
                    headers={"X-Tenant": "public"},
                )
                assert "retry-after" in headers
                assert shed["error"] == "brownout_shed"

                status, _, stats = await client.get("/v1/stats")
                assert status == 200
                assert stats["brownout"]["stage"] == "shed"
                assert [t["to"] for t in stats["brownout"]["transitions"]] \
                    == list(LEVELS[1:])
                assert stats["brownout"]["n_shed"] >= 1

                # Degraded-before-shed: a level-2 admission rewrote an
                # approximate config to its exact twin on the way up.
                degraded = [
                    j for j in app.jobs.values()
                    if any(e.event == "brownout" for e in j.events)
                ]
                assert degraded, "no admission was degraded before shedding"
                assert all(
                    j.spec.params["p"] == 0 and
                    j.spec.params["r"] == j.spec.params["n"]
                    for j in degraded
                    if any(e.data.get("stage") == "exact_twin"
                           for e in j.events if e.event == "brownout")
                )

        asyncio.run(body())

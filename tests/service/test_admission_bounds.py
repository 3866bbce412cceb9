"""Admission does bounded work, because it runs on the event loop.

``negotiate`` answers a QoS request -- admit, rewrite or refuse --
before the job is queued, on the loop that serves every other request.
Whatever configuration a request names, the answer must come in bounded
time: the width is checked before any prediction, rates and means come
from the ``(carry, run)`` walk, and the full error PMF is built only for
the MED/NMED of configurations that can overestimate, up to
``MAX_PMF_SEGMENTS`` segments.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.adders import HeteroGeArConfig
from repro.errors.analytic import MAX_PMF_SEGMENTS
from repro.service.admission import negotiate
from repro.service.schemas import QOS_METRICS, SchemaError, validate_job_request

#: Wall-clock bound on one admission decision.  The walk takes well
#: under a millisecond at these widths; the full PMF took seconds.
BOUND_S = 0.05

#: One-bit segments without prediction under a top segment that
#: predicts deeper than the segment below can have missed, so the
#: configuration can overestimate.
OVERESTIMATING_16 = [[1, 0]] * 15 + [[1, 2]]


def _spec(params, metric="error_rate", budget=0.5):
    return validate_job_request({
        "kind": "analytic",
        "params": params,
        "qos": {"error_budget": budget, "metric": metric},
    })


@pytest.fixture(autouse=True)
def _warm_imports():
    """Keep one-off module imports out of the timed decisions."""
    negotiate(_spec({"n": 8, "r": 2, "p": 2}))


@pytest.mark.parametrize("metric", QOS_METRICS)
@pytest.mark.parametrize("n", [20, 24])
def test_wide_small_block_configs_negotiate_in_bounded_time(n, metric):
    spec = _spec({"n": n, "r": 1, "p": 0}, metric, budget=0.0)
    start = time.perf_counter()
    decision = negotiate(spec)
    assert time.perf_counter() - start < BOUND_S
    assert decision.mode == "exact_fallback"
    assert set(decision.predicted) == {
        "error_rate", "accuracy_percent", "mean", "med", "nmed",
        "n", "k", "exact",
    }
    assert decision.predicted["med"] == -decision.predicted["mean"]


@pytest.mark.parametrize("params", [
    {"n": 40, "r": 1, "p": 0},
    {"segments": [[1, 0]] * 40},
    {"n": 10**6, "r": 1, "p": 0},
])
def test_too_wide_is_refused_before_any_prediction(params):
    spec = _spec(params)
    start = time.perf_counter()
    with pytest.raises(SchemaError) as refused:
        negotiate(spec)
    assert time.perf_counter() - start < BOUND_S
    assert refused.value.field == "params"


def test_overestimating_config_past_the_segment_bound():
    config = HeteroGeArConfig(OVERESTIMATING_16)
    assert not config.never_overestimates
    assert config.k > MAX_PMF_SEGMENTS
    params = {"segments": OVERESTIMATING_16}
    for metric in ("med", "nmed"):
        with pytest.raises(SchemaError, match=metric) as refused:
            negotiate(_spec(params, metric))
        assert refused.value.field == "params"

    start = time.perf_counter()
    decision = negotiate(_spec(params, "error_rate", budget=1.0))
    assert time.perf_counter() - start < BOUND_S
    assert decision.mode == "approximate"
    assert "med" not in decision.predicted
    assert "nmed" not in decision.predicted


def test_med_budget_past_the_bound_is_a_structured_400(service_harness):
    async def body():
        async with service_harness(n_workers=1) as (_, client):
            status, refused = await client.post_job({
                "kind": "analytic",
                "params": {"segments": OVERESTIMATING_16},
                "qos": {"error_budget": 0.5, "metric": "med"},
            })
            assert status == 400
            assert refused["error"] == "bad_request"
            assert refused["field"] == "params"

    asyncio.run(body())

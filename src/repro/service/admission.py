"""QoS admission control: predict quality analytically, then commit.

A request may declare an error budget -- "best effort at <= 1% error,
else exact".  For block-adder job families the analytic error engine
(:func:`repro.errors.analytic.predict_error_statistics`) decides whether
the requested approximate configuration meets that budget, **without
running anything**:

* prediction meets the budget -> admit the approximate configuration
  as-is (``mode="approximate"``); the prediction is exact, so this is a
  guarantee, not a bet (see ``tests/service/test_admission_properties``
  for the exhaustive cross-check).
* prediction violates the budget -> rewrite the job to the exact
  single-block fallback before it ever runs (``mode="exact_fallback"``).
  The exact configuration has error 0, so any budget it can be asked
  about is satisfiable.

The prediction runs on the service's event loop, so its cost is bounded
before any of it runs.  Error rate and mean come from one
``(carry, run)`` walk, well under a millisecond at every admitted width;
MED and NMED too when the configuration never overestimates, and
otherwise from the full error PMF, built only up to
:data:`~repro.errors.analytic.MAX_PMF_SEGMENTS` segments.  So a QoS
request is refused with a structured 400 on ``params`` when its params
are not a valid block adder, when the width exceeds
:data:`~repro.errors.analytic.MAX_PREDICT_WIDTH` (checked before any
walk), or when it budgets ``med``/``nmed`` of an overestimating
configuration past the segment bound.

Job kinds the analytic engine cannot predict (media pipelines,
multipliers, ...) fall through to runtime enforcement: ``resilience``
jobs with a QosGuard ladder are admitted ``mode="guarded"`` (the
escalation ladder ends at the golden path, surfacing
``degraded_to_exact`` in the result), and everything else is admitted
unchanged (``mode="as_declared"``) with the declaration echoed back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..errors.analytic import MAX_PMF_SEGMENTS, predict_error_statistics
from .schemas import JobSpec, QosSpec, SchemaError

__all__ = [
    "AdmissionDecision",
    "PREDICTABLE_KINDS",
    "exact_twin_params",
    "negotiate",
]

#: Kinds whose params name a block-adder configuration the analytic
#: engine can predict exactly at admission time.
PREDICTABLE_KINDS = ("analytic", "gear_dse_row", "gear_adder")


@dataclass(frozen=True)
class AdmissionDecision:
    """The negotiated outcome of one job admission."""

    mode: str  # "approximate" | "exact_fallback" | "guarded" | "as_declared"
    spec: JobSpec
    qos: Optional[QosSpec] = None
    predicted: Dict[str, float] = field(default_factory=dict)
    prediction_us: float = 0.0
    detail: str = ""

    def to_record(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "qos": self.qos.to_record() if self.qos else None,
            "predicted": dict(self.predicted),
            "prediction_us": round(self.prediction_us, 1),
            "detail": self.detail,
        }

    @classmethod
    def from_record(
        cls, record: Dict[str, Any], spec: JobSpec
    ) -> "AdmissionDecision":
        """Rebuild a decision from :meth:`to_record` (journal replay).

        The spec is re-attached from its own journaled record rather
        than re-negotiated, so a recovered job keeps exactly the
        admission it was answered with -- including any brownout
        rewrite active at its original admission.
        """
        qos = record.get("qos")
        return cls(
            mode=record.get("mode", "as_declared"),
            spec=spec,
            qos=QosSpec(
                error_budget=float(qos["error_budget"]),
                metric=qos.get("metric", "error_rate"),
            ) if qos else None,
            predicted=dict(record.get("predicted", {})),
            prediction_us=float(record.get("prediction_us", 0.0)),
            detail=record.get("detail", ""),
        )


def exact_twin_params(params: Dict[str, Any], width: int) -> Dict[str, Any]:
    """A block-adder job's params rewritten to its exact single-block twin."""
    params = dict(params)
    if "segments" in params:
        params["segments"] = [[width, 0]]
    else:
        params["r"], params["p"] = width, 0
    return params


def negotiate(spec: JobSpec) -> AdmissionDecision:
    """Negotiate one validated job's QoS before it reaches the queue.

    Raises:
        SchemaError: The QoS declaration names a predictable kind but
            its params do not form a valid block-adder configuration,
            are wider than
            :data:`~repro.errors.analytic.MAX_PREDICT_WIDTH`, or budget a
            metric the bounded prediction leaves out.
    """
    if spec.qos is None:
        return AdmissionDecision(mode="as_declared", spec=spec,
                                 detail="no QoS declared")

    if spec.kind == "resilience" and spec.params.get("qos"):
        return AdmissionDecision(
            mode="guarded",
            spec=spec,
            qos=spec.qos,
            detail=(
                "runtime QosGuard escalation ladder enforces the budget; "
                "degraded_to_exact is reported per request"
            ),
        )

    if spec.kind not in PREDICTABLE_KINDS:
        return AdmissionDecision(
            mode="as_declared",
            spec=spec,
            qos=spec.qos,
            detail=f"kind {spec.kind!r} has no analytic predictor",
        )

    start = time.perf_counter()
    try:
        predicted = predict_error_statistics(spec.params)
    except (ValueError, TypeError) as exc:
        raise SchemaError(
            f"qos declared but params cannot be predicted: {exc}", "params"
        )
    if spec.qos.metric not in predicted:
        raise SchemaError(
            f"{spec.qos.metric} of a configuration that can overestimate "
            f"is predicted only up to {MAX_PMF_SEGMENTS} segments, got "
            f"k={int(predicted['k'])}; budget error_rate instead",
            "params",
        )
    prediction_us = (time.perf_counter() - start) * 1e6

    metric_value = predicted[spec.qos.metric]
    if metric_value <= spec.qos.error_budget:
        return AdmissionDecision(
            mode="approximate",
            spec=spec,
            qos=spec.qos,
            predicted=predicted,
            prediction_us=prediction_us,
            detail=(
                f"predicted {spec.qos.metric}={metric_value:.6g} <= "
                f"budget {spec.qos.error_budget:.6g}"
            ),
        )
    width = int(predicted["n"])
    return AdmissionDecision(
        mode="exact_fallback",
        spec=replace(spec, params=exact_twin_params(spec.params, width)),
        qos=spec.qos,
        predicted=predicted,
        prediction_us=prediction_us,
        detail=(
            f"predicted {spec.qos.metric}={metric_value:.6g} > "
            f"budget {spec.qos.error_budget:.6g}; "
            f"rewritten to exact single-block adder (n={width})"
        ),
    )

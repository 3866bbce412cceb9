"""Overload brownout: principled degradation before any load shedding.

The paper's cross-layer argument is that quality/effort trade-offs
should be coordinated across the stack; :class:`QosGuard` already walks
an escalation ladder at the *resilience* layer.  This module is the
same idea at the *service* layer: when the deployment is saturated,
degrade the answers before refusing the questions.

:class:`BrownoutController` watches two load signals against a
declared SLO (:class:`SloConfig`):

* a per-kind **EWMA of end-to-end job latency** (queue wait +
  execution), updated on every job completion, and
* the **queue depth** at admission time,

and walks a four-level ladder with hysteresis (a breach must be
*sustained* for ``escalate_after_s`` to step up; recovery must be
sustained below ``recover_margin`` of the SLO for ``recover_after_s``
to step back down -- momentary spikes never flap the level):

========  ==================  =========================================
level     stage               admission effect
========  ==================  =========================================
0         ``normal``          none
1         ``cheaper_approx``  rewrite to a cheaper approximate config:
                              sampling params (``n_samples``) clamp to
                              ``brownout_samples`` and retries clamp to
                              one attempt -- cheaper *and* more
                              approximate, the cross-layer knob
2         ``exact_twin``      additionally, valid approximate
                              block-adder configurations are rewritten
                              to the exact single-block twin admission
                              uses -- for the PMF-convolution family a
                              single block is the *cheapest* possible
                              configuration (one trivial convolution)
3         ``shed``            refuse admission with a structured 503
                              and ``Retry-After`` (:class:`ShedLoad`)
========  ==================  =========================================

Every transition is appended to a structured log surfaced verbatim in
``/v1/stats`` so operators (and the ladder unit tests) can audit the
controller's behaviour after the fact.  Everything is deterministic
under an injected clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors.analytic import config_from_params
from .admission import PREDICTABLE_KINDS, AdmissionDecision, exact_twin_params
from .schemas import JobSpec

__all__ = ["BrownoutController", "LEVELS", "ShedLoad", "SloConfig"]

#: Ladder stage names, by level.
LEVELS = ("normal", "cheaper_approx", "exact_twin", "shed")

Clock = Callable[[], float]


class ShedLoad(Exception):
    """Admission refused at brownout level 3; retry after a backoff."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"service overloaded; retry in {retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class SloConfig:
    """The service-level objective the brownout controller defends."""

    #: End-to-end latency target per job (queue wait + execution).
    target_latency_s: float = 2.0
    #: Queue depth past which admission pressure counts as a breach.
    max_queue_depth: int = 128
    #: Smoothing factor of the per-kind latency EWMA.
    ewma_alpha: float = 0.25
    #: A breach must persist this long before each escalation step.
    escalate_after_s: float = 3.0
    #: Recovery must persist this long before each step back down.
    recover_after_s: float = 10.0
    #: "Recovered" means below this fraction of the SLO thresholds
    #: (hysteresis band between breach and recovery).
    recover_margin: float = 0.5
    #: ``Retry-After`` answered with a level-3 shed.
    shed_retry_after_s: float = 1.0
    #: ``n_samples`` clamp applied from level 1 on.
    brownout_samples: int = 5000

    def __post_init__(self) -> None:
        if not self.target_latency_s > 0.0:
            raise ValueError(
                f"target_latency_s must be > 0, got {self.target_latency_s}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if not 0.0 < self.recover_margin < 1.0:
            raise ValueError(
                f"recover_margin must be in (0, 1), got {self.recover_margin}"
            )

    def to_record(self) -> Dict[str, Any]:
        return {
            "target_latency_s": self.target_latency_s,
            "max_queue_depth": self.max_queue_depth,
            "ewma_alpha": self.ewma_alpha,
            "escalate_after_s": self.escalate_after_s,
            "recover_after_s": self.recover_after_s,
            "recover_margin": self.recover_margin,
            "shed_retry_after_s": self.shed_retry_after_s,
            "brownout_samples": self.brownout_samples,
        }


class BrownoutController:
    """SLO-guarded escalation ladder over service admissions."""

    def __init__(
        self,
        slo: Optional[SloConfig] = None,
        clock: Optional[Clock] = None,
        enabled: bool = True,
        max_transitions: int = 256,
    ) -> None:
        self.slo = slo or SloConfig()
        self.clock: Clock = clock or time.monotonic
        self.enabled = enabled
        self.max_transitions = max_transitions
        self.level = 0
        self.transitions: List[Dict[str, Any]] = []
        self.n_degraded = 0
        self.n_shed = 0
        self._latency_ewma: Dict[str, float] = {}
        self._breach_since: Optional[float] = None
        self._ok_since: Optional[float] = None

    # -- load signals --------------------------------------------------

    def observe_latency(self, kind: str, latency_s: float) -> None:
        """Fold one finished job's end-to-end latency into its kind's EWMA."""
        alpha = self.slo.ewma_alpha
        previous = self._latency_ewma.get(kind)
        if previous is None:
            self._latency_ewma[kind] = latency_s
        else:
            self._latency_ewma[kind] = (
                alpha * latency_s + (1.0 - alpha) * previous
            )

    def _breach(self, queue_depth: int) -> Optional[str]:
        """Reason string when the SLO is currently breached, else None."""
        if queue_depth > self.slo.max_queue_depth:
            return (
                f"queue depth {queue_depth} > {self.slo.max_queue_depth}"
            )
        for kind, ewma in sorted(self._latency_ewma.items()):
            if ewma > self.slo.target_latency_s:
                return (
                    f"latency EWMA[{kind}]={ewma:.3f}s > "
                    f"target {self.slo.target_latency_s}s"
                )
        return None

    def _recovered(self, queue_depth: int) -> bool:
        """Strictly inside the hysteresis band: safe to step back down."""
        margin = self.slo.recover_margin
        if queue_depth > self.slo.max_queue_depth * margin:
            return False
        return all(
            ewma <= self.slo.target_latency_s * margin
            for ewma in self._latency_ewma.values()
        )

    # -- ladder --------------------------------------------------------

    def tick(self, queue_depth: int) -> None:
        """Advance the hysteresis state machine one observation.

        Called at every admission and every job completion.  Escalation
        requires a breach sustained for ``escalate_after_s`` (the timer
        re-arms after each step, so a ladder climb takes one window per
        level); stepping down requires sustained recovery below the
        margin, one window per level.
        """
        if not self.enabled:
            return
        now = self.clock()
        reason = self._breach(queue_depth)
        if reason is not None:
            self._ok_since = None
            if self._breach_since is None:
                self._breach_since = now
            elif (
                now - self._breach_since >= self.slo.escalate_after_s
                and self.level < len(LEVELS) - 1
            ):
                self._transition(self.level + 1, reason, now)
                self._breach_since = now
            return
        self._breach_since = None
        if self.level == 0 or not self._recovered(queue_depth):
            self._ok_since = None
            return
        if self._ok_since is None:
            self._ok_since = now
        elif now - self._ok_since >= self.slo.recover_after_s:
            self._transition(self.level - 1, "sustained recovery", now)
            self._ok_since = now

    def _transition(self, level: int, reason: str, now: float) -> None:
        self.transitions.append({
            "at": round(now, 3),
            "from": LEVELS[self.level],
            "to": LEVELS[level],
            "reason": reason,
        })
        del self.transitions[:-self.max_transitions]
        self.level = level

    # -- admission effect ----------------------------------------------

    def apply(
        self, decision: AdmissionDecision
    ) -> Tuple[AdmissionDecision, Optional[str]]:
        """Degrade one negotiated admission per the current level.

        Returns ``(decision, stage)`` where ``stage`` is the brownout
        stage applied (``None`` at level 0).

        Raises:
            ShedLoad: At level 3 -- the caller answers a structured 503
                with ``Retry-After``.
        """
        if not self.enabled or self.level == 0:
            return decision, None
        if self.level >= 3:
            self.n_shed += 1
            raise ShedLoad(self.slo.shed_retry_after_s)
        stage = LEVELS[self.level]
        spec = self._degrade_spec(decision.spec)
        if spec is decision.spec:
            return decision, None
        self.n_degraded += 1
        detail = decision.detail
        suffix = f" [brownout: {stage}]"
        return replace(
            decision, spec=spec, detail=(detail + suffix).strip()
        ), stage

    def _degrade_spec(self, spec: JobSpec) -> JobSpec:
        params = dict(spec.params)
        changed = False
        n_samples = params.get("n_samples")
        if (
            isinstance(n_samples, int)
            and n_samples > self.slo.brownout_samples
        ):
            params["n_samples"] = self.slo.brownout_samples
            changed = True
        max_attempts = spec.max_attempts
        if max_attempts > 1:
            max_attempts = 1
            changed = True
        if self.level >= 2 and spec.kind in PREDICTABLE_KINDS:
            try:
                config = config_from_params(params)
            except (ValueError, TypeError):
                config = None  # invalid params fail at execution instead
            if config is not None and not config.is_exact:
                params = exact_twin_params(params, config.n)
                changed = True
        if not changed:
            return spec
        return replace(spec, params=params, max_attempts=max_attempts)

    # -- reporting -----------------------------------------------------

    def to_record(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "level": self.level,
            "stage": LEVELS[self.level],
            "slo": self.slo.to_record(),
            "latency_ewma_s": {
                kind: round(ewma, 4)
                for kind, ewma in sorted(self._latency_ewma.items())
            },
            "n_degraded": self.n_degraded,
            "n_shed": self.n_shed,
            "transitions": list(self.transitions[-20:]),
        }

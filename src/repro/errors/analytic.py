"""The block-adder error engine: exact rates, means and error PMFs.

The paper's Sec. 4.2 error model is exact but enumerates ``R x (k-1)``
exponentially many carry terms; Monte Carlo and exhaustive sweeps do not
scale either.  Wu et al. (arXiv 1703.03522) observe that a block adder's
error distribution is computable *exactly* by composing per-block error
events.  This module implements that idea as bit-level dynamic programs
over uniform random operands -- a full-PMF walk and a lighter rate/mean
walk -- valid for homogeneous GeAr (and its ACA-I/ACA-II/ETAII/GDA
mappings) **and** the heterogeneous
:class:`~repro.adders.HeteroGeArConfig` family (Farahmand et al., arXiv
2106.08800), of which homogeneous GeAr is a special case.

How it works
------------
Under uniform operands each bit position is independently *generate*
(``a=b=1``, prob 1/4), *propagate* (``a^b=1``, prob 1/2) or *kill*
(prob 1/4).  Segment ``i`` (base bit ``t_i``, prediction depth ``p_i``)
misses its carry exactly when the true carry into ``t_i`` is 1 **and**
the ``p_i`` positions below ``t_i`` all propagate -- equivalently, when
the running propagate-run length at ``t_i`` is at least ``p_i`` and the
carry survives it.  The DP therefore walks positions ``0..N-1`` with the
joint state

``(carry, run, pending)``

where ``carry`` is the true carry, ``run`` the current propagate-run
length (capped at ``max(p_i)``), and ``pending`` marks a missed carry
whose block result is still all-propagate.  A missed carry at a
non-final segment contributes ``-2**t_i`` unless every position of the
segment propagates, in which case the kept field wraps to all-ones and
the contribution is ``+(2**t_{i+1} - 2**t_i)`` (usually cancelled by the
next segment's own missed carry).  The final segment owns the carry-out
bit and can never wrap.  Each state carries the exact distribution of
the accumulated error, so the result is the *full* error PMF -- not just
a rate -- in ``O(N * max_p * support)`` time.

Rates and means need no distribution.  One lighter walk over
``(carry, run)`` alone answers them for every block adder, in
``O(N * max_p)`` time:

* a missed carry always errs (the lowest missing segment fixes the
  total modulo ``2**t_{m+1}``), so the error rate is the mass absorbed
  at the first miss (:func:`analytic_error_rate`);
* the mean is ``-2**t_last * P[last segment misses]``: a miss at a
  non-final segment ``i`` subtracts ``2**t_i``, or wraps and adds
  ``2**t_{i+1} - 2**t_i`` when all ``r_i`` bits of the segment propagate
  (probability ``2**-r_i``, independent of the miss), and
  ``-2**t_i (1 - 2**-r_i) + (2**t_{i+1} - 2**t_i) 2**-r_i = 0``;
* when every error is ``<= 0`` (``never_overestimates``) the mean error
  distance is ``-mean``.

The full PMF is built only where a caller needs more: the ``analytic``
record's ``max_abs``/``support_size`` and the MED of configurations
that can overestimate (:func:`analytic_summary`).

All probabilities are dyadic rationals (multiples of ``4**-N``), exact
in double precision up to ``N = 26``, so the walk's rates equal the
PMF's and exhaustive enumeration bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .pmf import ErrorPMF

__all__ = [
    "BlockErrorEvent",
    "MAX_PMF_SEGMENTS",
    "MAX_PREDICT_WIDTH",
    "analytic_error_pmf",
    "analytic_error_rate",
    "analytic_summary",
    "block_error_events",
    "config_from_params",
    "exhaustive_error_pmf",
    "predict_error_statistics",
]

#: Per-bit event probabilities for uniform random operands.
P_GENERATE = 0.25
P_PROPAGATE = 0.5
P_KILL = 0.25

#: Segment count up to which :func:`predict_error_statistics` builds the
#: full PMF for the MED of a configuration that can overestimate.  The
#: prediction runs on the service's event loop, and the PMF's support
#: doubles per segment.  The slowest layout is one-bit segments below a
#: wide overestimating top segment: at width 26 its PMF takes ~16 ms
#: with 8 segments, ~40 ms with 9 and ~330 ms with 12.
MAX_PMF_SEGMENTS = 8

#: Widths past this are refused by :func:`predict_error_statistics`
#: before any walk runs: probabilities are multiples of ``4**-N``, exact
#: in doubles only up to N = 26.
MAX_PREDICT_WIDTH = 26


def _segments(config) -> Tuple[Tuple[int, int], ...]:
    """Normalize any supported adder config to ``((r_i, p_i), ...)``.

    Accepts a heterogeneous config (``segments`` attribute) or a
    homogeneous GeAr-style config (``n``/``r``/``p`` attributes --
    including the ACA/ETAII/GDA variants, which are GeAr mappings).
    Duck typing avoids importing ``repro.adders`` at module level.
    """
    if hasattr(config, "segments"):
        return tuple((int(r), int(p)) for r, p in config.segments)
    if all(hasattr(config, f) for f in ("n", "r", "p")):
        n, r, p = config.n, config.r, config.p
        k = (n - (r + p)) // r + 1
        return ((r + p, 0),) + ((r, p),) * (k - 1)
    raise TypeError(
        f"unsupported config {config!r}: need .segments or .n/.r/.p"
    )


def _starts(segments: Tuple[Tuple[int, int], ...]) -> List[int]:
    starts, base = [], 0
    for r, _ in segments:
        starts.append(base)
        base += r
    return starts


# State: (carry in {0,1}, propagate-run length, pending-wrap flag).
_State = Tuple[int, int, bool]


def _accumulate(
    into: Dict[_State, Dict[int, float]],
    state: _State,
    errors: Dict[int, float],
    weight: float = 1.0,
    offset: int = 0,
) -> None:
    bucket = into.setdefault(state, {})
    for value, prob in errors.items():
        key = value + offset
        bucket[key] = bucket.get(key, 0.0) + prob * weight


def analytic_error_pmf(config) -> ErrorPMF:
    """Exact error PMF ``approx - exact`` for uniform random operands.

    Works for :class:`~repro.adders.GeArConfig` (and the ACA/ETAII/GDA
    variants, which are GeAr configs) and
    :class:`~repro.adders.HeteroGeArConfig`.

    Example:
        >>> from repro.adders import HeteroGeArConfig
        >>> pmf = analytic_error_pmf(HeteroGeArConfig(((1, 0), (1, 0))))
        >>> dict(pmf.items())
        {-2: 0.25, 0: 0.75}
    """
    segments = _segments(config)
    starts = _starts(segments)
    max_run = max(p for _, p in segments)
    last = len(segments) - 1

    dist: Dict[_State, Dict[int, float]] = {(0, 0, False): {0: 1.0}}
    for i, (r, p) in enumerate(segments):
        t = starts[i]
        # --- boundary t_i: resolve a surviving wrap from segment i-1,
        # then check segment i's own carry-miss event.
        boundary: Dict[_State, Dict[int, float]] = {}
        for (carry, run, pending), errors in dist.items():
            offset = (1 << t) - (1 << starts[i - 1]) if pending else 0
            if carry == 1 and run >= p:
                if i == last:
                    # Final segment owns the carry-out bit: no wrap.
                    offset -= 1 << t
                    _accumulate(
                        boundary, (carry, run, False), errors, 1.0, offset
                    )
                else:
                    _accumulate(
                        boundary, (carry, run, True), errors, 1.0, offset
                    )
            else:
                _accumulate(
                    boundary, (carry, run, False), errors, 1.0, offset
                )
        dist = boundary
        # --- positions t_i .. t_i + r_i - 1
        for _ in range(r):
            step: Dict[_State, Dict[int, float]] = {}
            for (carry, run, pending), errors in dist.items():
                # A non-propagate position settles any pending wrap into
                # a plain missed carry at the segment base.
                resolved = -(1 << t) if pending else 0
                _accumulate(step, (1, 0, False), errors, P_GENERATE, resolved)
                _accumulate(step, (0, 0, False), errors, P_KILL, resolved)
                _accumulate(
                    step,
                    (carry, min(run + 1, max_run), pending),
                    errors,
                    P_PROPAGATE,
                )
            dist = step

    merged: Dict[int, float] = {}
    for (carry, run, pending), errors in dist.items():
        assert not pending, "pending wrap cannot outlive the last segment"
        for value, prob in errors.items():
            merged[value] = merged.get(value, 0.0) + prob
    return ErrorPMF(merged)


def _walk(
    segments: Tuple[Tuple[int, int], ...]
) -> Tuple[List[float], float]:
    """The ``(carry, run)`` walk behind every block-adder rate and mean.

    Walks positions ``0..N-1`` with the true carry and the propagate-run
    length (capped at ``max(p_i)``).  Each state carries two masses: all
    of it, and the part in which no lower segment has missed yet.  At
    segment ``i``'s base the states with ``carry == 1`` and
    ``run >= p_i`` miss: their whole mass is the marginal
    ``P[segment i misses]``, and their not-yet-missed mass is absorbed
    into ``P[some segment misses]``, the error rate.

    Returns ``(marginals, error_rate)``, one marginal per segment.
    """
    max_run = max(p for _, p in segments)
    # (carry, run) -> [mass, mass with no miss yet]
    dist: Dict[Tuple[int, int], List[float]] = {(0, 0): [1.0, 1.0]}
    marginals: List[float] = []
    error_rate = 0.0
    for r, p in segments:
        fired = 0.0
        for (carry, run), masses in dist.items():
            if carry == 1 and run >= p:
                fired += masses[0]
                error_rate += masses[1]
                masses[1] = 0.0
        marginals.append(fired)
        for _ in range(r):
            step: Dict[Tuple[int, int], List[float]] = {}
            for (carry, run), (mass, clean) in dist.items():
                for key, weight in (
                    ((1, 0), P_GENERATE),
                    ((0, 0), P_KILL),
                    ((carry, min(run + 1, max_run)), P_PROPAGATE),
                ):
                    into = step.setdefault(key, [0.0, 0.0])
                    into[0] += mass * weight
                    into[1] += clean * weight
            dist = step
    return marginals, error_rate


def analytic_error_rate(config) -> float:
    """Exact ``P[approx != exact]`` for uniform random operands.

    Every missed carry errs: no later miss can cancel it, because the
    lowest missing segment fixes the total modulo ``2**t_{m+1}``.  So
    the rate is the mass :func:`_walk` absorbs at the first miss, and no
    error distribution is built.
    """
    return _walk(_segments(config))[1]


@dataclass(frozen=True)
class BlockErrorEvent:
    """Marginal carry-miss statistics of one sub-adder segment.

    Attributes:
        index: Segment position (0 = least significant).
        start: Result-bit base ``t_i`` of the segment.
        r: Result bits contributed by the segment.
        p: Carry-prediction depth of the segment.
        probability: Marginal probability that the segment misses its
            carry (true carry into ``t_i`` is 1 and the ``p`` bits below
            all propagate) under uniform operands.
        magnitude: First-order error weight ``2**t_i`` of a miss.
    """

    index: int
    start: int
    r: int
    p: int
    probability: float
    magnitude: int


def block_error_events(config) -> List[BlockErrorEvent]:
    """Per-segment marginal carry-miss probabilities.

    Read off the same ``(carry, run)`` walk as
    :func:`analytic_error_rate`, at each segment's base boundary.  The
    marginals are exact but *not* independent -- convolving them does
    not give the joint PMF; use :func:`analytic_error_pmf` for that.
    """
    segments = _segments(config)
    marginals, _ = _walk(segments)
    return [
        BlockErrorEvent(
            index=i, start=t, r=r, p=p, probability=fired, magnitude=1 << t
        )
        for i, ((r, p), t, fired) in enumerate(
            zip(segments, _starts(segments), marginals)
        )
    ]


def analytic_summary(config) -> Dict[str, float]:
    """Headline analytic statistics as one plain dict.

    Keys: ``error_rate``, ``accuracy_percent``, ``mean``, ``med`` (mean
    error distance), ``nmed`` (MED over the maximum exact output
    ``2**(N+1) - 2``), ``max_abs`` and ``support_size`` -- the same
    quantities campaigns report from sampled data, but exact.
    """
    segments = _segments(config)
    n = sum(r for r, _ in segments)
    pmf = analytic_error_pmf(config)
    return {
        "error_rate": pmf.error_rate,
        "accuracy_percent": 100.0 * (1.0 - pmf.error_rate),
        "mean": pmf.mean,
        "med": pmf.mean_abs,
        "nmed": pmf.mean_abs / float((1 << (n + 1)) - 2),
        "max_abs": float(pmf.max_abs),
        "support_size": float(len(pmf.support)),
    }


def config_from_params(params: Dict) -> "object":
    """Block-adder config from JSON-ish task params, or ``None``.

    Accepts the parameter spellings the campaign kinds use --
    ``{"segments": [[r, p], ...]}``, ``{"segments": "r:p,r:p,..."}``,
    or homogeneous ``{"n": ..., "r": ..., "p": ...}`` -- and returns a
    :class:`~repro.adders.HeteroGeArConfig`.  Returns ``None`` when the
    params do not describe a block adder at all (so callers can skip
    prediction); raises ``ValueError`` when they *try* to but are
    invalid (so callers can reject the request).
    """
    from ..adders.hetero import HeteroGeArConfig
    from ..adders.ripple import MAX_WIDTH

    if "segments" in params:
        spec = params["segments"]
        if isinstance(spec, str):
            return HeteroGeArConfig.from_string(spec)
        return HeteroGeArConfig(tuple((int(r), int(p)) for r, p in spec))
    if all(field in params for field in ("n", "r", "p")):
        n = int(params["n"])
        # The embedding builds one segment per block, so a huge n from a
        # request would cost time and memory before any check ran.
        if n > MAX_WIDTH:
            raise ValueError(f"width must be <= {MAX_WIDTH}, got n={n}")
        return HeteroGeArConfig.from_gear_params(
            n, int(params["r"]), int(params["p"])
        )
    return None


def predict_error_statistics(params: Dict) -> Dict[str, float]:
    """Millisecond QoS prediction for a block-adder job's params.

    The service's admission controller calls this with a request's raw
    ``params`` to decide -- *before anything executes* -- whether the
    named approximate configuration meets a declared error budget.  The
    statistics are exact, not estimates, so an admission decision is a
    guarantee (the property suite checks it against exhaustive
    enumeration).

    Returns ``error_rate``, ``accuracy_percent`` and ``mean`` from the
    ``(carry, run)`` walk, ``med`` and ``nmed`` (see
    :func:`analytic_summary`), plus ``n`` (operand width), ``k``
    (segment count) and ``exact`` (whether the config degenerates to a
    plain adder).  MED is ``-mean`` when the configuration never
    overestimates; otherwise it comes from the full PMF, and is left out
    (with ``nmed``) past :data:`MAX_PMF_SEGMENTS` segments.  Raises
    ``ValueError`` when the params do not describe a block adder, or one
    wider than :data:`MAX_PREDICT_WIDTH`.
    """
    config = config_from_params(params)
    if config is None:
        raise ValueError(
            f"params do not describe a block adder: {sorted(params)}"
        )
    if config.n > MAX_PREDICT_WIDTH:
        raise ValueError(
            f"prediction is exact only for widths <= {MAX_PREDICT_WIDTH}, "
            f"got n={config.n}"
        )
    marginals, error_rate = _walk(config.segments)
    # Only the final segment's miss survives in expectation (module
    # docstring).  0.0 - x rather than -x: an exact configuration's mean
    # is 0.0, as the PMF reports it, not -0.0.
    mean = 0.0 - (1 << config.segment_starts()[-1]) * marginals[-1]
    stats = {
        "error_rate": error_rate,
        "accuracy_percent": 100.0 * (1.0 - error_rate),
        "mean": mean,
    }
    med = None
    if config.never_overestimates:
        med = abs(mean)  # every error is <= 0, so MED == -mean
    elif config.k <= MAX_PMF_SEGMENTS:
        med = analytic_error_pmf(config).mean_abs
    if med is not None:
        stats["med"] = med
        stats["nmed"] = med / float((1 << (config.n + 1)) - 2)
    stats["n"] = float(config.n)
    stats["k"] = float(config.k)
    stats["exact"] = bool(config.is_exact)
    return stats


def exhaustive_error_pmf(config) -> ErrorPMF:
    """Ground-truth error PMF by enumerating every operand pair.

    The behavioural counterpart of :func:`analytic_error_pmf`, used by
    tests and the verify layer to cross-validate the engine.  Guarded to
    ``2n <= 30`` (about a billion pairs beyond that).
    """
    segments = _segments(config)
    n = sum(r for r, _ in segments)
    if 2 * n > 30:
        raise ValueError(
            f"exhaustive enumeration infeasible for n={n} (2^{2 * n} pairs); "
            "use analytic_error_pmf instead"
        )
    from ..adders.hetero import HeteroGeArAdder, HeteroGeArConfig

    adder = HeteroGeArAdder(HeteroGeArConfig(segments))
    values = np.arange(1 << n, dtype=np.int64)
    a, b = np.meshgrid(values, values, sparse=True)
    approx = adder.add(a, b)
    exact = a + b
    diff = (approx - exact).ravel()
    uniq, counts = np.unique(diff, return_counts=True)
    total = diff.size
    return ErrorPMF({int(v): c / total for v, c in zip(uniq, counts)})

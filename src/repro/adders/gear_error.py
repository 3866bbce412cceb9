"""Error-probability models for GeAr adders (paper Sec. 4.2).

Three complementary models are provided, from the paper's analytic
formula to ground truth:

1. :func:`paper_error_probability` -- the paper's inclusion-exclusion
   model over ``R x (k-1)`` error-generating events ``Z_i``.  Event
   ``Z_m`` of sub-adder ``s`` is *"a carry is generated at the m-th bit
   below sub-adder s's window and propagates through the remaining
   ``m - 1`` bits and all ``P`` prediction bits"*.  With uniform inputs
   each bit pair generates with probability 1/4 and propagates with
   probability 1/2, so ``rho[Z_m] = (1/4) * (1/2)**(m - 1 + P)``.
   Joint probabilities follow from per-bit-position independence
   (conflicting requirements zero the term), and the union is expanded
   by inclusion-exclusion exactly as printed in the paper.

2. The exact rate, from the block-adder error engine
   (:func:`repro.errors.analytic.analytic_error_rate`): one
   ``(carry, run)`` walk over the i.i.d. generate/propagate/kill
   description of the operands, absorbing mass at the first sub-adder
   whose true carry-in is 1 while all ``P`` prediction bits propagate.
   It serves homogeneous GeAr and every heterogeneous layout alike in
   ``O(N * P)`` states with no approximation.

3. :func:`monte_carlo_error_rate` / :func:`exhaustive_error_rate` --
   simulation-based ground truth against the behavioural model.

A result of this reproduction (see ``bench_error_model_ablation``): the
paper's event family is *complete* -- every erroneous operand pair
triggers at least one ``Z`` event (the generate feeding a missed carry
always falls inside the fresh R-bit window of some sub-adder, with the
required propagate run), and every ``Z`` event produces an error -- so
the inclusion-exclusion model is exact, matching the walk and
exhaustive enumeration to double precision.  Its cost, however, is
exponential in ``R x (k-1)`` terms, whereas the walk computes the same
number in ``O(N * P)`` states; truncating the expansion at odd/even
order gives the usual Bonferroni upper/lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .gear import GeArAdder, GeArConfig

__all__ = [
    "ErrorEvent",
    "error_events",
    "paper_error_probability",
    "monte_carlo_error_rate",
    "exhaustive_error_rate",
    "accuracy_percent",
]

#: Per-bit-position probabilities under i.i.d. uniform operand bits.
P_GENERATE = 0.25  # a = b = 1
P_PROPAGATE = 0.5  # a != b


@dataclass(frozen=True)
class ErrorEvent:
    """One error-generating event ``Z`` of the paper's model.

    Attributes:
        sub_adder: Index of the affected sub-adder (``1 .. k-1``).
        generate_bit: Bit position that must generate a carry.
        propagate_bits: Bit positions that must all propagate (the bits
            between the generate position and the window, plus the P
            prediction bits).
    """

    sub_adder: int
    generate_bit: int
    propagate_bits: Tuple[int, ...]

    @property
    def probability(self) -> float:
        return P_GENERATE * P_PROPAGATE ** len(self.propagate_bits)


def error_events(config: GeArConfig) -> List[ErrorEvent]:
    """Enumerate the ``R x (k-1)`` error-generating events of the model."""
    events: List[ErrorEvent] = []
    for s in range(1, config.k):
        window_start = s * config.r
        for m in range(1, config.r + 1):
            gen = window_start - m
            props = tuple(range(gen + 1, window_start + config.p))
            events.append(ErrorEvent(s, gen, props))
    return events


def _joint_probability(events: Sequence[ErrorEvent]) -> float:
    """P[intersection] under per-bit independence; 0 on conflicts."""
    requirement: Dict[int, str] = {}
    for event in events:
        for bit in event.propagate_bits:
            if requirement.get(bit, "p") != "p":
                return 0.0
            requirement[bit] = "p"
        if requirement.get(event.generate_bit, "g") != "g":
            return 0.0
        requirement[event.generate_bit] = "g"
    prob = 1.0
    for kind in requirement.values():
        prob *= P_GENERATE if kind == "g" else P_PROPAGATE
    return prob


def paper_error_probability(
    config: GeArConfig, max_order: int | None = None
) -> float:
    """The paper's inclusion-exclusion error probability.

    Args:
        config: GeAr architecture.
        max_order: Optional truncation of the inclusion-exclusion depth
            (``None`` expands all ``2**(R*(k-1))`` terms; required events
            beyond ~20 would be intractable, so a cap is enforced).

    Returns:
        ``rho[Error]`` -- the modelled probability that the approximate
        sum differs from the exact sum for uniform random operands.
    """
    events = error_events(config)
    n_events = len(events)
    if max_order is None:
        if n_events > 22:
            raise ValueError(
                f"{n_events} events: full inclusion-exclusion intractable; "
                "pass max_order to truncate"
            )
        max_order = n_events
    total = 0.0
    for order in range(1, min(max_order, n_events) + 1):
        sign = 1.0 if order % 2 == 1 else -1.0
        layer = 0.0
        for subset in combinations(events, order):
            layer += _joint_probability(subset)
        total += sign * layer
    return total


def monte_carlo_error_rate(
    config: GeArConfig, n_samples: int = 200_000, seed: int = 0
) -> float:
    """Simulated error rate of the behavioural GeAr model.

    Fully determined by ``(config, n_samples, seed)`` -- rerunning with
    the same arguments reproduces the estimate bit for bit.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    hi = 1 << config.n
    a = rng.integers(0, hi, size=n_samples, dtype=np.int64)
    b = rng.integers(0, hi, size=n_samples, dtype=np.int64)
    adder = GeArAdder(config)
    return float(np.mean(adder.add(a, b) != (a + b)))


def exhaustive_error_rate(
    config: GeArConfig, chunk_bits: int = 22
) -> float:
    """Exact error rate by enumerating all ``4**N`` operand pairs.

    Feasible up to roughly N = 13; pairs are processed in chunks to
    bound memory.

    Args:
        config: GeAr architecture (``4**N`` must be enumerable).
        chunk_bits: Log2 of the chunk size used for enumeration.
    """
    if 2 * config.n > 30:
        raise ValueError(
            f"4**{config.n} pairs is too many to enumerate; "
            "use monte_carlo_error_rate or analytic_error_rate"
        )
    adder = GeArAdder(config)
    total_pairs = 1 << (2 * config.n)
    chunk = 1 << min(chunk_bits, 2 * config.n)
    mask = (1 << config.n) - 1
    errors = 0
    for base in range(0, total_pairs, chunk):
        index = np.arange(base, min(base + chunk, total_pairs), dtype=np.int64)
        a = index & mask
        b = index >> config.n
        errors += int(np.count_nonzero(adder.add(a, b) != (a + b)))
    return errors / total_pairs


def accuracy_percent(config: GeArConfig, model: str = "exact") -> float:
    """Percentage accuracy ``100 * (1 - P[error])`` (paper Table IV).

    Args:
        config: GeAr architecture.
        model: ``"exact"`` (the analytic engine's walk), ``"paper"``
            (inclusion-exclusion) or ``"monte_carlo"``.
    """
    from ..errors.analytic import analytic_error_rate

    if model == "exact":
        p_err = analytic_error_rate(config)
    elif model == "paper":
        p_err = paper_error_probability(config)
    elif model == "monte_carlo":
        p_err = monte_carlo_error_rate(config)
    else:
        raise ValueError(f"unknown model {model!r}")
    return 100.0 * (1.0 - p_err)

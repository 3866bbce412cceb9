"""Property-based tests (hypothesis) for the GeAr error models.

Complements ``test_adder_properties.TestGeArProperties`` (behavioural
laws) with properties of the *statistical* layer: probability ranges,
accuracy-percentage ranges, error-magnitude caps, and the sub-adder
window structure of the error values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders.gear import GeArAdder
from repro.adders.gear_error import (
    accuracy_percent,
    paper_error_probability,
)
from repro.errors.analytic import analytic_error_rate

from .test_adder_properties import gear_configs


class TestProbabilityRanges:
    @settings(max_examples=50, deadline=None)
    @given(config=gear_configs(max_n=20))
    def test_exact_probability_in_unit_interval(self, config):
        p = analytic_error_rate(config)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(config=gear_configs(max_n=16))
    def test_paper_probability_in_unit_interval(self, config):
        if config.r * (config.k - 1) > 18:
            return  # inclusion-exclusion blows up; model gated elsewhere
        p = paper_error_probability(config)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        config=gear_configs(max_n=20),
        model=st.sampled_from(["exact", "paper"]),
    )
    def test_accuracy_percent_in_0_100(self, config, model):
        if model == "paper" and config.r * (config.k - 1) > 18:
            return
        acc = accuracy_percent(config, model=model)
        assert 0.0 <= acc <= 100.0

    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(max_n=14))
    def test_monte_carlo_accuracy_in_0_100(self, config):
        acc = accuracy_percent(config, model="monte_carlo")
        assert 0.0 <= acc <= 100.0


class TestErrorStructure:
    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(max_n=16), data=st.data())
    def test_error_magnitude_capped_by_missed_carries(self, config, data):
        """Sub-adder ``s`` keeps its window bits from position
        ``s*R + P`` up, so a missed carry costs exactly ``2**(s*R + P)``
        and the total deficit is bounded by the sum of those weights."""
        adder = GeArAdder(config)
        hi = (1 << config.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=hi))
        b = data.draw(st.integers(min_value=0, max_value=hi))
        deficit = (a + b) - int(adder.add(a, b))
        cap = sum(1 << (s * config.r + config.p)
                  for s in range(1, config.k))
        assert 0 <= deficit <= min(cap, a + b)

    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(max_n=16), data=st.data())
    def test_error_is_sum_of_window_boundary_weights(self, config, data):
        """The deficit decomposes over the independent sub-adders: its
        set bits can only sit at the kept-window boundaries
        ``s*R + P``."""
        adder = GeArAdder(config)
        hi = (1 << config.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=hi))
        b = data.draw(st.integers(min_value=0, max_value=hi))
        deficit = (a + b) - int(adder.add(a, b))
        allowed = sum(1 << (s * config.r + config.p)
                      for s in range(1, config.k))
        assert deficit & ~allowed == 0

    @settings(max_examples=30, deadline=None)
    @given(config=gear_configs(max_n=12))
    def test_more_prediction_bits_never_hurt(self, config):
        """Growing P (same N, R) only extends the speculative windows,
        so the exact error probability is non-increasing in P."""
        p_here = analytic_error_rate(config)
        wider = config.p + config.r  # keeps (N - R - P) % R == 0
        if config.r + wider > config.n:
            return
        from repro.adders.gear import GeArConfig

        p_wider = analytic_error_rate(
            GeArConfig(config.n, config.r, wider)
        )
        assert p_wider <= p_here + 1e-12


def _scalar_correction(config, x, y, cap):
    """Independent scalar enumeration of the Fig. 3 correction loop.

    Re-implements round-start (Jacobi-style) detection directly from
    the paper's description: every round, all boundaries observe the
    carry-outs of the *previous* round simultaneously, and an injection
    is (re)applied where the prediction bits propagate.
    """
    n, r, p, l, k = config.n, config.r, config.p, config.l, config.k
    x &= (1 << n) - 1
    y &= (1 << n) - 1
    mask_l = (1 << l) - 1
    sums = [
        ((x >> (i * r)) & mask_l) + ((y >> (i * r)) & mask_l)
        for i in range(k)
    ]
    propagates = [
        (((x >> (i * r)) ^ (y >> (i * r))) & ((1 << p) - 1)) == (1 << p) - 1
        if p else True
        for i in range(1, k)
    ]
    injected = [0] * k
    iterations = 0
    for _ in range(cap):
        couts = [(sums[i] >> l) & 1 for i in range(k - 1)]
        changed = False
        for i in range(1, k):
            want = 1 if (couts[i - 1] and propagates[i - 1]) else 0
            if want != injected[i]:
                sums[i] += want - injected[i]
                injected[i] = want
                changed = True
        if not changed:
            break
        iterations += 1
    result = sums[0] & mask_l
    for i in range(1, k):
        result |= ((sums[i] >> p) & ((1 << r) - 1)) << (i * r + p)
    result |= ((sums[-1] >> l) & 1) << n
    return result, iterations


class TestCorrectionEnumeration:
    """The vectorized correction loop against a scalar enumeration."""

    @settings(max_examples=80, deadline=None)
    @given(
        config=gear_configs(max_n=10),
        a=st.integers(min_value=0, max_value=(1 << 10) - 1),
        b=st.integers(min_value=0, max_value=(1 << 10) - 1),
        cap=st.integers(min_value=0, max_value=8),
    )
    def test_sums_and_iterations_match_scalar(self, config, a, b, cap):
        adder = GeArAdder(config)
        result, iters = adder.add_with_correction(a, b, max_iterations=cap)
        want_result, want_iters = _scalar_correction(config, a, b, cap)
        assert int(result) == want_result
        assert int(iters) == want_iters

    @settings(max_examples=80, deadline=None)
    @given(
        config=gear_configs(max_n=12),
        a=st.integers(min_value=0, max_value=(1 << 12) - 1),
        b=st.integers(min_value=0, max_value=(1 << 12) - 1),
    )
    def test_uncapped_fixpoint_is_exact_within_k_minus_1(self, config, a, b):
        adder = GeArAdder(config)
        mask = (1 << config.n) - 1
        result, iters = adder.add_with_correction(a & mask, b & mask)
        assert int(result) == (a & mask) + (b & mask)
        assert int(iters) <= config.k - 1

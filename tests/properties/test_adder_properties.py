"""Property-based tests (hypothesis) for the adder models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders.fulladder import FULL_ADDER_NAMES, FULL_ADDERS
from repro.adders.gear import GeArAdder, GeArConfig
from repro.adders.ripple import ApproximateRippleAdder


def gear_configs(max_n: int = 20):
    """Strategy generating valid approximate GeAr configurations."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=4, max_value=max_n))
        r = draw(st.integers(min_value=1, max_value=n - 1))
        p = draw(st.integers(min_value=1, max_value=n - r))
        p += (n - r - p) % r  # snap P upward so R divides N - L
        if r + p > n:
            p -= r
        if p < 1 or r + p > n or (n - r - p) % r:
            return None
        return GeArConfig(n, r, p)

    return build().filter(lambda c: c is not None and c.k >= 2 and c.p >= 1)


class TestRippleProperties:
    @given(
        a=st.integers(min_value=0, max_value=(1 << 16) - 1),
        b=st.integers(min_value=0, max_value=(1 << 16) - 1),
        cin=st.integers(min_value=0, max_value=1),
    )
    def test_accurate_ripple_is_integer_addition(self, a, b, cin):
        adder = ApproximateRippleAdder(16)
        assert int(adder.add(a, b, cin)) == a + b + cin

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        fa=st.sampled_from([n for n in FULL_ADDER_NAMES if n != "AccuFA"]),
        k=st.integers(min_value=0, max_value=8),
    )
    def test_approx_error_bounded_by_lsb_window(self, a, b, fa, k):
        """Errors never escape past one carry position above the
        approximated LSB window."""
        adder = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=k)
        error = abs(int(adder.add(a, b)) - (a + b))
        assert error < (1 << (k + 1))

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        fa=st.sampled_from(list(FULL_ADDER_NAMES)),
        k=st.integers(min_value=0, max_value=8),
    )
    def test_msbs_above_window_preserved(self, a, b, fa, k):
        """Bits strictly above position k+1 match exact addition."""
        adder = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=k)
        approx = int(adder.add(a, b))
        exact = a + b
        assert abs(approx - exact) >> (k + 1) == 0

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        fa=st.sampled_from(list(FULL_ADDER_NAMES)),
        k=st.integers(min_value=0, max_value=8),
    )
    def test_sub_is_add_of_complement(self, a, b, fa, k):
        adder = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=k)
        raw = int(adder.add(a, (~b) & 0xFF, cin=1))
        assert int(adder.sub(a, b)) == raw - 256


class TestRippleSumBounds:
    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        fa=st.sampled_from(list(FULL_ADDER_NAMES)),
        k=st.integers(min_value=0, max_value=8),
        cin=st.integers(min_value=0, max_value=1),
    )
    def test_result_fits_width_plus_one_bits(self, a, b, fa, k, cin):
        """Whatever the cells garble, the datapath is 9 wires wide."""
        adder = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=k)
        assert 0 <= int(adder.add(a, b, cin)) < (1 << 9)

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        fa=st.sampled_from([n for n in FULL_ADDER_NAMES if n != "AccuFA"]),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_error_cap_matches_oracle_registry(self, a, b, fa, k):
        """The inclusive cap declared by the verification oracles,
        ``|error| <= 2**(k+1) - 1``, holds for every cell and depth."""
        adder = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=k)
        error = abs(int(adder.add(a, b)) - (a + b))
        assert error <= (1 << (k + 1)) - 1

    @settings(deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 12) - 1),
        b=st.integers(min_value=0, max_value=(1 << 12) - 1),
        fa=st.sampled_from(["ApxFA2"]),
        k=st.integers(min_value=0, max_value=12),
    )
    def test_symmetric_cells_commute(self, a, b, fa, k):
        """AccuFA and ApxFA2 have A/B-symmetric tables, so any adder
        built purely from them is commutative (the other cells are not,
        which tests/verify's negative controls pin down)."""
        adder = ApproximateRippleAdder(12, approx_fa=fa, num_approx_lsbs=k)
        assert int(adder.add(a, b)) == int(adder.add(b, a))


class TestFullAdderProperties:
    @given(
        name=st.sampled_from(list(FULL_ADDER_NAMES)),
        a=st.integers(0, 1),
        b=st.integers(0, 1),
        c=st.integers(0, 1),
    )
    def test_netlist_agrees_with_truth_table(self, name, a, b, c):
        fa = FULL_ADDERS[name]
        nl = fa.netlist()
        out = nl.evaluate(
            {"a": np.array([a]), "b": np.array([b]), "cin": np.array([c])}
        )
        s, co = fa.evaluate(a, b, c)
        assert int(out["sum"][0]) == int(s)
        assert int(out["cout"][0]) == int(co)


class TestGeArProperties:
    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(), data=st.data())
    def test_correction_recovers_exact_sum(self, config, data):
        adder = GeArAdder(config)
        hi = (1 << config.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=hi))
        b = data.draw(st.integers(min_value=0, max_value=hi))
        result, _ = adder.add_with_correction(a, b)
        assert int(result) == a + b

    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(), data=st.data())
    def test_approx_sum_never_exceeds_exact(self, config, data):
        """GeAr only loses carries: approx <= exact, and the deficit is a
        sum of distinct powers of two at sub-adder result boundaries."""
        adder = GeArAdder(config)
        hi = (1 << config.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=hi))
        b = data.draw(st.integers(min_value=0, max_value=hi))
        approx = int(adder.add(a, b))
        assert approx <= a + b

    @settings(max_examples=40, deadline=None)
    @given(config=gear_configs(), data=st.data())
    def test_first_window_bits_always_exact(self, config, data):
        adder = GeArAdder(config)
        hi = (1 << config.n) - 1
        a = data.draw(st.integers(min_value=0, max_value=hi))
        b = data.draw(st.integers(min_value=0, max_value=hi))
        mask = (1 << config.l) - 1
        assert int(adder.add(a, b)) & mask == (a + b) & mask

    @settings(max_examples=30, deadline=None)
    @given(config=gear_configs(max_n=14))
    def test_error_probability_models_ordered(self, config):
        """Paper's IE model never exceeds the exact probability."""
        from repro.adders.gear_error import paper_error_probability
        from repro.errors.analytic import analytic_error_rate

        if config.r * (config.k - 1) > 18:
            return  # IE intractable; skip silently
        paper = paper_error_probability(config)
        exact = analytic_error_rate(config)
        assert paper <= exact + 1e-9


class TestFastPathProperties:
    """Hypothesis spot checks: fast path == legacy loop at widths 16/32."""

    @settings(max_examples=60, deadline=None)
    @given(
        fa=st.sampled_from(list(FULL_ADDER_NAMES)),
        k=st.integers(min_value=0, max_value=16),
        cin=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_width16_batches_agree(self, fa, k, cin, seed):
        fast = ApproximateRippleAdder(16, approx_fa=fa, num_approx_lsbs=k)
        loop = ApproximateRippleAdder(
            16, approx_fa=fa, num_approx_lsbs=k, eval_mode="loop"
        )
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 16, 256)
        b = rng.integers(0, 1 << 16, 256)
        assert np.array_equal(fast.add(a, b, cin), loop.add(a, b, cin))

    @settings(max_examples=25, deadline=None)
    @given(
        fa=st.sampled_from(["ApxFA1", "ApxFA3", "ApxFA5"]),
        k=st.integers(min_value=0, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_width32_batches_agree(self, fa, k, seed):
        fast = ApproximateRippleAdder(32, approx_fa=fa, num_approx_lsbs=k)
        loop = ApproximateRippleAdder(
            32, approx_fa=fa, num_approx_lsbs=k, eval_mode="loop"
        )
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << 32, 128)
        b = rng.integers(0, 1 << 32, 128)
        assert np.array_equal(fast.add(a, b), loop.add(a, b))
        assert np.array_equal(fast.sub(a, b), loop.sub(a, b))

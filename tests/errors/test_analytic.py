"""Tests for the analytic PMF-convolution error engine."""

import numpy as np
import pytest

from repro.adders import (
    GeArConfig,
    HeteroGeArConfig,
    aca_i,
    aca_ii,
    etaii,
    exhaustive_error_rate,
    gda,
)
from repro.errors import (
    ErrorPMF,
    analytic_error_pmf,
    analytic_error_rate,
    analytic_summary,
    block_error_events,
    exhaustive_error_pmf,
)
from repro.errors.analytic import predict_error_statistics

# Table III/IV operating points (plus the verify-registry configs).
TABLE_CONFIGS = [
    (8, 2, 2),
    (11, 1, 5),
    (11, 3, 2),
    (12, 4, 4),
    (16, 1, 7),
    (16, 2, 2),
    (16, 2, 6),
    (16, 4, 4),
    (16, 6, 4),
]


class TestAgainstExactDP:
    """The ``(carry, run)`` walk's rate against the full PMF's."""

    @pytest.mark.parametrize("n,r,p", TABLE_CONFIGS)
    def test_rate_matches_dp_on_table_configs(self, n, r, p):
        cfg = GeArConfig(n, r, p)
        assert analytic_error_rate(cfg) == analytic_error_pmf(cfg).error_rate

    def test_rate_matches_dp_on_all_valid_11(self):
        for cfg in GeArConfig.all_valid(11, min_p=0):
            assert (
                analytic_error_rate(cfg) == analytic_error_pmf(cfg).error_rate
            ), cfg.name


def _pinned_configs():
    """Every layout the walk is pinned on, with its request params."""
    for cfg in (
        list(HeteroGeArConfig.all_valid(6, max_segments=4))
        + list(HeteroGeArConfig.all_valid(8, max_segments=3))
    ):
        yield cfg, {"segments": [list(seg) for seg in cfg.segments]}
    for n in range(2, 13):
        for cfg in GeArConfig.all_valid(n, min_p=0):
            yield cfg, {"n": cfg.n, "r": cfg.r, "p": cfg.p}


class TestOneWalk:
    """The walk answers rates and means bit for bit like the full PMF."""

    def test_rate_mean_and_med_equal_the_pmf(self):
        seen = 0
        for cfg, params in _pinned_configs():
            pmf = analytic_error_pmf(cfg)
            predicted = predict_error_statistics(params)
            assert analytic_error_rate(cfg) == pmf.error_rate, cfg.name
            assert predicted["error_rate"] == pmf.error_rate, cfg.name
            # .hex() also tells 0.0 from -0.0 (exact layouts).
            assert predicted["mean"].hex() == pmf.mean.hex(), cfg.name
            assert predicted["med"].hex() == pmf.mean_abs.hex(), cfg.name
            seen += 1
        assert seen == 755 + 546 + sum(
            len(GeArConfig.all_valid(n, min_p=0)) for n in range(2, 13)
        )


class TestAgainstExhaustive:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (8, 2, 4), (8, 3, 2),
                                       (8, 1, 3), (8, 6, 2)])
    def test_rate_matches_exhaustive(self, n, r, p):
        cfg = GeArConfig(n, r, p)
        assert analytic_error_rate(cfg) == pytest.approx(
            exhaustive_error_rate(cfg), abs=1e-9
        )

    def test_full_pmf_matches_exhaustive_homogeneous(self):
        for cfg in GeArConfig.all_valid(8, min_p=0):
            hetero = HeteroGeArConfig.from_gear(cfg)
            tv = analytic_error_pmf(cfg).total_variation(
                exhaustive_error_pmf(hetero)
            )
            assert tv < 1e-9, cfg.name

    def test_full_pmf_matches_exhaustive_heterogeneous(self):
        for cfg in HeteroGeArConfig.all_valid(6, max_segments=3, max_p=4):
            tv = analytic_error_pmf(cfg).total_variation(
                exhaustive_error_pmf(cfg)
            )
            assert tv < 1e-9, cfg.name

    def test_overestimating_config_matches_exhaustive(self):
        # p_2 > p_1 + r_1 lets a wrap survive uncompensated, so this
        # config genuinely overestimates -- the engine must model it.
        cfg = HeteroGeArConfig(((2, 0), (1, 1), (2, 3)))
        assert not cfg.never_overestimates
        pmf = analytic_error_pmf(cfg)
        assert max(pmf.support) > 0
        assert pmf.total_variation(exhaustive_error_pmf(cfg)) < 1e-9


class TestVariants:
    """ACA/ETAII/GDA are GeAr mappings; the engine takes them directly."""

    @pytest.mark.parametrize("cfg", [
        aca_i(8, 4), aca_ii(8, 4), etaii(8, 2), gda(8, 2, 2),
    ])
    def test_variant_rates_match_exhaustive(self, cfg):
        assert analytic_error_rate(cfg) == pytest.approx(
            exhaustive_error_rate(cfg), abs=1e-9
        )


class TestStructuralProperties:
    def test_exact_config_is_delta(self):
        assert analytic_error_pmf(HeteroGeArConfig(((8, 0),))) == ErrorPMF.delta(0)

    def test_monotone_configs_never_overestimate(self):
        for cfg in GeArConfig.all_valid(10, min_p=0):
            pmf = analytic_error_pmf(cfg)
            assert max(pmf.support) <= 0, cfg.name

    def test_simple_truncated_carry_pmf(self):
        # Two 1-bit blocks, no prediction: miss iff bit 0 generates.
        pmf = analytic_error_pmf(HeteroGeArConfig(((1, 0), (1, 0))))
        assert dict(pmf.items()) == {-2: 0.25, 0: 0.75}

    def test_unsupported_config_rejected(self):
        with pytest.raises(TypeError, match="unsupported config"):
            analytic_error_pmf(object())

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError, match="infeasible"):
            exhaustive_error_pmf(GeArConfig(16, 2, 2))


class TestBlockEvents:
    def test_marginals_sum_bounds_error_rate(self):
        # Union bound: P[any miss] <= sum of marginals.
        cfg = GeArConfig(8, 2, 2)
        events = block_error_events(cfg)
        assert analytic_error_rate(cfg) <= sum(e.probability for e in events) + 1e-12

    def test_first_block_never_errs(self):
        events = block_error_events(GeArConfig(12, 4, 4))
        assert events[0].probability == 0.0

    def test_p0_block_miss_probability(self):
        # ((1,0),(1,0)): block 1 misses iff bit 0 generates (prob 1/4).
        events = block_error_events(HeteroGeArConfig(((1, 0), (1, 0))))
        assert events[1].probability == pytest.approx(0.25)
        assert events[1].magnitude == 2

    def test_marginal_matches_exhaustive_flag_rate(self, rng):
        from repro.adders import GeArAdder

        cfg = GeArConfig(8, 2, 2)
        adder = GeArAdder(cfg)
        a, b = np.meshgrid(np.arange(256), np.arange(256))
        # Exhaustive rate of "sub-adder i's true carry-in is missed".
        exact = a + b
        events = block_error_events(cfg)
        for i, (start, _) in enumerate(cfg.sub_adder_windows()):
            if i == 0:
                continue
            carry_in = ((exact >> start) ^ (a >> start) ^ (b >> start)) & 1
            mask_p = (1 << cfg.p) - 1
            prop = (((a >> start) ^ (b >> start)) & mask_p) == mask_p
            rate = np.mean((carry_in == 1) & prop)
            assert events[i].probability == pytest.approx(rate, abs=1e-12)


class TestSummary:
    def test_summary_consistent_with_pmf(self):
        cfg = GeArConfig(8, 2, 2)
        pmf = analytic_error_pmf(cfg)
        summary = analytic_summary(cfg)
        assert summary["error_rate"] == pmf.error_rate
        assert summary["accuracy_percent"] == pytest.approx(
            100.0 * (1 - pmf.error_rate)
        )
        assert summary["med"] == pmf.mean_abs
        assert summary["nmed"] == pmf.mean_abs / (2**9 - 2)
        assert summary["max_abs"] == pmf.max_abs

    def test_summary_med_matches_exhaustive(self):
        cfg = HeteroGeArConfig(((3, 0), (3, 2), (2, 2)))
        summary = analytic_summary(cfg)
        exh = exhaustive_error_pmf(cfg)
        assert summary["med"] == pytest.approx(exh.mean_abs, abs=1e-9)

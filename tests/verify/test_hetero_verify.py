"""Verification wiring for the heterogeneous adder family."""

import pytest

from repro.adders import HeteroGeArConfig
from repro.verify import (
    FAMILIES,
    get_oracle,
    hetero_statistics_checks,
    resolve_components,
    verify_component,
)
from repro.verify.oracle import hetero_pure_python


class TestRegistry:
    def test_family_registered(self):
        assert "hetero" in FAMILIES
        names = resolve_components("hetero")
        assert names
        assert all(n.startswith("hetero/") for n in names)

    def test_oracle_has_independent_paths(self):
        oracle = get_oracle("hetero/3p0-3p2-2p2")
        assert set(oracle.paths) == {"window", "pure_python"}
        assert "block0_exact" in oracle.laws

    def test_monotone_configs_get_support_law(self):
        monotone = get_oracle("hetero/3p0-3p2-2p2")
        overestimating = get_oracle("hetero/2p0-1p1-2p3")
        assert "approx_le_exact" in monotone.laws
        assert "approx_le_exact" not in overestimating.laws


class TestPurePython:
    def test_matches_vectorized_path(self, rng):
        from repro.adders import HeteroGeArAdder

        config = HeteroGeArConfig(((3, 0), (3, 2), (2, 2)))
        scalar = hetero_pure_python(config)
        vector = HeteroGeArAdder(config).add
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        assert (scalar(a, b) == vector(a, b)).all()


class TestStatistics:
    def test_checks_pass_on_fast_budget(self):
        config = HeteroGeArConfig(((3, 0), (3, 2), (2, 2)))
        checks = hetero_statistics_checks(config, budget="fast", seed=0)
        names = {c.check for c in checks}
        assert "stat:analytic_vs_exhaustive" in names
        assert "stat:analytic_pmf_vs_exhaustive" in names
        assert "stat:monte_carlo_vs_analytic" in names
        assert "stat:analytic_support_sign" in names
        assert all(c.passed for c in checks), [
            (c.check, c.detail) for c in checks if not c.passed
        ]

    def test_overestimating_config_skips_support_sign(self):
        config = HeteroGeArConfig(((2, 0), (1, 1), (2, 3)))
        checks = hetero_statistics_checks(config, budget="fast", seed=0)
        assert "stat:analytic_support_sign" not in {c.check for c in checks}
        assert all(c.passed for c in checks)


class TestConformance:
    @pytest.mark.parametrize("name", [
        "hetero/4p0-2p2-2p2",
        "hetero/2p0-1p1-2p3",
    ])
    def test_component_conforms(self, name):
        report = verify_component(name, budget="fast", seed=0)
        assert report.passed, [
            (c.check, c.detail) for c in report.checks if not c.passed
        ]

    def test_gear_reports_analytic_checks(self):
        report = verify_component("gear/N8R2P2", budget="fast", seed=0)
        names = {c.check for c in report.checks}
        assert "stat:analytic_vs_exact" in names
        assert "stat:analytic_pmf_vs_exhaustive" in names
        assert report.passed

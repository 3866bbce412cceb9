"""Tests for campaign task identity and seed derivation."""

import pytest

from repro.campaign import CODE_VERSION, CampaignTask, derive_seed, stable_hash


class TestStableHash:
    def test_deterministic(self):
        obj = {"b": 2, "a": [1, 2, {"x": True}]}
        assert stable_hash(obj) == stable_hash(obj)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestTaskKey:
    def test_key_is_hex_sha256(self):
        key = CampaignTask(kind="gear_dse_row", params={"n": 8}).key
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_key_stable_across_instances(self):
        t1 = CampaignTask("gear_dse_row", {"n": 8, "r": 2}, seed=3)
        t2 = CampaignTask("gear_dse_row", {"r": 2, "n": 8}, seed=3)
        assert t1.key == t2.key

    @pytest.mark.parametrize(
        "other",
        [
            CampaignTask("gear_dse_row", {"n": 9}, seed=3),
            CampaignTask("gear_dse_row", {"n": 8}, seed=4),
            CampaignTask("gear_adder", {"n": 8}, seed=3),
        ],
    )
    def test_key_sensitivity(self, other):
        base = CampaignTask("gear_dse_row", {"n": 8}, seed=3)
        assert base.key != other.key

    def test_key_pins_code_version(self):
        task = CampaignTask("gear_dse_row", {"n": 8})
        assert task.as_dict()["code_version"] == CODE_VERSION


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "x", 1) == derive_seed(0, "x", 1)

    def test_depends_on_base_seed(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_depends_on_key_parts(self):
        assert derive_seed(0, "x", 1) != derive_seed(0, "x", 2)

    def test_in_63_bit_range(self):
        for base in (0, 1, 2**62):
            seed = derive_seed(base, "k", 17)
            assert 0 <= seed < 2**63

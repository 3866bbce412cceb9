"""Cross-path bit-identity of the partitioned-SIMD evaluator.

Two layers of evidence that the packed engine is exactly the datapath
it claims to be:

* every oracle in the verification registry that exposes a ``partsim``
  path (the recursive multipliers) is swept against *all* of its other
  paths -- exhaustively when the input space fits, on the registry's
  structured stimuli otherwise;
* hypothesis draws random widths and checks the partition layout's
  pack/unpack round trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datapath.partsim import PartitionLayout
from repro.verify.oracle import build_registry, operand_space
from repro.verify.report import Budget


def _partsim_oracles():
    return [
        oracle for oracle in build_registry().values()
        if "partsim" in oracle.paths
    ]


class TestRegistryConformance:
    def test_every_wired_family_has_partsim_paths(self):
        families = {oracle.family for oracle in _partsim_oracles()}
        assert families == {"recmul"}

    def test_partsim_agrees_with_every_path_exhaustively(self):
        """All-pairs bit-identity on the full input space of every
        registered component small enough to sweep (4x4 and 8x8
        multipliers are exhaustive by construction)."""
        budget = Budget(
            name="partsim-exhaustive", exhaustive_bits=17, n_samples=4000,
            mc_samples=0, gear_exhaustive_bits=0,
        )
        swept = 0
        for oracle in _partsim_oracles():
            if oracle.input_gen is not None:
                continue
            operands, exhaustive = operand_space(oracle, budget, seed=7)
            if not exhaustive:
                continue
            expected = oracle.paths["partsim"](*operands)
            for name, path in oracle.paths.items():
                assert np.array_equal(path(*operands), expected), (
                    f"{oracle.name}: partsim != {name}"
                )
            swept += 1
        assert swept >= 4

    def test_partsim_agrees_on_stratified_stimuli(self):
        """Components too wide to sweep get the registry's stratified
        operand strata (corners, sparse/dense, propagate chains)."""
        budget = Budget(
            name="partsim-sampled", exhaustive_bits=0, n_samples=3000,
            mc_samples=0, gear_exhaustive_bits=0,
        )
        for oracle in _partsim_oracles():
            operands, _ = operand_space(oracle, budget, seed=11)
            expected = oracle.paths["partsim"](*operands)
            for name, path in oracle.paths.items():
                assert np.array_equal(path(*operands), expected), (
                    f"{oracle.name}: partsim != {name}"
                )


class TestLayoutRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        field_bits=st.integers(min_value=1, max_value=63),
        count=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pack_unpack_identity(self, field_bits, count, seed):
        layout = PartitionLayout(field_bits)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << field_bits, (3, count))
        words = layout.pack(values)
        assert np.array_equal(layout.unpack(words, count), values)

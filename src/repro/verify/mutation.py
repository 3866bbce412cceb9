"""Mutation smoke-testing: prove the conformance engine catches bugs.

A verification subsystem that never fires is indistinguishable from one
that works.  This module seeds known single-site faults into sandboxed
component copies -- a flipped truth-table entry, a corrupted byte in the
PR 1 segment LUT -- and asserts that differential verification flags
*every* mutant.

Each :class:`Mutant` corrupts exactly ONE evaluation path and pairs it
with a pristine sibling path, which is precisely the bug class the
engine exists to catch: one layer silently drifting from the others.
Mutant input spaces are exhaustive under the ``mutation`` budget, so
detection is structural (the corrupted entry *will* be exercised), and a
miss is a genuine engine defect rather than sampling luck.  The pristine
netlist reference paths ride the bit-parallel compiled engine
(:mod:`repro.logic.bitsim`), so the exhaustive budgets stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..adders.fulladder import FULL_ADDER_NAMES, FULL_ADDERS, FullAdderSpec
from ..adders.ripple import ApproximateRippleAdder
from ..multipliers.mul2x2 import MULTIPLIER_2X2_NAMES, Mul2x2Spec, multiplier_2x2
from .oracle import (
    Oracle,
    _golden_add,
    _golden_mul,
    _ripple_add_cin,
    fa_value_paths,
    mul2x2_value_paths,
)
from .report import Budget, resolve_budget

__all__ = ["Mutant", "MutationReport", "seeded_mutants", "run_mutation_smoke"]


@dataclass(frozen=True)
class Mutant:
    """One seeded fault wrapped as a verifiable oracle.

    Attributes:
        name: Unique mutant identifier.
        description: Which site was corrupted and how.
        oracle: Sandboxed oracle whose paths pair the corrupted
            implementation with a pristine sibling.
    """

    name: str
    description: str
    oracle: Oracle


def _fa_mutants(seed: int) -> List[Mutant]:
    """Two single-row truth-table flips per Table III cell.

    The flipped behavioural table is checked against the cell's pristine
    structural netlist -- mutated specs must never call ``netlist()``
    themselves (the synthesis caches are keyed by cell name).
    """
    from ..campaign import derive_seed

    mutants = []
    for cell in FULL_ADDER_NAMES:
        pristine = FULL_ADDERS[cell]
        netlist_path = fa_value_paths(pristine)["netlist"]
        rng = np.random.default_rng(derive_seed(seed, "mutant_fa", cell))
        sites = rng.choice(16, size=2, replace=False)
        for index, site in enumerate(sites):
            row, column = int(site) >> 1, int(site) & 1
            table = [list(outputs) for outputs in pristine.table]
            table[row][column] ^= 1
            mutated = FullAdderSpec(
                pristine.name,
                tuple(tuple(outputs) for outputs in table),
                pristine.description,
            )
            field = "cout" if column else "sum"
            mutants.append(Mutant(
                name=f"mutant/fa/{cell}#{index}",
                description=f"{cell}: flipped {field} of row {row}",
                oracle=Oracle(
                    name=f"mutant/fa/{cell}#{index}",
                    family="fa",
                    description=f"seeded fault: {cell} row {row} {field}",
                    operand_bits=(1, 1, 1),
                    golden=_golden_add(1),
                    paths={
                        "table": fa_value_paths(
                            mutated, include_netlists=False
                        )["table"],
                        "netlist": netlist_path,
                    },
                ),
            ))
    return mutants


def _mul2x2_mutants(seed: int) -> List[Mutant]:
    """Two single-bit product-table flips per 2x2 multiplier design."""
    from ..campaign import derive_seed

    mutants = []
    for design in MULTIPLIER_2X2_NAMES:
        pristine = multiplier_2x2(design)
        netlist_path = mul2x2_value_paths(pristine)["netlist"]
        rng = np.random.default_rng(derive_seed(seed, "mutant_mul", design))
        sites = rng.choice(64, size=2, replace=False)
        for index, site in enumerate(sites):
            row, bit = int(site) >> 2, int(site) & 3
            table = list(pristine.table)
            table[row] ^= 1 << bit
            mutated = Mul2x2Spec(
                pristine.name, tuple(table), pristine.description
            )
            mutants.append(Mutant(
                name=f"mutant/mul2x2/{design}#{index}",
                description=(
                    f"{design}: flipped product bit {bit} of row {row}"
                ),
                oracle=Oracle(
                    name=f"mutant/mul2x2/{design}#{index}",
                    family="mul2x2",
                    description=f"seeded fault: {design} row {row} bit {bit}",
                    operand_bits=(2, 2),
                    golden=_golden_mul(2),
                    paths={
                        "table": mul2x2_value_paths(
                            mutated, include_netlist=False
                        )["table"],
                        "netlist": netlist_path,
                    },
                ),
            ))
    return mutants


def _ripple_lut_mutants(seed: int) -> List[Mutant]:
    """One corrupted segment-LUT entry per approximate ripple variant.

    The shared LUT from :func:`~repro.adders.fastpath.approx_segment_lut`
    is copied before flipping (the cache hands out read-only views), so
    the fault stays sandboxed to this mutant's adder instance.
    """
    from ..campaign import derive_seed

    width, lsbs = 8, 4
    mutants = []
    for cell in FULL_ADDER_NAMES:
        if cell == "AccuFA":
            continue
        lut_adder = ApproximateRippleAdder(
            width, approx_fa=cell, num_approx_lsbs=lsbs
        )
        loop_adder = ApproximateRippleAdder(
            width, approx_fa=cell, num_approx_lsbs=lsbs, eval_mode="loop"
        )
        rng = np.random.default_rng(derive_seed(seed, "mutant_lut", cell))
        entry = int(rng.integers(0, lut_adder._seg_lut.size))
        bit = int(rng.integers(0, lsbs + 1))  # packed = (carry << s) | sum
        corrupted = lut_adder._seg_lut.copy()
        corrupted[entry] ^= 1 << bit
        lut_adder._seg_lut = corrupted
        mutants.append(Mutant(
            name=f"mutant/ripple/{cell}#lut",
            description=(
                f"{cell}x{lsbs}w{width}: flipped bit {bit} of segment-LUT "
                f"entry {entry}"
            ),
            oracle=Oracle(
                name=f"mutant/ripple/{cell}#lut",
                family="ripple",
                description=(
                    f"seeded fault: {cell} segment LUT entry {entry} "
                    f"bit {bit}"
                ),
                operand_bits=(width, width, 1),
                golden=_golden_add(width),
                paths={
                    "lut": lambda a, b, cin, _ad=lut_adder: (
                        _ripple_add_cin(_ad, a, b, cin)
                    ),
                    "loop": lambda a, b, cin, _ad=loop_adder: (
                        _ripple_add_cin(_ad, a, b, cin)
                    ),
                },
                meta={"fa": cell, "lsbs": lsbs, "width": width},
            ),
        ))
    return mutants


def seeded_mutants(seed: int = 0) -> List[Mutant]:
    """All seeded single-site faults (deterministic given ``seed``)."""
    return (
        _fa_mutants(seed) + _mul2x2_mutants(seed) + _ripple_lut_mutants(seed)
    )


@dataclass(frozen=True)
class MutationReport:
    """Outcome of one mutation smoke run.

    Attributes:
        results: ``(mutant_name, description, detected)`` per mutant.
    """

    results: Tuple[Tuple[str, str, bool], ...]

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def detected(self) -> int:
        return sum(1 for _, _, caught in self.results if caught)

    @property
    def missed(self) -> Tuple[str, ...]:
        """Names of mutants the engine failed to flag."""
        return tuple(
            name for name, _, caught in self.results if not caught
        )

    @property
    def detection_rate(self) -> float:
        return self.detected / self.total if self.total else 1.0

    def summary(self) -> str:
        line = (
            f"mutation smoke: {self.detected}/{self.total} seeded mutants "
            f"detected ({self.detection_rate:.0%})"
        )
        if self.missed:
            line += "; MISSED: " + ", ".join(self.missed)
        return line


def run_mutation_smoke(
    seed: int = 0, budget: str | Budget = "mutation"
) -> MutationReport:
    """Verify every seeded mutant; a mutant is *detected* when at least
    one conformance check fails on it.

    The acceptance bar is 100% detection -- see
    ``tests/verify/test_mutation_smoke.py``.
    """
    from .conformance import verify_component

    budget = resolve_budget(budget)
    results = []
    for mutant in seeded_mutants(seed):
        report = verify_component(mutant.oracle, budget, seed)
        results.append((mutant.name, mutant.description, not report.passed))
    return MutationReport(results=tuple(results))

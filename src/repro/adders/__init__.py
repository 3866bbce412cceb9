"""Approximate adders: 1-bit cells (Table III), multi-bit ripple adders,
and the GeAr accuracy-configurable adder model with its error models."""

from .configurable import ConfigurableGeArAdder, ModeCharacterization
from .netlist_builder import (
    build_ripple_adder_netlist,
    build_subtractor_netlist,
    evaluate_adder_netlist,
)
from .characterize import (
    AdderCharacterization,
    adder_energy_per_op_fj,
    characterize_adder,
    characterize_gear,
    characterize_ripple_family,
)
from .fulladder import (
    FULL_ADDER_NAMES,
    FULL_ADDERS,
    FullAdderSpec,
    accurate_full_adder,
    full_adder,
)
from .gear import GeArAdder, GeArConfig
from .hetero import HeteroGeArAdder, HeteroGeArConfig
from .gear_error import (
    ErrorEvent,
    accuracy_percent,
    error_events,
    exhaustive_error_rate,
    monte_carlo_error_rate,
    paper_error_probability,
)
from .fastpath import (
    AUTO_LUT_MAX_BITS,
    LUT_MAX_BITS,
    approx_segment_lut,
)
from .prefix import SpeculativePrefixAdder, build_kogge_stone_netlist
from .ripple import EVAL_MODES, ApproximateRippleAdder, ExactAdder
from .variants import aca_i, aca_ii, etaii, gda, known_adder_configs

__all__ = [
    "ConfigurableGeArAdder",
    "ModeCharacterization",
    "build_ripple_adder_netlist",
    "build_subtractor_netlist",
    "evaluate_adder_netlist",
    "AdderCharacterization",
    "adder_energy_per_op_fj",
    "characterize_adder",
    "characterize_gear",
    "characterize_ripple_family",
    "FULL_ADDER_NAMES",
    "FULL_ADDERS",
    "FullAdderSpec",
    "accurate_full_adder",
    "full_adder",
    "GeArAdder",
    "GeArConfig",
    "HeteroGeArAdder",
    "HeteroGeArConfig",
    "ErrorEvent",
    "accuracy_percent",
    "error_events",
    "exhaustive_error_rate",
    "monte_carlo_error_rate",
    "paper_error_probability",
    "ApproximateRippleAdder",
    "ExactAdder",
    "EVAL_MODES",
    "AUTO_LUT_MAX_BITS",
    "LUT_MAX_BITS",
    "approx_segment_lut",
    "SpeculativePrefixAdder",
    "build_kogge_stone_netlist",
    "aca_i",
    "aca_ii",
    "etaii",
    "gda",
    "known_adder_configs",
]

"""Word-level partitioned-SIMD datapath evaluation.

The third speed layer after the LUT/segment fast path and the
bit-parallel netlist engine: many independent N-bit datapath operations
are packed side by side into 64-bit NumPy lanes and evaluated with
plain word arithmetic, with carry-partition masks keeping the fields
independent (the ieee754fpu ``part_mul_add`` idiom -- PartitionPoints /
MaskedFullAdder).
"""

from .partsim import (
    PartitionLayout,
    packed_absdiff,
    sad_surface,
    sad_surface_reference,
)

__all__ = [
    "PartitionLayout",
    "packed_absdiff",
    "sad_surface",
    "sad_surface_reference",
]

"""Multiple-write codes for write-once memory via zero-position modulation.

The package plans code parameters for t writes of given message counts,
encodes and decodes generations over simulated write-once cells, computes
the write-by-write wit lower bound, and compares rates against classic
fixed-cardinality schemes.
"""

from .bounds import (
    BoundReport,
    check_half_optimal,
    code_rate,
    comparator_rates,
    delta,
    rate,
    z_bound,
)
from .combinadic import binomial, rank, unrank
from .device import WitArray, load_state, save_state
from .errors import (
    CapacityError,
    CorruptStateError,
    DomainError,
    WomCodeError,
    WriteOnceViolation,
)
from .planner import CodeParams, plan, validate
from .wom_codec import (
    GenerationReading,
    MemoryImage,
    decode,
    detect_generation,
    encode_write,
    erase_to,
    fresh_image,
    next_generation,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityError",
    "CodeParams",
    "CorruptStateError",
    "DomainError",
    "GenerationReading",
    "MemoryImage",
    "WitArray",
    "WomCodeError",
    "WriteOnceViolation",
    "binomial",
    "check_half_optimal",
    "code_rate",
    "comparator_rates",
    "decode",
    "delta",
    "detect_generation",
    "encode_write",
    "erase_to",
    "fresh_image",
    "load_state",
    "next_generation",
    "plan",
    "rank",
    "rate",
    "save_state",
    "unrank",
    "validate",
    "z_bound",
    "__version__",
]

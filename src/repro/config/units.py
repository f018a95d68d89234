"""Unit helpers: bytes, bandwidths and the cycle <-> seconds mapping.

The paper specifies link bandwidths in GB/s and latencies in cycles
(Table IV).  Internally the simulator works entirely in *cycles* and
*bytes*; this module owns the conversions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.fields import check, number
from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Decimal giga used for bandwidth figures quoted as "GB/s" in the paper.
GIGA = 1_000_000_000


@dataclass(frozen=True)
class Clock:
    """Maps cycles to seconds.

    The default 1 GHz clock makes one cycle equal one nanosecond, so a
    200 GB/s link moves 200 bytes per cycle — convenient for sanity checks.
    """

    frequency_hz: float = number(1e9, gt=0)

    def __post_init__(self) -> None:
        check(self)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz

    def bandwidth_bytes_per_cycle(self, gigabytes_per_second: float) -> float:
        """Convert a GB/s figure (decimal giga, as quoted in the paper)."""
        if gigabytes_per_second <= 0:
            raise ConfigError(
                f"bandwidth must be positive, got {gigabytes_per_second} GB/s"
            )
        return gigabytes_per_second * GIGA / self.frequency_hz


DEFAULT_CLOCK = Clock()


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count, used in reports (e.g. '4.0 MB')."""
    if num_bytes < 0:
        raise ConfigError(f"byte count must be non-negative, got {num_bytes}")
    for unit, factor in (("GB", GB), ("MB", MB), ("KB", KB)):
        if num_bytes >= factor:
            return f"{num_bytes / factor:.1f} {unit}"
    return f"{num_bytes:.0f} B"

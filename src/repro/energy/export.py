"""Export measured traces: CSV dumps and terminal sparklines.

The Monsoon workflow the paper used produces raw power dumps that get
post-processed externally; these helpers provide the same escape hatch —
CSV for notebooks/spreadsheets, sparklines for a quick terminal look.
"""

from __future__ import annotations

import io
from typing import List, Sequence, TextIO, Tuple

from .ledger import PowerLedger

#: Unicode block characters for sparklines, lowest to highest.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def write_power_csv(
    ledger: PowerLedger,
    end_time: float,
    sample_interval_s: float,
    out: TextIO,
) -> int:
    """Write ``time_s,power_w`` samples; returns the row count."""
    samples = ledger.sample_trace(end_time, sample_interval_s)
    out.write("time_s,power_w\n")
    for time, power in samples:
        out.write(f"{time:.9f},{power:.6f}\n")
    return len(samples)


def write_state_csv(
    ledger: PowerLedger, end_time: float, out: TextIO
) -> int:
    """Write every component's state intervals; returns the row count."""
    out.write("component,state,routine,start_s,duration_s,power_w\n")
    rows = 0
    for component in ledger.components:
        for t0, t1, state, power_w, routine in ledger.intervals(
            component, end_time
        ):
            out.write(
                f"{component},{state},{routine},"
                f"{t0:.9f},{t1 - t0:.9f},{power_w:.6f}\n"
            )
            rows += 1
    return rows


def power_csv_string(
    ledger: PowerLedger, end_time: float, sample_interval_s: float
) -> str:
    """CSV power trace as a string (convenience for tests/notebooks)."""
    buffer = io.StringIO()
    write_power_csv(ledger, end_time, sample_interval_s, buffer)
    return buffer.getvalue()


def sparkline(values: Sequence[float], width: int = 64) -> str:
    """Render a numeric series as a fixed-width unicode sparkline."""
    if not values:
        return ""
    data: List[float] = list(values)
    # Downsample by bucket means to the requested width.
    if len(data) > width:
        bucket = len(data) / width
        buckets = [
            data[int(i * bucket) : max(int(i * bucket) + 1, int((i + 1) * bucket))]
            for i in range(width)
        ]
        data = [sum(chunk) / max(1, len(chunk)) for chunk in buckets]
    low, high = min(data), max(data)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[0] * len(data)
    return "".join(
        _SPARK_LEVELS[
            min(
                len(_SPARK_LEVELS) - 1,
                int((value - low) / span * len(_SPARK_LEVELS)),
            )
        ]
        for value in data
    )


def power_sparkline(
    ledger: PowerLedger,
    end_time: float,
    width: int = 64,
) -> Tuple[str, float, float]:
    """Sparkline of hub power plus its (min, max) in watts."""
    samples = ledger.sample_trace(end_time, end_time / max(1, width * 4))
    values = [power for _, power in samples]
    return sparkline(values, width=width), min(values), max(values)

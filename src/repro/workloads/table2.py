"""Textual rendering of Table I (sensors) and Table II (workloads)."""

from __future__ import annotations

from typing import List

from ..apps.registry import APP_PROFILES
from ..sensors.specs import TABLE_I
from ..units import to_kib, to_ms, to_mw


def table1_rows() -> List[str]:
    """Render the sensor specification table (Table I)."""
    header = (
        f"{'No.':<5}{'Sensor':<14}{'Bus':<14}{'Read(ms)':>10}"
        f"{'Typ(mW)':>10}{'Size(B)':>9}{'MaxHz':>10}{'QoSHz':>8}  MCU-friendly"
    )
    rows = [header]
    for spec in TABLE_I.values():
        max_rate = f"{spec.max_rate_hz:.0f}" if spec.max_rate_hz else "-"
        qos = f"{spec.qos_rate_hz:.0f}" if spec.qos_rate_hz else "-"
        rows.append(
            f"{spec.sensor_id:<5}{spec.name:<14}{spec.bus:<14}"
            f"{to_ms(spec.read_time_s):>10.2f}"
            f"{to_mw(spec.typical_power_w):>10.2f}"
            f"{spec.sample_bytes:>9}"
            f"{max_rate:>10}{qos:>8}  {'yes' if spec.mcu_friendly else 'NO'}"
        )
    return rows


def table2_rows() -> List[str]:
    """Render the workload table (Table II) with derived columns."""
    header = (
        f"{'No.':<5}{'Benchmark':<34}{'Category':<26}{'Sensors':<22}"
        f"{'Data(KB)':>9}{'#IRQs':>7}  Heavy"
    )
    rows = [header]
    for table2_id, profile in APP_PROFILES.items():
        rows.append(
            f"{table2_id:<5}{profile.title:<34}{profile.category:<26}"
            f"{', '.join(profile.sensor_ids):<22}"
            f"{to_kib(profile.sensor_data_bytes):>9.2f}"
            f"{profile.interrupts_per_window:>7}"
            f"  {'yes' if profile.heavy else 'no'}"
        )
    return rows

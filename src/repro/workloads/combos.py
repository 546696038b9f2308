"""Multi-app combinations: Figure 11's 14 sensor-sharing scenarios and
Figure 12's heavy-weight scenarios."""

from __future__ import annotations

from typing import Set, Tuple

from ..apps.registry import create_app

#: The 14 combinations on Figure 11's x axis, in the paper's order.
#: Every combination shares at least one sensor between its apps (the
#: precondition for BEAM to help at all).
FIG11_COMBOS: Tuple[Tuple[str, ...], ...] = (
    ("A2", "A5"),
    ("A5", "A7"),
    ("A4", "A5"),
    ("A3", "A5"),
    ("A2", "A7"),
    ("A2", "A4"),
    ("A4", "A7"),
    ("A3", "A4"),
    ("A2", "A5", "A7"),
    ("A2", "A4", "A5"),
    ("A5", "A7", "A4"),
    ("A3", "A4", "A5"),
    ("A2", "A4", "A7"),
    ("A2", "A4", "A5", "A7"),
)

#: Figure 12's scenarios: the heavy-weight app alone and with light apps.
HEAVY_SCENARIOS: Tuple[Tuple[str, ...], ...] = (
    ("A11",),
    ("A11", "A6"),
    ("A11", "A6", "A1"),
)


def shared_sensors(app_ids: Tuple[str, ...]) -> Set[str]:
    """Sensors used by two or more of the apps (what BEAM can dedup)."""
    usage: dict = {}
    for app_id in app_ids:
        for sensor_id in create_app(app_id).profile.sensor_ids:
            usage[sensor_id] = usage.get(sensor_id, 0) + 1
    return {sensor_id for sensor_id, count in usage.items() if count > 1}


def combo_label(app_ids: Tuple[str, ...]) -> str:
    """Figure 11 x-axis label (e.g. ``A2+A4+A7``)."""
    return "+".join(app_ids)

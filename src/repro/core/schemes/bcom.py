"""BCOM (§III-C): COM for the apps that fit the MCU, Batching for the rest."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...apps.base import IoTApp
from ...calibration import Calibration
from ...firmware.capability import OffloadReport, check_offloadable
from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


def partition_offloadable(
    apps: List[IoTApp], cal: Calibration
) -> Tuple[List[IoTApp], List[IoTApp], Dict[str, OffloadReport]]:
    """Split ``apps`` into (com_apps, batch_apps) under the MCU's RAM."""
    com_apps: List[IoTApp] = []
    batch_apps: List[IoTApp] = []
    candidates: List[IoTApp] = []
    reports: Dict[str, OffloadReport] = {}
    for app in apps:
        report = check_offloadable(app, cal)
        reports[app.name] = report
        (candidates if report else batch_apps).append(app)
    # Greedy pack: smallest footprints first maximizes the number of
    # apps that escape the CPU; the rest fall back to Batching.
    budget = cal.mcu.ram_bytes
    for app in sorted(
        candidates, key=lambda a: a.profile.mcu_footprint_bytes
    ):
        footprint = app.profile.mcu_footprint_bytes
        if footprint <= budget:
            budget -= footprint
            com_apps.append(app)
        else:
            batch_apps.append(app)
            reports[app.name] = OffloadReport(
                app_name=app.name,
                offloadable=False,
                reasons=[
                    "MCU RAM contention: other offloaded apps already "
                    "occupy the remaining capacity"
                ],
                mcu_compute_time_s=app.profile.mcu_compute_time_s(cal),
                required_ram_bytes=footprint,
            )
    return com_apps, batch_apps, reports


@register_scheme("bcom")
class BcomScheme(SchemeExecutor):
    """Offload what fits the MCU under COM; batch the heavy remainder."""

    def plan(self, scenario) -> SchemePlan:
        """Partition apps: offloadable ones to COM, the rest to batching."""
        com_apps, batch_apps, reports = partition_offloadable(
            list(scenario.apps), scenario.calibration
        )
        return SchemePlan(
            family="buffered",
            com_apps=com_apps,
            batch_apps=batch_apps,
            offload_reports=reports,
        )

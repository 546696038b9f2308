"""COM (§III-B): compute on the MCU; only results cross to the CPU."""

from __future__ import annotations

from ...errors import OffloadError
from ...firmware.capability import check_offloadable
from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("com")
class ComScheme(SchemeExecutor):
    """Run every app's computation on the MCU; ship only the result."""

    def plan(self, scenario) -> SchemePlan:
        """Offload every app; any that fails the capability check is fatal."""
        reports = {}
        for app in scenario.apps:
            report = check_offloadable(app, scenario.calibration)
            reports[app.name] = report
            if not report:
                raise OffloadError(
                    f"{app.name} cannot be offloaded: "
                    f"{'; '.join(report.reasons)}"
                )
        return SchemePlan(
            family="buffered",
            com_apps=list(scenario.apps),
            offload_reports=reports,
        )

"""Per-routine energy reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..hw.power import Routine


@dataclass
class EnergyReport:
    """Integrated energy of one scenario run.

    All energies are joules.  ``by_component_routine`` is the finest grain;
    everything else is derived from it.  ``idle_floor_power_w`` is the
    whole-hub draw when everything sleeps; *marginal* figures subtract that
    floor, which is how the paper normalizes its savings bars (the floor
    exists whether or not any app runs).
    """

    duration_s: float
    idle_floor_power_w: float
    by_component_routine: Dict[Tuple[str, str], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    @property
    def total_j(self) -> float:
        """Total hub energy over the run."""
        return sum(self.by_component_routine.values())

    @property
    def by_routine(self) -> Dict[str, float]:
        """Energy per routine, summed over components."""
        result: Dict[str, float] = {}
        for (_, routine), joules in self.by_component_routine.items():
            result[routine] = result.get(routine, 0.0) + joules
        return result

    @property
    def by_component(self) -> Dict[str, float]:
        """Energy per component, summed over routines."""
        result: Dict[str, float] = {}
        for (component, _), joules in self.by_component_routine.items():
            result[component] = result.get(component, 0.0) + joules
        return result

    def routine_j(self, routine: str) -> float:
        """Energy attributed to one routine."""
        return self.by_routine.get(routine, 0.0)

    def component_j(self, component: str) -> float:
        """Energy drawn by one component."""
        return self.by_component.get(component, 0.0)

    # ------------------------------------------------------------------
    # marginal (above idle-floor) accounting
    # ------------------------------------------------------------------
    @property
    def idle_floor_j(self) -> float:
        """Energy the hub would have used asleep for the same duration."""
        return self.idle_floor_power_w * self.duration_s

    @property
    def marginal_j(self) -> float:
        """App-attributable energy: total minus the always-there floor."""
        return max(0.0, self.total_j - self.idle_floor_j)

    def savings_vs(self, baseline: "EnergyReport") -> float:
        """Fractional marginal-energy saving relative to ``baseline``.

        This is the quantity behind the paper's "52% / 85% / 29%" numbers:
        1 - E_marginal(self) / E_marginal(baseline).
        """
        base = baseline.marginal_j
        if base <= 0:
            return 0.0
        return 1.0 - self.marginal_j / base

    def normalized_to(self, baseline: "EnergyReport") -> float:
        """Marginal energy as a fraction of the baseline's (bar height)."""
        base = baseline.marginal_j
        if base <= 0:
            return 0.0
        return self.marginal_j / base

    # ------------------------------------------------------------------
    # breakdowns
    # ------------------------------------------------------------------
    def routine_fractions(self, include_idle: bool = False) -> Dict[str, float]:
        """Share of total energy per routine (the stacked-bar splits)."""
        per_routine = self.by_routine
        if not include_idle:
            per_routine = {
                routine: joules
                for routine, joules in per_routine.items()
                if routine != Routine.IDLE
            }
        total = sum(per_routine.values())
        if total <= 0:
            return {routine: 0.0 for routine in per_routine}
        return {routine: joules / total for routine, joules in per_routine.items()}

    def marginal_by_routine(self) -> Dict[str, float]:
        """Marginal energy split by routine.

        The idle floor is removed proportionally from each component's
        ``idle``-tagged draw first; any floor remainder is removed from the
        other routines proportionally to their size.
        """
        per_routine = dict(self.by_routine)
        floor = self.idle_floor_j
        idle = per_routine.pop(Routine.IDLE, 0.0)
        floor_left = max(0.0, floor - idle)
        remainder = max(0.0, idle - floor)
        if remainder > 0:
            # Idle-tagged energy above the floor: spread over real routines.
            per_routine[Routine.IDLE] = remainder
        active_total = sum(per_routine.values())
        if floor_left > 0 and active_total > 0:
            scale = max(0.0, 1.0 - floor_left / active_total)
            per_routine = {
                routine: joules * scale for routine, joules in per_routine.items()
            }
        return per_routine

    def scaled_routine_bars(self, baseline: "EnergyReport") -> Dict[str, float]:
        """Per-routine marginal energy as fractions of the baseline total.

        This reproduces the paper's normalized stacked bars (Figures 7, 9,
        10, 11, 12): each routine's share is relative to the *baseline*
        scheme's marginal total, so the bar heights sum to
        :meth:`normalized_to`.
        """
        base = baseline.marginal_j
        if base <= 0:
            return {}
        return {
            routine: joules / base
            for routine, joules in self.marginal_by_routine().items()
        }

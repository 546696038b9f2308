"""The paper's headline savings (EXPERIMENTS.md), pinned in tier-1.

Both figure grids run through ``compare_grid(..., fidelity="analytic")``
on a serial engine: every point is a full scan, which equals the DES
bit for bit, so a calibration regression fails here in seconds rather
than only in the benchmarks.
"""

import pytest

from repro.apps import light_weight_ids
from repro.core import ScenarioEngine, Scheme, average_savings, compare_grid
from repro.workloads import FIG11_COMBOS

#: Allowed distance from the EXPERIMENTS.md averages, in percentage points.
TOLERANCE_PP = 0.1


def _average_savings_pp(engine, app_sets, schemes):
    """Mean saving of every non-baseline scheme over the grid, in %."""
    grid = compare_grid(app_sets, schemes, engine=engine, fidelity="analytic")
    return {
        scheme: 100.0 * average_savings(grid, scheme) for scheme in schemes[1:]
    }


def test_fig10_and_fig11_average_savings():
    with ScenarioEngine() as engine:
        fig10 = _average_savings_pp(
            engine,
            [[app_id] for app_id in light_weight_ids()],
            [Scheme.BASELINE, Scheme.BATCHING, Scheme.COM],
        )
        fig11 = _average_savings_pp(
            engine,
            [list(combo) for combo in FIG11_COMBOS],
            [Scheme.BASELINE, Scheme.BEAM, Scheme.BCOM],
        )
        # Every point was answered by the analytic tier.
        assert engine.metrics.scenarios_run == 0
    assert fig10[Scheme.BATCHING] == pytest.approx(52.5, abs=TOLERANCE_PP)
    assert fig10[Scheme.COM] == pytest.approx(84.7, abs=TOLERANCE_PP)
    assert fig11[Scheme.BEAM] == pytest.approx(23.1, abs=TOLERANCE_PP)
    assert fig11[Scheme.BCOM] == pytest.approx(66.5, abs=TOLERANCE_PP)

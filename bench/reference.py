"""DES oracle references and the comparisons every run makes against them.

``reference/grid.json`` holds the discrete-event results of the 72
Figure 10/11 points at one window and ``reference/long_horizon.json``
those of the 18 long-horizon points at 30 windows.  Both are written by
``python bench/run.py --write-reference``.  A run compares every point
it computes with its reference: floats within :data:`RTOL`, integers
exactly, and an expected rejection by its error class.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List

from workloads import FIG10_APPS, FIG11_COMBOS, point_key

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-9
FLOAT_FIELDS = ("total_j", "marginal_j", "duration_s")
INT_FIELDS = ("interrupts", "cpu_wakes", "bus_bytes")

#: Reference file of each grid workload.
REFERENCE_FILES = {
    "des-grid": "grid.json",
    "analytic-grid": "grid.json",
    "long-horizon": "long_horizon.json",
}

#: The paper's headline average savings, in percent (Fig. 10 and 11).
PAPER_HEADLINES = {
    ("fig10", "batching"): 52.0,
    ("fig10", "com"): 85.0,
    ("fig11", "beam"): 29.0,
    ("fig11", "bcom"): 70.0,
}


def physics(outcome: Any) -> Dict[str, Any]:
    """The checked fields of one engine outcome (a result or an error)."""
    if isinstance(outcome, BaseException):
        return {"error": type(outcome).__name__}
    energy = outcome.energy
    return {
        "total_j": energy.total_j,
        "marginal_j": energy.marginal_j,
        "duration_s": outcome.duration_s,
        "interrupts": outcome.interrupt_count,
        "cpu_wakes": outcome.cpu_wake_count,
        "bus_bytes": outcome.bus_bytes,
    }


def artifact_physics(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """The checked fields of one served point artifact."""
    if "error" in artifact:
        return {"error": artifact["error"]["type"]}
    metrics = artifact["metrics"]
    return {
        "total_j": metrics["energy"]["total_j"],
        "marginal_j": metrics["energy"]["marginal_j"],
        "duration_s": metrics["duration_s"],
        "interrupts": metrics["interrupts"],
        "cpu_wakes": metrics["cpu_wakes"],
        "bus_bytes": metrics["bus_bytes"],
    }


def mismatches(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """How ``actual`` differs from ``expected``; empty when they agree."""
    if "error" in expected or "error" in actual:
        if expected.get("error") == actual.get("error"):
            return []
        return [f"error {actual.get('error')} (expected {expected.get('error')})"]
    problems = [
        f"{name} {actual[name]!r} (expected {expected[name]!r})"
        for name in FLOAT_FIELDS
        if not math.isclose(actual[name], expected[name], rel_tol=RTOL, abs_tol=0.0)
    ]
    problems += [
        f"{name} {actual[name]!r} (expected {expected[name]!r})"
        for name in INT_FIELDS
        if actual[name] != expected[name]
    ]
    return problems


def load(workload: str) -> Dict[str, Dict[str, Any]]:
    """The reference points of a grid workload, keyed by point key."""
    path = REFERENCE_DIR / REFERENCE_FILES[workload]
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def write(name: str, description: str, points: Dict[str, Dict[str, Any]]) -> Path:
    """Write one reference file (sorted keys, full float precision)."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / name
    payload = {"description": description, "rtol": RTOL, "points": points}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def paper_error_pp(points: Dict[str, Dict[str, Any]]) -> float:
    """Mean absolute error of the four headline savings vs the paper, in pp.

    ``points`` maps the grid's point keys to their physics; a saving is
    ``1 - marginal(scheme) / marginal(baseline)``, averaged over the
    figure's app sets as the paper does.
    """
    figures = {
        "fig10": [(app,) for app in FIG10_APPS],
        "fig11": list(FIG11_COMBOS),
    }
    errors = []
    for (figure, scheme), paper in PAPER_HEADLINES.items():
        savings = [
            1.0
            - points[point_key(apps, scheme, 1)]["marginal_j"]
            / points[point_key(apps, "baseline", 1)]["marginal_j"]
            for apps in figures[figure]
        ]
        errors.append(abs(100.0 * sum(savings) / len(savings) - paper))
    return sum(errors) / len(errors)

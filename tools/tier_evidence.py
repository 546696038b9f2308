#!/usr/bin/env python3
"""Count how the analytic tier compares with the DES over seeded draws.

Each draw is a scenario of one to four distinct apps from A1-A11, one of
the six schemes and a window count.  Half the draws also scale one to
three CPU or MCU calibration constants by 0.8, 0.9, 1.1 or 1.25; half
set a batch size, half an MCU RAM of 2-48 KiB, and half inject failure
rates of 0.05-0.9 on one to three of the scenario's sensors.  Both
tiers answer it, and the draw lands in exactly one outcome:

- ``error``: both tiers raise the same error;
- ``identical``: a full scan equals the DES result bit for bit;
- ``extrapolated``: a cycle was multiplied out, and the result lies
  within ``assert_results_match`` of the DES;
- ``diverged``: anything else; the draw is printed with its assertion.

``--short`` draws run at 1-3 windows and ``--long`` more at 7-40
windows.  The oracles are the test suite's own
(``tests/test_analytic.py``), so run from the repository root::

    PYTHONPATH=src python tools/tier_evidence.py --short 10000 --long 500 --workers 2

The draws depend only on ``--seed`` and the draw index, so the counts
are reproducible on any host and worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from collections import Counter
from multiprocessing import get_context

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.test_analytic import (  # noqa: E402
    BATCH_SIZES, CALIBRATION_CONSTANTS, FAILURE_RATES, RAM_KIB,
    SCALE_FACTORS, SCHEMES, generated_scenario, tier_outcome,
)

APPS = tuple(f"A{index}" for index in range(1, 12))


def draw(seed: int, kind: str, index: int) -> dict:
    """The ``index``-th draw of one kind (``short`` or ``long``)."""
    rng = random.Random(f"{seed}:{kind}:{index}")
    apps = rng.sample(APPS, rng.randint(1, 4))
    scheme = rng.choice(SCHEMES)
    windows = rng.randint(1, 3) if kind == "short" else rng.randint(7, 40)
    scales = []
    if rng.random() < 0.5:
        for part, name in rng.sample(CALIBRATION_CONSTANTS, rng.randint(1, 3)):
            scales.append((part, name, rng.choice(SCALE_FACTORS)))
    batch_size = rng.choice(BATCH_SIZES) if rng.random() < 0.5 else None
    ram_kib = rng.randint(*RAM_KIB) if rng.random() < 0.5 else None
    failures = []
    if rng.random() < 0.5:
        failures = [(rng.randint(0, 9), rng.choice(FAILURE_RATES))
                    for _ in range(rng.randint(1, 3))]
    return {"apps": apps, "scheme": scheme, "windows": windows,
            "scales": scales, "batch_size": batch_size, "ram_kib": ram_kib,
            "failures": failures}


def outcome(point: dict) -> tuple:
    """``(outcome, detail)`` of one draw; ``detail`` names a divergence."""
    scenario = generated_scenario(**point)
    try:
        return tier_outcome(scenario), None
    except AssertionError as exc:
        failed = traceback.extract_tb(exc.__traceback__)[-1]
        return "diverged", f"{failed.name}: {failed.line} {str(exc)[:300]}"


def _job(args: tuple) -> tuple:
    seed, kind, index = args
    point = draw(seed, kind, index)
    return kind, index, point, outcome(point)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--short", type=int, default=1000,
                        help="1-3-window draws to compare")
    parser.add_argument("--long", type=int, default=50,
                        help="7-40-window draws to compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", help="write the counts as JSON here")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    counts = {"short": Counter(), "long": Counter()}
    divergences = []
    with get_context("spawn").Pool(args.workers) as pool:
        batch = [(args.seed, "short", i) for i in range(args.short)]
        batch += [(args.seed, "long", i) for i in range(args.long)]
        for kind, index, point, (result, detail) in pool.imap(_job, batch):
            counts[kind][result] += 1
            if detail is not None:
                divergences.append((kind, index, point, detail))
    report = {
        "seed": args.seed,
        "counts": {kind: dict(sorted(c.items())) for kind, c in counts.items()},
        "draws": {kind: sum(c.values()) for kind, c in counts.items()},
        "divergences": [
            {"kind": kind, "index": index, **point, "detail": detail}
            for kind, index, point, detail in divergences
        ],
        "wall_s": round(time.perf_counter() - started, 1),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 1 if divergences else 0


if __name__ == "__main__":
    sys.exit(main())

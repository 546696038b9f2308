"""Seeded inputs for the benchmark's four workloads.

Everything here is plain data and pure functions of the seed, so the
orchestrator, the session processes and the self-tests agree on the
inputs without importing the program.  The seed only reorders and
picks: it shuffles the rows of each grid pass and the apps inside each
row, and it orders the served jobs and chooses which earlier job each
repeat asks for again.  The set of unique grid points is the same for
every seed, which is why one reference file covers all of them.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Figure 10: the ten light-weight apps, each alone, under three schemes.
FIG10_APPS = tuple(f"A{index}" for index in range(1, 11))
FIG10_SCHEMES = ("baseline", "batching", "com")
#: Figure 11: the fourteen sensor-sharing combinations, in the paper's
#: order, under three schemes.
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
FIG11_SCHEMES = ("baseline", "beam", "bcom")

GRID_WORKLOADS = ("des-grid", "analytic-grid", "long-horizon")
SERVED_WORKLOAD = "served-whatif"
WORKLOADS = GRID_WORKLOADS + (SERVED_WORKLOAD,)

#: Fidelity tier and window count of each grid workload.
GRID_SETTINGS: Dict[str, Tuple[str, int]] = {
    "des-grid": ("des", 1),
    "analytic-grid": ("analytic", 1),
    "long-horizon": ("analytic", 30),
}

#: Long-horizon subset: three single apps and three pairs whose scan
#: cost grows with the horizon.
LONG_HORIZON_APPS = ("A2", "A3", "A4")
LONG_HORIZON_COMBOS = (("A2", "A4"), ("A2", "A7"), ("A4", "A5"))

#: Rows a ``--smoke`` run keeps: the cheapest app sets of each figure.
SMOKE_APP_SETS = {("A3",), ("A10",), ("A3", "A5")}

#: The app set every grid session runs once, untimed, before measuring.
WARMUP_APPS = ("A3",)


class Row(NamedTuple):
    """One grid request: an app set under each of its figure's schemes."""

    apps: Tuple[str, ...]
    schemes: Tuple[str, ...]
    windows: int

    @property
    def key(self) -> str:
        """Order-free identity of the row (its app set and windows)."""
        return f"{'+'.join(sorted(self.apps))}:w{self.windows}"

    def point_keys(self) -> List[str]:
        """Reference keys of the row's points, in scheme order."""
        return [point_key(self.apps, scheme, self.windows) for scheme in self.schemes]


def point_key(apps, scheme: str, windows: int, batch_size=None) -> str:
    """Order-free identity of one grid point, as the references key it."""
    key = f"{'+'.join(sorted(apps))}:{scheme}:w{windows}"
    return key if batch_size is None else f"{key}:b{batch_size}"


def grid_rows(workload: str, smoke: bool = False) -> List[Row]:
    """The rows of one pass over a grid workload, in figure order."""
    _fidelity, windows = GRID_SETTINGS[workload]
    if workload == "long-horizon":
        singles, combos = LONG_HORIZON_APPS, LONG_HORIZON_COMBOS
    else:
        singles, combos = FIG10_APPS, FIG11_COMBOS
    rows = [Row((app,), FIG10_SCHEMES, windows) for app in singles]
    rows += [Row(tuple(combo), FIG11_SCHEMES, windows) for combo in combos]
    if smoke:
        rows = [row for row in rows if row.apps in SMOKE_APP_SETS]
    return rows


def grid_passes(
    workload: str, seed: int, smoke: bool = False
) -> Iterator[List[Row]]:
    """Endless passes over a grid workload, each in a seeded order.

    Every pass holds each row once; the seed shuffles the rows and the
    app order inside every multi-app row.
    """
    rng = random.Random(f"{workload}:{seed}")
    rows = grid_rows(workload, smoke)
    while True:
        order = list(rows)
        rng.shuffle(order)
        yield [
            row._replace(apps=tuple(rng.sample(row.apps, len(row.apps))))
            for row in order
        ]


# ----------------------------------------------------------------------
# served-whatif
# ----------------------------------------------------------------------
#: The 24 paper app sets a served job asks about.
SERVED_APP_SETS: Tuple[Tuple[str, ...], ...] = (
    tuple((app,) for app in FIG10_APPS) + FIG11_COMBOS
)
SERVED_SCHEMES = ("baseline", "batching", "bcom")
#: Batch sizes a session asks about, one block of 24 new jobs each, in
#: order; the small sizes that flush often, and so simulate slowest,
#: come last.  ``None`` ships one batch per window.  The baseline point
#: ignores batch size, so it carries none and every block shares it.
SERVED_BATCH_SIZES: Tuple[Optional[int], ...] = (None, 200, 500, 50, 100, 20, 10, 5)
#: Session size per second of ``--seconds``: five blocks (200 jobs) at 20 s.
SERVED_BLOCKS_PER_S = 0.25
SMOKE_SERVED_APP_SETS = (("A3",), ("A9",), ("A10",))
SMOKE_SERVED_BLOCKS = 2
#: Positions, within every five jobs, that repeat an earlier job.
REPEAT_SLOTS = (2, 4)
#: A repeat never targets the newest jobs, which may still be in flight.
REPEAT_MIN_AGE = 2


def served_windows(apps: Tuple[str, ...]) -> int:
    """Windows a job asks about: two for one app, one for a combination.

    A single app reads fewer streams, so two of its windows cost about
    what one window of a combination does.
    """
    return 2 if len(apps) == 1 else 1


def served_blocks(seconds: float) -> int:
    """Blocks of new jobs in a session of ``seconds``, at least one."""
    return min(len(SERVED_BATCH_SIZES), max(1, round(seconds * SERVED_BLOCKS_PER_S)))


class Job(NamedTuple):
    """One served ``sweep`` job: an app set under the three schemes."""

    apps: Tuple[str, ...]
    batch_size: Optional[int]
    #: Index of the earlier job this one repeats (apps reshuffled).
    repeat_of: Optional[int] = None

    def points(self) -> List[dict]:
        """The job's sweep points, as the service's JSON spec takes them."""
        windows = served_windows(self.apps)
        points = []
        for scheme in SERVED_SCHEMES:
            point = {"apps": list(self.apps), "scheme": scheme, "windows": windows}
            if scheme != "baseline" and self.batch_size is not None:
                point["batch_size"] = self.batch_size
            points.append(point)
        return points

    def point_keys(self) -> List[str]:
        """Order-free identities of the job's points."""
        return [
            point_key(
                point["apps"], point["scheme"], point["windows"],
                point.get("batch_size"),
            )
            for point in self.points()
        ]


def served_jobs(seed: int, blocks: int, smoke: bool = False) -> List[Job]:
    """The seeded job sequence both served clients draw from, in order.

    New jobs come in ``blocks`` blocks, one per batch size, each a
    seeded shuffle of every app set.  Every seed therefore serves the
    same multiset of jobs and only their order changes.  Two of every
    five jobs repeat an earlier new job with its app order reshuffled,
    which the service must answer from its cache.
    """
    rng = random.Random(f"{SERVED_WORKLOAD}:{seed}")
    app_sets = SERVED_APP_SETS
    if smoke:
        app_sets, blocks = SMOKE_SERVED_APP_SETS, SMOKE_SERVED_BLOCKS
    fresh: List[Job] = []
    for batch_size in SERVED_BATCH_SIZES[:blocks]:
        block = list(app_sets)
        rng.shuffle(block)
        fresh += [Job(tuple(rng.sample(apps, len(apps))), batch_size) for apps in block]
    jobs: List[Job] = []
    new_positions: List[int] = []
    pending = iter(fresh)
    while True:
        if (
            len(jobs) % 5 in REPEAT_SLOTS
            and len(new_positions) > REPEAT_MIN_AGE
        ):
            target = rng.choice(new_positions[:-REPEAT_MIN_AGE])
            original = jobs[target]
            apps = tuple(rng.sample(original.apps, len(original.apps)))
            jobs.append(original._replace(apps=apps, repeat_of=target))
            continue
        job = next(pending, None)
        if job is None:
            return jobs
        new_positions.append(len(jobs))
        jobs.append(job)

"""The work counts the docs quote match the committed perf-guard baseline.

"Where the time goes" in ``docs/architecture.md`` quotes deterministic
counts that ``BENCH_sim_throughput.json`` pins and the perf-guard CI
job asserts.  Each must appear in that section exactly as the baseline
holds it, written with comma separators and followed by its noun, so
re-pinning a count without updating the prose fails here.
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def where_the_time_goes() -> str:
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.split("\n## Where the time goes\n", 1)[1]
    return section.split("\n## ", 1)[0]


def pinned_counts():
    """(count, noun) pairs the section must quote, from the baseline."""
    bench = json.loads(
        (ROOT / "BENCH_sim_throughput.json").read_text(encoding="utf-8")
    )
    counts = [
        (bench["canonical"]["deterministic"]["counters"]["sim.events"], "events"),
        (bench["analytic_long_horizon"]["deterministic"]["des_events"], "events"),
    ]
    scan = bench["analytic_scan"]["deterministic"]
    nouns = {
        "scans": "scans",
        "entries": "entries",
        "segments": "segments",
        "held": "entries held",
        "pops": "heap pops",
    }
    for grid in ("analytic_grid", "long_horizon"):
        for key, noun in nouns.items():
            counts.append((scan[grid][key], noun))
    return counts


def test_where_the_time_goes_quotes_the_pinned_counts():
    # Joining the section's lines lets a count and its noun straddle a
    # line break.
    section = " ".join(where_the_time_goes().split())
    missing = [
        f"{count:,} {noun}"
        for count, noun in pinned_counts()
        if not re.search(rf"(?<![\d.,]){count:,} {noun}\b", section)
    ]
    assert not missing, f"not quoted in 'Where the time goes': {missing}"

"""The repository benchmark: the paper's grids and a served what-if session.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
    python3 bench/run.py --smoke            # every workload, tiny, for tests
    python3 bench/run.py --write-reference  # regenerate bench/reference/*.json

Each workload runs in fresh interpreters (``bench/session.py``): a few
cold starts give ``setup_s``, then one measured session runs for
``--seconds`` and checks every answer against the DES references.  The
command prints every end-to-end metric with its unit; with ``--trace``
it runs the workload untraced and then traced, and prints the per-layer
metrics, the layer table and the tracing overhead instead.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}

Exit status: 0 when every answer was correct, 1 when a check failed,
2 when the benchmark could not run (no program source, a crashed or
overdue session); then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 20.0
#: Cold starts per workload run; ``setup_s`` is their median.
SETUP_ROUNDS = 5
#: A whole run must finish inside this, set-up and checks included.
RUN_BUDGET_S = 170.0
#: The end-to-end metrics, with units, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("points_per_s", "points/s"),
    ("request_p50_s", "s"),
    ("request_p95_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
#: Environment knobs of the program that would change what is measured.
PROGRAM_ENV = ("REPRO_BACKEND", "REPRO_BACKEND_HOSTS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Session:
    """One ``session.py`` process, read line by line, with a hard deadline."""

    def __init__(self, argv: List[str], deadline: Optional[float]) -> None:
        env = {
            key: value for key, value in os.environ.items() if key not in PROGRAM_ENV
        }
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
        self.argv = argv
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "session.py"), *argv,
             "--t0", repr(time.monotonic())],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.overdue = False
        self._timer = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
            self._timer = threading.Timer(remaining, self.kill)
            self._timer.start()

    def kill(self) -> None:
        """Kill the session and everything it started (its process group)."""
        self.overdue = self.process.poll() is None
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def read(self, tag: str) -> Dict[str, Any]:
        """The payload of the next ``tag`` line; other output goes to stderr."""
        for line in self.process.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
            sys.stderr.write(line)
        self.finish()
        raise BenchError(f"session {' '.join(self.argv)} ended without {tag}")

    def finish(self) -> None:
        """Wait for the session; raise if it failed or ran out of time."""
        sys.stderr.write(self.process.stdout.read())
        code = self.process.wait()
        if self._timer is not None:
            self._timer.cancel()
        command = " ".join(self.argv)
        if self.overdue:
            raise BenchError(f"session {command} overran {RUN_BUDGET_S:.0f} s")
        if code != 0:
            raise BenchError(f"session {command} exited with status {code}")


def measured(argv: List[str], deadline: Optional[float]) -> Dict[str, Any]:
    """Run one measured session; returns its RESULT with its set-up time."""
    session = Session(argv, deadline)
    ready = session.read("READY")
    result = session.read("RESULT")
    session.finish()
    result["setup_s"] = ready["setup_s"]
    return result


def run_workload(
    name: str, args: argparse.Namespace, deadline: Optional[float]
) -> Dict[str, Any]:
    """Cold starts plus one measured session (two when tracing)."""
    base = [
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.smoke:
        base.append("--smoke")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        untraced = measured(base, deadline)
        trace_file = OUT / f"{name}.trace.json"
        traced = measured(base + ["--trace-out", str(trace_file)], deadline)
        traced["untraced"] = untraced
        traced["trace_file"] = str(trace_file.relative_to(ROOT))
        table = OUT / f"{name}.layers.txt"
        table.write_text(traced["table"] + "\n", encoding="utf-8")
        return traced
    setups = []
    for _round in range(0 if args.smoke else SETUP_ROUNDS - 1):
        session = Session(base + ["--setup-only"], deadline)
        setups.append(session.read("READY")["setup_s"])
        session.finish()
    result = measured(base, deadline)
    setups.append(result["setup_s"])
    result["setups"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(name: str, result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics and checks; returns its metric entries."""
    print(f"== {name}: {result['attempted']} checked, {result['failed']} failed, "
          f"measured {result['wall_s']:.1f} s over {result['samples']}, "
          f"host {result['slowdown']:.3f}x slower than the reference")
    for failure in result["failures"] + result.get("untraced", {}).get("failures", []):
        print(f"   FAILED {failure}")
    if "paper_err_pp" in result:
        print(f"   paper_err_pp {result['paper_err_pp']:.4f} pp "
              "(mean |headline saving - paper| over Fig. 10/11)")
    if not trace:
        entries = {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit in END_TO_END
        }
        for metric, entry in entries.items():
            print(f"   {metric:<16}{entry['value']:>14.6g} {entry['unit']}")
        rounds = ", ".join(f"{seconds:.4f}" for seconds in result["setups"])
        print(f"   set-up rounds (s): {rounds}")
        return entries
    units = dict(tracing.PER_LAYER)
    entries = {
        metric: {"value": int(value) if units[metric] == "count" else value,
                 "unit": units[metric]}
        for metric, value in result["layers"].items()
    }
    for metric, entry in entries.items():
        print(f"   {metric:<26}{entry['value']:>14.6g} {entry['unit']}")
    print("   " + result["table"].replace("\n", "\n   "))
    for missing in result["missing"]:
        print(f"   MISSING wrap point: {missing}")
    for metric in result["unmeasured"]:
        print(f"   UNMEASURED (wrap point missing): {metric}")
    untraced = result["untraced"]["metrics"]
    for metric in ("points_per_s", "request_p50_s"):
        before, after = untraced[metric], result["metrics"][metric]
        print(f"   tracing overhead: {metric} {before:.6g} untraced -> "
              f"{after:.6g} traced ({after / before - 1:+.1%})")
    print(f"   trace: {result['trace_file']}")
    return entries


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each measured session")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one cold start: a quick end-to-end check")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute bench/reference/*.json through the DES")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            session = Session(["--write-reference"], None)
            session.finish()
            return 0
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        deadline = None
        if len(names) == 1 and not args.smoke:
            deadline = time.monotonic() + RUN_BUDGET_S
        results = {name: run_workload(name, args, deadline) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        entries = report(name, result, bool(args.trace))
        if len(names) == 1:
            metrics = entries
        else:
            metrics.update(
                {f"{name}:{metric}": entry for metric, entry in entries.items()}
            )
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    if args.trace:
        attempted += sum(r["untraced"]["attempted"] for r in results.values())
        failed += sum(r["untraced"]["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

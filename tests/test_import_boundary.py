"""The analytic tier's import boundary.

An analytic session loads app profiles, sensor specs, scheme plans, the
scan, the ledger and the engine.  numpy and the code built on it (the
apps' algorithms, :mod:`repro.dsp`, the sensor waveforms) load only when
the DES computes a window or reads a sensor.  Each session here runs in
a fresh interpreter, so nothing the test process imported leaks in.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro.sensors
from repro.apps import create_app, speech2text
from repro.apps.offline import collect_window
from repro.core import Scenario
from repro.core.analytic import analytic_scenario_result
from repro.obs import TraceRecorder
from repro.sensors.sound import VOCABULARY, SpokenWordWaveform

SRC = Path(__file__).resolve().parents[1] / "src"

#: The sensor modules that hold waveforms: all but the device and specs.
WAVEFORM_MODULES = sorted(
    f"repro.sensors.{module.name}"
    for module in pkgutil.iter_modules(repro.sensors.__path__)
    if module.name not in ("base", "specs")
)
#: Modules only the DES's window compute and sensor reads may load.
DES_ONLY = ["numpy", "repro.dsp", *WAVEFORM_MODULES]

#: The long point of the analytic session: it extrapolates its cycle.
LONG_POINT = (["A2"], "batching", 7)

#: One session: import the package and the CLI, run a batch at the tier
#: given as the first argument, lint the file given as the second, then
#: print the refused points and every loaded module as JSON.
_SESSION = """
import json
import sys

import repro
import repro.cli
from repro.core import Scenario, ScenarioEngine
from repro.core.schemes import scheme_names

tier, lint_target, long_apps, long_scheme, long_windows = sys.argv[1:]
if tier == "analytic":
    points = [
        Scenario.of([app_id], scheme=scheme)
        for app_id in repro.all_ids()
        for scheme in scheme_names()
    ]
    points.append(
        Scenario.of(long_apps.split("+"), scheme=long_scheme,
                    windows=int(long_windows))
    )
else:
    points = [Scenario.of(["A2"])]
outcomes = ScenarioEngine().run_batch(points, fidelity=tier)
refused = [
    [point.name, type(outcome).__name__]
    for point, outcome in zip(points, outcomes)
    if isinstance(outcome, Exception)
]
if repro.cli.main(["lint", lint_target]) != 0:
    sys.exit("lint failed")
print(json.dumps({"refused": refused, "modules": sorted(sys.modules)}))
"""

#: A forked process pool's preload, alone.
_PRELOAD = """
import json
import sys

from repro.core.schemes.base import preload_des

preload_des()
print(json.dumps({"modules": sorted(sys.modules)}))
"""


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter; its last line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def run_session(tier):
    """One :data:`_SESSION` at ``tier``, linting ``repro/units.py``."""
    apps, scheme, windows = LONG_POINT
    return run_fresh(
        _SESSION, tier, str(SRC / "repro" / "units.py"),
        "+".join(apps), scheme, str(windows),
    )


def loaded(modules, name):
    """Whether ``name`` or any of its submodules is among ``modules``."""
    return any(
        module == name or module.startswith(name + ".") for module in modules
    )


def test_the_long_point_extrapolates():
    apps, scheme, windows = LONG_POINT
    recorder = TraceRecorder()
    analytic_scenario_result(
        Scenario.of(apps, scheme=scheme, windows=windows), obs=recorder
    )
    assert recorder.counters == {"analytic.cycles_skipped": 1}


def test_analytic_session_loads_no_numeric_stack():
    """A1-A11 under every scheme at 1 window, the long point, and a lint
    run: no numpy, no DSP, no waveform module."""
    report = run_session("analytic")
    assert report["refused"] == [["A11:com", "OffloadError"]]
    assert "repro.core.analytic.scan" in report["modules"]
    assert [name for name in DES_ONLY if loaded(report["modules"], name)] == []


def test_des_session_loads_the_numeric_stack():
    """The same session with one DES point: the boundary is real."""
    report = run_session("des")
    assert report["refused"] == []
    for name in ("numpy", "repro.dsp", "repro.sensors.accelerometer",
                 "repro.sensors.synthetic"):
        assert loaded(report["modules"], name), name


def test_preload_loads_every_des_module():
    """What a forked pool imports before it forks covers the whole
    numeric stack, so no worker imports any of it again."""
    modules = run_fresh(_PRELOAD)["modules"]
    assert [name for name in DES_ONLY if not loaded(modules, name)] == []


def test_speech_templates_build_at_first_recognition(monkeypatch):
    """Building A11 synthesizes nothing: an analytic run builds it and
    never recognizes a word.  The first recognition builds the
    vocabulary's templates, once per process: two apps at one sample
    rate share one table."""
    table = {}
    monkeypatch.setattr(speech2text, "_TEMPLATES", table)
    synthesized = []
    real_synthesize = repro.sensors.sound.synthesize_word

    def counting_synthesize(word, sample_rate_hz):
        synthesized.append(word)
        return real_synthesize(word, sample_rate_hz)

    monkeypatch.setattr(
        repro.sensors.sound, "synthesize_word", counting_synthesize
    )
    first, second = create_app("A11"), create_app("A11")
    assert first.sample_rate_hz == second.sample_rate_hz
    window = collect_window(first, waveforms={"S8": SpokenWordWaveform(["on"])})
    assert table == {} and synthesized == []
    first.compute(window)
    (templates,) = table.values()
    assert sorted(templates) == sorted(VOCABULARY)
    assert sorted(synthesized) == sorted(VOCABULARY)
    second.compute(window)
    first.compute(window)
    assert list(table) == [first.sample_rate_hz]
    assert table[first.sample_rate_hz] is templates
    assert sorted(synthesized) == sorted(VOCABULARY)

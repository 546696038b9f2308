"""The example scripts must run cleanly end to end."""

import pathlib
import runpy
import sys

from repro.core import Scenario, analytic_scenario_result, run_scenario, scheme_names
from repro.core.schemes import unregister_scheme

from .test_analytic import assert_results_match

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name, argv=()):
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


def test_examples_directory_has_at_least_three_scripts():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    assert (EXAMPLES / "quickstart.py").exists()


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "com" in out
    assert "legend" in out


def test_smart_home_hub(capsys):
    run_example("smart_home_hub.py")
    out = capsys.readouterr().out
    assert "BCOM placement decisions" in out
    assert "-> MCU" in out
    assert "complete results" in out


def test_health_monitor(capsys):
    run_example("health_monitor.py")
    out = capsys.readouterr().out
    assert "irregular=True" in out
    assert "COM saves" in out


def test_offload_advisor_fast(capsys):
    run_example("offload_advisor.py", argv=["--fast"])
    out = capsys.readouterr().out
    assert "speech2text" in out
    assert "CPU" in out and "MCU" in out


def test_field_deployment(capsys):
    run_example("field_deployment.py")
    out = capsys.readouterr().out
    assert "Deployed configuration" in out
    assert "hub power" in out
    assert "Cloud upload intact" in out


def docs_scheme_example():
    """The code block of docs/extending.md's "Adding a scheme" section."""
    text = (ROOT / "docs" / "extending.md").read_text(encoding="utf-8")
    section = text.split("## Adding a scheme — one file", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_docs_scheme_example_runs_in_both_tiers():
    before = set(scheme_names())
    exec(compile(docs_scheme_example(), "docs/extending.md", "exec"), {})
    (name,) = set(scheme_names()) - before
    try:
        # A11 fails the MCU capability check: one app per hand-off kind.
        des = run_scenario(Scenario.of(["A2", "A11"], scheme=name))
        ana = analytic_scenario_result(Scenario.of(["A2", "A11"], scheme=name))
        assert des.results_ok
        assert ana.fidelity == "analytic"
        assert_results_match(ana, des)
    finally:
        unregister_scheme(name)

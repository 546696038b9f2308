"""Whole-program lint passes: call graph, determinism chains, unit
dataflow, one parse per file and the new reporters.

The subject is the fixture mini-project under
``tests/fixtures/lint_program/`` — one seeded bug per ``program-*``
rule, one call-graph shape per resolver (direct, callback,
receiver-type, registry dispatch)."""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    SARIF_VERSION,
    build_program,
    lint_paths,
    render_sarif,
    resolve_rules,
    tokens_cover,
)
from repro.analysis.program import (
    find_impure_reaches,
    find_unit_mismatches,
    module_name_for_path,
)
from repro.analysis.rules import program as program_rules
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "lint_program"


def read_sources(root):
    """{path: source} for every .py file under ``root``."""
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in sorted(Path(root).rglob("*.py"))
    }


@pytest.fixture(scope="module")
def fixture_index():
    """Program index over the fixture mini-project (built once)."""
    return build_program(read_sources(FIXTURE))


def fixture_findings(select):
    """Lint the fixture dir with a rule selection."""
    return lint_paths([str(FIXTURE)], select=select)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_names_walk_packages(self):
        path = FIXTURE / "proj" / "sim" / "kernel.py"
        assert module_name_for_path(str(path)) == "proj.sim.kernel"

    def test_direct_cross_module_edge(self, fixture_index):
        edges = fixture_index.call_edges()
        targets = [t for t, _ in edges["proj.sim.kernel:advance"]]
        assert "proj.clocks:jitter" in targets

    def test_callback_edge_from_bare_name_argument(self, fixture_index):
        edges = fixture_index.call_edges()
        targets = [t for t, _ in edges["proj.sim.kernel:schedule"]]
        assert "proj.clocks:jitter" in targets

    def test_receiver_type_method_edge(self, fixture_index):
        edges = fixture_index.call_edges()
        targets = [t for t, _ in edges["proj.sim.kernel:sample"]]
        assert "proj.clocks:Meter.read" in targets

    def test_registry_dispatch_edge(self, fixture_index):
        edges = fixture_index.call_edges()
        targets = [t for t, _ in edges["proj.sim.kernel:dispatch"]]
        assert "proj.plugins:ThermalScheme.plan" in targets

    def test_registry_dispatch_respects_registry_kind(self, fixture_index):
        # get_scheme callers must not conjure edges into @register_backend
        # classes (the imprecision that false-positived the real tree).
        edges = fixture_index.call_edges()
        targets = [t for t, _ in edges["proj.sim.kernel:dispatch"]]
        assert "proj.plugins:SocketishBackend.create" not in targets


# ----------------------------------------------------------------------
# determinism pass
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_every_entry_reaches_the_sink(self, fixture_index):
        reaches = {r.entry: r for r in find_impure_reaches(fixture_index)}
        assert set(reaches) == {
            "proj.sim.kernel:advance",
            "proj.sim.kernel:schedule",
            "proj.sim.kernel:sample",
            "proj.sim.kernel:dispatch",
        }

    def test_chain_is_full_evidence_trail(self, fixture_index):
        reaches = {r.entry: r for r in find_impure_reaches(fixture_index)}
        dispatch = reaches["proj.sim.kernel:dispatch"]
        assert dispatch.chain == (
            "proj.sim.kernel:dispatch",
            "proj.plugins:ThermalScheme.plan",
            "proj.clocks:stamp",
        )
        assert len(dispatch.lines) == len(dispatch.chain) - 1
        assert dispatch.sink.kind == "wallclock"
        assert "time.time" in dispatch.describe()

    def test_findings_carry_chain_data(self):
        findings = fixture_findings(["program-det"])
        assert len(findings) == 4
        by_entry = {f.data["chain"][0]: f for f in findings}
        chain = by_entry["proj.sim.kernel:sample"].data["chain"]
        assert chain[1] == "proj.clocks:Meter.read"
        assert "->" in by_entry["proj.sim.kernel:sample"].message

    def test_direct_sinks_are_not_reported_here(self, fixture_index):
        # stamp() itself contains the sink but lives outside the core;
        # and no entry with a *direct* (zero-hop) sink exists — the pass
        # only reports impurity arriving through calls.
        for reach in find_impure_reaches(fixture_index):
            assert len(reach.chain) >= 2


# ----------------------------------------------------------------------
# unit dataflow pass
# ----------------------------------------------------------------------
class TestUnitsFlow:
    def test_one_mismatch_per_seam(self, fixture_index):
        # drain() is the suppressed case, tested below.
        seams = sorted(
            m.seam
            for m in find_unit_mismatches(fixture_index)
            if m.function != "proj.units_use:drain"
        )
        assert seams == ["assign", "call", "return"]

    def test_call_seam_reports_param_and_units(self):
        findings = fixture_findings(["program-units-call-mismatch"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.data["expected"] == "s"
        assert finding.data["actual"] == "ms"
        assert "timeout_s" in finding.message

    def test_return_and_assign_seams_fire(self):
        rules = sorted(
            f.rule_id for f in fixture_findings(["program-units"])
        )
        assert rules == [
            "program-units-assign-mismatch",
            "program-units-call-mismatch",
            "program-units-return-mismatch",
        ]

    def test_prefix_suppression_silences_the_family(self, fixture_index):
        # units_use.drain passes milliseconds to wait(timeout_s) on a
        # line carrying `disable=program-units`: the pass sees the
        # mismatch, and the family prefix suppresses its finding.
        drain = [
            m
            for m in find_unit_mismatches(fixture_index)
            if m.function == "proj.units_use:drain"
        ]
        assert [(m.seam, m.lineno) for m in drain] == [("call", 35)]
        findings = fixture_findings(["program-units"])
        units_use = str(FIXTURE / "proj" / "units_use.py")
        assert (units_use, 35) not in {(f.path, f.line) for f in findings}
        assert len(findings) == 3


# ----------------------------------------------------------------------
# selection and token prefixes
# ----------------------------------------------------------------------
class TestSelection:
    def test_tokens_cover_hyphen_prefixes(self):
        assert tokens_cover({"program"}, "program-det-impure-reach")
        assert tokens_cover({"program-det"}, "program-det-impure-reach")
        assert not tokens_cover({"program-det"}, "program-units-call-mismatch")
        assert not tokens_cover({"prog"}, "program-det-impure-reach")

    def test_select_program_family_picks_all_program_rules(self):
        rules = resolve_rules(select=["program"])
        ids = {rule.rule_id for rule in rules}
        assert ids == {
            "program-det-impure-reach",
            "program-units-call-mismatch",
            "program-units-return-mismatch",
            "program-units-assign-mismatch",
        }

    def test_two_segment_family_selection(self):
        findings = fixture_findings(["program-det"])
        assert {f.rule_id for f in findings} == {
            "program-det-impure-reach"
        }

    def test_no_program_flag_skips_passes(self):
        findings = lint_paths(
            [str(FIXTURE)], select=["program"], program=False
        )
        assert findings == []


# ----------------------------------------------------------------------
# one parse per file
# ----------------------------------------------------------------------
class TestOneParse:
    def test_lint_run_parses_each_file_once(self, monkeypatch):
        # The per-file rules and the module summarizer share one tree:
        # seven fixture files, seven ast.parse calls, program passes on.
        real_parse = ast.parse
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(kwargs.get("filename"))
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        findings = lint_paths([str(FIXTURE)])
        assert len(calls) == 7
        assert len(set(calls)) == 7
        assert any(f.rule_id.startswith("program-") for f in findings)

    def test_lint_run_runs_each_program_pass_once(self, monkeypatch):
        # Three program-units-* rules share one units pass.
        calls = []
        real = program_rules.find_unit_mismatches

        def counting(index):
            calls.append(index)
            return real(index)

        monkeypatch.setattr(program_rules, "find_unit_mismatches", counting)
        findings = lint_paths([str(FIXTURE)])
        assert len(calls) == 1
        rule_ids = {finding.rule_id for finding in findings}
        assert {
            "program-units-call-mismatch",
            "program-units-return-mismatch",
            "program-units-assign-mismatch",
        } <= rule_ids


# ----------------------------------------------------------------------
# CLI integration: --no-program / --out
# ----------------------------------------------------------------------
class TestCliIntegration:
    def run_json(self, capsys, *argv):
        code = main(["lint", *argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        return code, payload

    def test_no_program_drops_program_findings(self, capsys):
        code, payload = self.run_json(
            capsys, str(FIXTURE), "--no-program"
        )
        assert code == 0
        assert payload["findings"] == []

    def test_out_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["lint", str(FIXTURE), "--format", "json", "--out", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["counts"]["program-det-impure-reach"] == 4


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------
SARIF_MINI_SCHEMA = {
    # Structural subset of the SARIF 2.1.0 schema: the properties
    # GitHub code scanning requires of an uploaded log.
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "ruleId",
                                "message",
                                "locations",
                            ],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "level": {
                                    "enum": [
                                        "error",
                                        "warning",
                                        "note",
                                        "none",
                                    ]
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": [
                                            "physicalLocation"
                                        ],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def make_log(self):
        findings = fixture_findings(["program"])
        return json.loads(render_sarif(findings, files_checked=7))

    def test_log_matches_sarif_2_1_0_shape(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self.make_log(), SARIF_MINI_SCHEMA)

    def test_rule_index_points_into_rules_block(self):
        log = self.make_log()
        run = log["runs"][0]
        rules = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert log["version"] == SARIF_VERSION
        for result in run["results"]:
            assert rules[result["ruleIndex"]] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_cli_sarif_format(self, tmp_path):
        out = tmp_path / "lint.sarif"
        code = main(
            ["lint", str(FIXTURE), "--format", "sarif", "--out", str(out)]
        )
        assert code == 1
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert len(log["runs"][0]["results"]) == 7

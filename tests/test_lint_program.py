"""Whole-program lint passes: call graph, determinism chains, unit
dataflow, pickle safety, the incremental cache and the new reporters.

The subject is the fixture mini-project under
``tests/fixtures/lint_program/`` — one seeded bug per ``program-*``
rule, one call-graph shape per resolver (direct, callback,
receiver-type, registry dispatch)."""

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintCache,
    SARIF_VERSION,
    build_program,
    lint_paths,
    render_sarif,
    resolve_rules,
    tokens_cover,
)
from repro.analysis.changed import ChangedFilesError, changed_report_paths
from repro.analysis.program import (
    find_impure_reaches,
    find_pickle_hazards,
    find_unit_mismatches,
    module_name_for_path,
)
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
        seams = sorted(
            m.seam for m in find_unit_mismatches(fixture_index)
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


# ----------------------------------------------------------------------
# pickle-safety pass
# ----------------------------------------------------------------------
class TestPickleSafety:
    def test_hazard_kinds(self, fixture_index):
        kinds = sorted(
            h.kind
            for h in find_pickle_hazards(fixture_index)
            if "ship_reviewed" not in h.function
        )
        assert kinds == ["closure", "lambda", "live-handle"]

    def test_lambda_rule_fires(self):
        findings = fixture_findings(["program-pickle-lambda"])
        assert [f.line for f in findings] == [15]
        assert "lambda" in findings[0].message

    def test_capture_rule_reports_closure_and_live_handle(self):
        findings = fixture_findings(["program-pickle-unsafe-capture"])
        kinds = sorted(f.data["kind"] for f in findings)
        assert kinds == ["closure", "live-handle"]
        closure = next(
            f for f in findings if f.data["kind"] == "closure"
        )
        assert "offset" in closure.message

    def test_prefix_suppression_silences_the_family(self):
        # pool.ship_reviewed carries `disable=program-pickle` on the
        # boundary line; no pickle finding may point there.
        findings = fixture_findings(["program-pickle"])
        paths_lines = {(f.path, f.line) for f in findings}
        pool = str(FIXTURE / "proj" / "pool.py")
        assert (pool, 43) not in paths_lines
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
            "program-pickle-lambda",
            "program-pickle-unsafe-capture",
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
# incremental cache
# ----------------------------------------------------------------------
class TestIncrementalCache:
    def setup_project(self, tmp_path):
        root = tmp_path / "proj"
        shutil.copytree(FIXTURE / "proj", root)
        return root

    def test_warm_run_does_zero_reparses(self, tmp_path):
        root = self.setup_project(tmp_path)
        cache = LintCache(str(tmp_path / "cache"))
        cold = lint_paths([str(root)], cache=cache)
        assert cache.stats()["parses"] == 8
        warm_cache = LintCache(str(tmp_path / "cache"))
        warm = lint_paths([str(root)], cache=warm_cache)
        stats = warm_cache.stats()
        assert stats["parses"] == 0
        assert stats["summary_hits"] == 8
        assert stats["finding_hits"] == 8
        assert [f.to_json() for f in warm] == [f.to_json() for f in cold]

    def test_edit_invalidates_only_that_file(self, tmp_path):
        root = self.setup_project(tmp_path)
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(root)], cache=LintCache(cache_dir))
        clocks = root / "clocks.py"
        clocks.write_text(
            clocks.read_text(encoding="utf-8") + "\n\nEPOCH = 0\n",
            encoding="utf-8",
        )
        cache = LintCache(cache_dir)
        lint_paths([str(root)], cache=cache)
        assert cache.stats()["parses"] == 1

    def test_identical_content_files_keep_distinct_modules(self, tmp_path):
        # Two byte-identical files must not share a cached summary —
        # the content hash is salted with the path.
        (tmp_path / "pkg_a").mkdir()
        (tmp_path / "pkg_b").mkdir()
        body = '"""Twin module."""\n\n\ndef go():\n    """Go."""\n'
        for pkg in ("pkg_a", "pkg_b"):
            (tmp_path / pkg / "__init__.py").write_text('"""P."""\n')
            (tmp_path / pkg / "mod.py").write_text(body)
        cache = LintCache(str(tmp_path / "cache"))
        lint_paths([str(tmp_path / "pkg_a"), str(tmp_path / "pkg_b")],
                   cache=cache)
        warm = LintCache(str(tmp_path / "cache"))
        index = build_program(
            read_sources(tmp_path / "pkg_a")
            | read_sources(tmp_path / "pkg_b"),
            cache=warm,
        )
        assert warm.stats()["parses"] == 0
        assert {"pkg_a.mod", "pkg_b.mod"} <= set(index.modules)

    def test_ruleset_change_reuses_summaries(self, tmp_path):
        root = self.setup_project(tmp_path)
        cache_dir = str(tmp_path / "cache")
        lint_paths([str(root)], cache=LintCache(cache_dir))
        cache = LintCache(cache_dir)
        # Different per-file ruleset -> findings cache misses, but the
        # summaries (ruleset-independent) still serve the program pass.
        lint_paths([str(root)], select=["program", "units"], cache=cache)
        assert cache.stats()["summary_hits"] == 8


# ----------------------------------------------------------------------
# CLI integration: --cache / --no-program / --out
# ----------------------------------------------------------------------
class TestCliIntegration:
    def run_json(self, capsys, *argv):
        code = main(["lint", *argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        return code, payload

    def test_cache_flag_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        target = str(FIXTURE)
        code, cold = self.run_json(capsys, target, "--cache", cache_dir)
        assert code == 1
        assert cold["cache"]["parses"] == 8
        code, warm = self.run_json(capsys, target, "--cache", cache_dir)
        assert warm["cache"]["parses"] == 0
        assert warm["counts"] == cold["counts"]

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
        return json.loads(render_sarif(findings, files_checked=8))

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
        assert len(log["runs"][0]["results"]) == 10


# ----------------------------------------------------------------------
# --changed: git base + reverse-dependency closure
# ----------------------------------------------------------------------
def git(repo, *argv):
    """Run git in ``repo`` with a hermetic identity."""
    subprocess.run(
        ["git", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


class TestChanged:
    def make_repo(self, tmp_path):
        repo = tmp_path / "work"
        pkg = repo / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text('"""P."""\n')
        (pkg / "units.py").write_text(
            '"""Base units."""\n\n\ndef ms(v):\n    """Ms."""\n'
            "    return v / 1e3\n"
        )
        (pkg / "engine.py").write_text(
            '"""Engine imports units."""\n\nfrom .units import ms\n\n\n'
            'def run():\n    """Run."""\n    return ms(5)\n'
        )
        (pkg / "island.py").write_text(
            '"""Imports nothing."""\n\n\ndef idle():\n    """Idle."""\n'
        )
        git(repo, "init", "-q")
        git(repo, "add", ".")
        git(repo, "commit", "-qm", "seed")
        return repo

    def test_closure_includes_reverse_importers(self, tmp_path):
        repo = self.make_repo(tmp_path)
        units = repo / "pkg" / "units.py"
        units.write_text(
            units.read_text(encoding="utf-8") + "\n\nSCALE = 1\n",
            encoding="utf-8",
        )
        reported = changed_report_paths(
            "HEAD", [str(repo / "pkg")], repo_root=str(repo)
        )
        names = sorted(Path(p).name for p in reported)
        assert "units.py" in names      # the change itself
        assert "engine.py" in names     # imports units -> re-linted
        assert "island.py" not in names  # untouched, not an importer

    def test_clean_tree_reports_nothing(self, tmp_path):
        repo = self.make_repo(tmp_path)
        reported = changed_report_paths(
            "HEAD", [str(repo / "pkg")], repo_root=str(repo)
        )
        assert reported == []

    def test_bad_base_ref_raises(self, tmp_path):
        repo = self.make_repo(tmp_path)
        with pytest.raises(ChangedFilesError):
            changed_report_paths(
                "no-such-ref", [str(repo / "pkg")], repo_root=str(repo)
            )

    def test_cli_changed_bad_ref_exits_2(self, capsys):
        code = main(
            ["lint", str(FIXTURE), "--changed", "no-such-ref-xyz"]
        )
        capsys.readouterr()
        assert code == 2

    def test_report_paths_filter_restricts_findings(self):
        pool = str(FIXTURE / "proj" / "pool.py")
        findings = lint_paths(
            [str(FIXTURE)], select=["program"], report_paths=[pool]
        )
        assert findings  # pickle findings live in pool.py
        assert {f.path for f in findings} == {pool}

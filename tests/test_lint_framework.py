"""Framework-level behavior of ``repro lint``: suppression comments,
rule selection, reporters, CLI plumbing — and the meta-test pinning the
shipped tree lint-clean."""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import (
    JSON_SCHEMA_VERSION,
    LintConfigError,
    Severity,
    all_rules,
    exit_code,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    resolve_rules,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

BAD_UNITS = "x = duration_s * 1e3\n"


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def test_rule_id_suppresses_the_line(self):
        src = "x = duration_s * 1e3  # repro-lint: disable=units-magic-literal\n"
        assert lint_source(src) == []

    def test_family_token_suppresses(self):
        src = "x = duration_s * 1e3  # repro-lint: disable=units\n"
        assert lint_source(src) == []

    def test_all_token_suppresses(self):
        src = "raise KeyError('x')  # repro-lint: disable=all\n"
        assert lint_source(src) == []

    def test_unrelated_token_does_not_suppress(self):
        src = "x = duration_s * 1e3  # repro-lint: disable=det-wallclock\n"
        assert [f.rule_id for f in lint_source(src)] == [
            "units-magic-literal"
        ]

    def test_suppression_is_per_line(self):
        src = (
            "a = duration_s * 1e3  # repro-lint: disable=units\n"
            "b = duration_s * 1e3\n"
        )
        findings = lint_source(src)
        assert [(f.rule_id, f.line) for f in findings] == [
            ("units-magic-literal", 2)
        ]

    def test_multiple_tokens(self):
        src = (
            "raise KeyError(str(duration_s * 1e3))"
            "  # repro-lint: disable=units-magic-literal,err-raise-foreign\n"
        )
        assert lint_source(src) == []


# ----------------------------------------------------------------------
# rule selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_select_restricts_to_family(self):
        src = "raise KeyError(str(duration_s * 1e3))\n"
        findings = lint_source(src, select=["err"])
        assert [f.rule_id for f in findings] == ["err-raise-foreign"]

    def test_ignore_drops_a_rule(self):
        findings = lint_source(BAD_UNITS, ignore=["units-magic-literal"])
        assert findings == []

    def test_unknown_token_raises(self):
        with pytest.raises(LintConfigError):
            resolve_rules(select=["no-such-rule"])

    def test_every_family_has_rules(self):
        families = {cls().family for cls in all_rules().values()}
        assert {"units", "det", "err", "docs"} <= families


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_report_rows_and_summary(self):
        findings = lint_source(BAD_UNITS, path="pkg/mod.py")
        text = render_text(findings, files_checked=1)
        assert "pkg/mod.py:1:5: units-magic-literal [error]" in text
        assert "1 file checked: 1 error(s), 0 warning(s)" in text

    def test_json_schema(self):
        findings = lint_source(BAD_UNITS, path="pkg/mod.py")
        payload = json.loads(render_json(findings, files_checked=3))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 3
        assert payload["counts"] == {"units-magic-literal": 1}
        (finding,) = payload["findings"]
        assert finding["path"] == "pkg/mod.py"
        assert finding["line"] == 1
        assert finding["col"] == 5
        assert finding["rule"] == "units-magic-literal"
        assert finding["severity"] == "error"
        assert "units.to_ms()" in finding["message"]

    def test_exit_code_semantics(self):
        findings = lint_source(BAD_UNITS)
        assert exit_code(findings) == 1
        assert exit_code([]) == 0
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([str(bad)])
        assert [f.rule_id for f in findings] == ["parse-error"]
        assert exit_code(findings) == 1

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b'# -*- coding: latin-1 -*-\nname = "caf\xe9"\n')
        assert lint_file(str(latin)) == []
        assert lint_paths([str(tmp_path)]) == []
        assert main(["lint", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "source",
        [
            b'a = 1\nb = 2\nname = "caf\xe9"\n',
            b"# -*- coding: klingon -*-\nname = 1\n",
        ],
        ids=["bad-bytes", "unknown-cookie"],
    )
    def test_undecodable_file_is_a_parse_error(self, tmp_path, source):
        bad = tmp_path / "bad.py"
        bad.write_bytes(source)
        for findings in (lint_file(str(bad)), lint_paths([str(bad)])):
            assert [f.rule_id for f in findings] == ["parse-error"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestLintCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(BAD_UNITS)
        assert main(["lint", str(dirty)]) == 1
        assert "units-magic-literal" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(BAD_UNITS)
        assert main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"units-magic-literal": 1}

    def test_select_and_ignore(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(BAD_UNITS)
        assert main(["lint", str(dirty), "--select", "err"]) == 0
        assert (
            main(["lint", str(dirty), "--ignore", "units-magic-literal"])
            == 0
        )
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), "--select", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_directory_walk_skips_pycache(self, tmp_path, capsys):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / "__pycache__" / "junk.py").write_text(BAD_UNITS)
        (package / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(package)]) == 0
        capsys.readouterr()

    def test_overlapping_paths_lint_a_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        package = tmp_path / "pkg"
        package.mkdir()
        module = package / "mod.py"
        module.write_text(BAD_UNITS)
        alone = lint_paths([str(package)])
        assert len(alone) == 1
        assert lint_paths([str(package), str(module)]) == alone
        # Relative, dotted and absolute spellings of one file count once.
        monkeypatch.chdir(tmp_path)
        spelled = os.path.join("pkg", ".", "mod.py")
        assert main(["lint", "pkg", spelled, str(module)]) == 1
        out = capsys.readouterr().out
        assert out.count("units-magic-literal") == 1
        assert "1 file checked: 1 error(s), 0 warning(s)" in out


# ----------------------------------------------------------------------
# the repo itself
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_repro_lint_src_exits_zero(self, capsys):
        """Acceptance: the shipped tree is lint-clean under its own linter."""
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        capsys.readouterr()

    def test_every_rule_family_fires_somewhere(self):
        """Each family detects a deliberately-injected violation."""
        doc = '"""Doc."""\n'
        injected = {
            "units": (doc + "x = duration_s * 1e3\n", "src/repro/any.py"),
            "det": (
                doc + "import time\nt = time.time()\n",
                "src/repro/sim/any.py",
            ),
            "err": (doc + "raise RuntimeError('x')\n", "src/repro/any.py"),
            "docs": ("def helper():\n    return 1\n", "src/repro/any.py"),
        }
        for family, (source, path) in injected.items():
            findings = lint_source(source, path)
            assert findings, f"{family} fixture produced no findings"
            assert all(f.rule_id.startswith(family) for f in findings)

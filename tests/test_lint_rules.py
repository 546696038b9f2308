"""Per-rule fixtures for ``repro lint``: known-bad code is flagged,
known-good code is not, and path scoping gates the scoped families."""

import textwrap

import pytest

from repro.analysis import lint_source

#: Paths that put fixtures inside / outside the scoped directories.
SIM_PATH = "src/repro/sim/fixture.py"
SCHEME_PATH = "src/repro/core/schemes/fixture.py"
NEUTRAL_PATH = "src/repro/hubos/fixture.py"


def rule_ids(source, path=NEUTRAL_PATH, **kwargs):
    # Fixtures are bare snippets; the module-docstring rule has its own
    # test class below and would otherwise fire on every one of them.
    kwargs.setdefault("ignore", ["docs-missing-module-docstring"])
    return [
        finding.rule_id
        for finding in lint_source(textwrap.dedent(source), path, **kwargs)
    ]


# ----------------------------------------------------------------------
# units-discipline
# ----------------------------------------------------------------------
class TestUnitsMagicLiteral:
    @pytest.mark.parametrize(
        "snippet",
        [
            "x = duration_s * 1e3",
            "x = 1e3 * duration_s",
            "x = interval_us * 1e-6",
            "x = result.total_j * 1e3",
            "x = obj.deadline_s * 1000",
            "x = now / 1e-3",
            "x = profile.cpu_compute_time_s(cal) * 1e3",
            "x = mcu_time * 1e3",
        ],
    )
    def test_flags_inline_scale_arithmetic(self, snippet):
        assert rule_ids(snippet) == ["units-magic-literal"]

    def test_flags_magic_seconds_literal(self):
        assert rule_ids("timeout_s = 0.0016") == ["units-magic-literal"]
        assert rule_ids("f(window_s=0.05)") == ["units-magic-literal"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "x = to_ms(duration_s)",
            "timeout_s = ms(1.6)",
            "window_s = 1.0",
            "x = mips * 1e6",  # rate scaling, not a time/energy unit
            "ok = value > 1e-9",  # tolerance comparison
            "x = 1e-3 / duration_s",  # not a conversion
            "eps = 1e-12 * max(1.0, abs(mean))",
        ],
    )
    def test_clean_code_passes(self, snippet):
        assert rule_ids(snippet) == []

    def test_suggests_the_right_helper(self):
        doc = '"""Doc."""\n'
        findings = lint_source(doc + "x = interval_us * 1e-6", NEUTRAL_PATH)
        assert "units.us()" in findings[0].message
        findings = lint_source(doc + "x = total_j * 1e3", NEUTRAL_PATH)
        assert "units.to_mj()" in findings[0].message


class TestUnitsFloatEq:
    def test_flags_exact_equality_on_quantities(self):
        assert rule_ids("ok = start_s == end_s") == ["units-float-eq"]
        assert rule_ids("ok = a.energy_j != b.energy_j") == [
            "units-float-eq"
        ]

    def test_nan_guard_idiom_is_allowed(self):
        assert rule_ids("bad = time != time") == []

    def test_ordering_comparisons_are_allowed(self):
        assert rule_ids("ok = start_s <= end_s") == []


# ----------------------------------------------------------------------
# determinism (scoped to sim/, hw/, core/schemes/)
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize(
        "snippet,rule",
        [
            ("import time\nt = time.time()", "det-wallclock"),
            ("import time\nt = time.perf_counter()", "det-wallclock"),
            (
                "from time import perf_counter\nt = perf_counter()",
                "det-wallclock",
            ),
            (
                "from datetime import datetime\nt = datetime.now()",
                "det-wallclock",
            ),
            ("import random\nx = random.random()", "det-unseeded-random"),
            ("import random\nr = random.Random()", "det-unseeded-random"),
            (
                "import numpy as np\nrng = np.random.default_rng()",
                "det-unseeded-random",
            ),
            (
                "import numpy as np\nx = np.random.rand(3)",
                "det-unseeded-random",
            ),
            ("import uuid\nx = uuid.uuid4()", "det-unseeded-random"),
            ("for x in {1, 2, 3}:\n    pass", "det-set-order"),
            ("xs = list(set(items))", "det-set-order"),
            ("xs = [y for y in set(items)]", "det-set-order"),
            ("s = ', '.join({str(x) for x in items})", "det-set-order"),
        ],
    )
    def test_flags_inside_sim(self, snippet, rule):
        assert rule in rule_ids(snippet, path=SIM_PATH)

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nr = random.Random(7)",
            "import numpy as np\nrng = np.random.default_rng(42)",
            "xs = sorted(set(items))",
            "ok = 3 in {1, 2, 3}",  # membership, not iteration
            "n = len(set(items))",
        ],
    )
    def test_clean_inside_sim(self, snippet):
        assert rule_ids(snippet, path=SIM_PATH) == []

    def test_not_scoped_outside_simulation_dirs(self):
        snippet = "import time\nt = time.perf_counter()"
        assert rule_ids(snippet, path=NEUTRAL_PATH) == []
        assert "det-wallclock" in rule_ids(
            snippet, path="src/repro/hw/fixture.py"
        )
        assert "det-wallclock" in rule_ids(snippet, path=SCHEME_PATH)


# ----------------------------------------------------------------------
# error-surface
# ----------------------------------------------------------------------
class TestErrorSurface:
    @pytest.mark.parametrize(
        "snippet",
        [
            "raise KeyError('missing')",
            "raise RuntimeError('boom')",
            "raise Exception('anything')",
            "raise OSError(2, 'no such file')",
        ],
    )
    def test_flags_runtime_builtins(self, snippet):
        assert rule_ids(snippet) == ["err-raise-foreign"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "raise WorkloadError('inconsistent scenario')",
            "raise ValueError('bad argument')",  # programming error
            "raise NotImplementedError",
            "raise AssertionError('unreachable')",
        ],
    )
    def test_repro_and_programming_errors_pass(self, snippet):
        assert rule_ids(snippet) == []

    def test_flags_swallowing_broad_except(self):
        bad = """
        try:
            risky()
        except Exception:
            pass
        """
        assert rule_ids(bad) == ["err-swallowed-exception"]
        bare = """
        try:
            risky()
        except:
            log()
        """
        assert rule_ids(bare) == ["err-swallowed-exception"]

    def test_broad_except_that_reraises_is_allowed(self):
        wrap = """
        try:
            risky()
        except Exception as exc:
            raise WorkloadError(str(exc)) from exc
        """
        assert rule_ids(wrap) == []
        cleanup = """
        try:
            risky()
        except BaseException:
            undo()
            raise
        """
        assert rule_ids(cleanup) == []

    def test_narrow_except_is_allowed(self):
        ok = """
        try:
            risky()
        except (OSError, EOFError):
            pass
        """
        assert rule_ids(ok) == []


# ----------------------------------------------------------------------
# scheme-contract (scoped to core/schemes/ plugin modules)
# ----------------------------------------------------------------------
GOOD_SCHEME = """
from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("myscheme")
class MyScheme(SchemeExecutor):
    \"\"\"A well-behaved plugin.\"\"\"

    def plan(self, scenario):
        \"\"\"Declare the scheme.\"\"\"
        return SchemePlan(family="buffered", batch_apps=list(scenario.apps))
"""


class TestSchemeContract:
    def test_good_plugin_module_passes(self):
        assert rule_ids(GOOD_SCHEME, path=SCHEME_PATH) == []

    def test_module_without_registration_is_flagged(self):
        src = "def helper():\n    \"\"\"Docstring.\"\"\"\n    return 1"
        assert rule_ids(src, path=SCHEME_PATH) == ["scheme-one-per-module"]

    def test_second_registration_is_flagged(self):
        src = GOOD_SCHEME + textwrap.dedent(
            """
            @register_scheme("another")
            class Another(SchemeExecutor):
                def plan(self, scenario):
                    pass
            """
        )
        assert "scheme-one-per-module" in rule_ids(src, path=SCHEME_PATH)

    def test_missing_plan_is_flagged(self):
        src = """
        @register_scheme("broken")
        class Broken(SchemeExecutor):
            \"\"\"Declares nothing.\"\"\"
        """
        assert "scheme-missing-plan" in rule_ids(src, path=SCHEME_PATH)

    def test_plan_inherited_from_concrete_scheme_is_allowed(self):
        src = """
        @register_scheme("shared")
        class Shared(BaselineScheme):
            \"\"\"Inherits plan() from baseline.\"\"\"
        """
        assert rule_ids(src, path=SCHEME_PATH) == []

    def test_unregistered_base_class_is_flagged(self):
        src = """
        @register_scheme("floating")
        class Floating:
            def plan(self, scenario):
                pass
        """
        assert "scheme-missing-plan" in rule_ids(src, path=SCHEME_PATH)

    def test_stale_knob_is_flagged(self):
        # Executors read no class knob but ``name``: a leftover start-state
        # knob would silently do nothing, so it is an error.
        src = GOOD_SCHEME.replace(
            "    def plan(", "    cpu_starts_awake = True\n\n    def plan("
        )
        findings = lint_source(
            '"""Doc."""\n' + textwrap.dedent(src), SCHEME_PATH
        )
        assert [f.rule_id for f in findings] == ["scheme-unknown-knob"]
        assert "cpu_starts_awake" in findings[0].message

    def test_plumbing_modules_are_exempt(self):
        src = "def helper():\n    \"\"\"Docstring.\"\"\"\n    return 1"
        for name in ("base.py", "registry.py", "__init__.py"):
            path = f"src/repro/core/schemes/{name}"
            assert rule_ids(src, path=path) == []

    def test_not_scoped_outside_schemes(self):
        src = "def helper():\n    \"\"\"Docstring.\"\"\"\n    return 1"
        assert rule_ids(src, path=NEUTRAL_PATH) == []


# ----------------------------------------------------------------------
# backend-contract (scoped to core/backends/ modules)
# ----------------------------------------------------------------------
BACKEND_PATH = "src/repro/core/backends/fixture.py"

GOOD_BACKEND = '''
from .base import ExecutionBackend, run_chunk
from .registry import register_backend


@register_backend("twin")
class TwinBackend(ExecutionBackend):
    """A well-behaved backend plugin."""

    def submit_batch(self, fn, items, chunk_size=None, labels=None):
        """Run everything inline."""
        return run_chunk(fn, list(items), 0, labels)
'''


class TestBackendContract:
    def test_good_plugin_module_passes(self):
        assert rule_ids(GOOD_BACKEND, path=BACKEND_PATH) == []

    def test_module_without_registration_is_flagged(self):
        src = "def helper():\n    \"\"\"Docstring.\"\"\"\n    return 1"
        assert rule_ids(src, path=BACKEND_PATH) == ["backend-one-per-module"]

    def test_second_registration_is_flagged(self):
        src = GOOD_BACKEND + textwrap.dedent(
            """
            @register_backend("another")
            class Another(TwinBackend):
                \"\"\"A second registration in the same file.\"\"\"
            """
        )
        assert "backend-one-per-module" in rule_ids(src, path=BACKEND_PATH)

    def test_missing_submit_batch_is_flagged(self):
        src = """
        @register_backend("broken")
        class Broken(ExecutionBackend):
            \"\"\"Forgets the one required hook.\"\"\"

            parallel = False
        """
        assert "backend-missing-submit" in rule_ids(src, path=BACKEND_PATH)

    def test_submit_inherited_from_concrete_backend_is_allowed(self):
        src = """
        @register_backend("shared")
        class Shared(SerialBackend):
            \"\"\"Inherits submit_batch() from the serial backend.\"\"\"

            parallel = False
        """
        assert rule_ids(src, path=BACKEND_PATH) == []

    def test_unregistered_base_class_is_flagged(self):
        src = """
        @register_backend("floating")
        class Floating:
            \"\"\"Subclasses nothing.\"\"\"

            def submit_batch(self, fn, items, chunk_size=None, labels=None):
                \"\"\"Inline.\"\"\"
                return []
        """
        assert "backend-missing-submit" in rule_ids(src, path=BACKEND_PATH)


# ----------------------------------------------------------------------
# docs (scoped to anything under a repro/ directory)
# ----------------------------------------------------------------------
class TestDocsMissingDocstring:
    def test_flags_public_function_without_docstring(self):
        findings = lint_source(
            '"""Doc."""\ndef helper():\n    return 1', NEUTRAL_PATH
        )
        assert [f.rule_id for f in findings] == ["docs-missing-docstring"]
        assert "'helper'" in findings[0].message

    def test_flags_public_class_and_method(self):
        src = '''
        """Doc."""
        class Widget:
            def spin(self):
                return 1
        '''
        findings = lint_source(textwrap.dedent(src), NEUTRAL_PATH)
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("class 'Widget'" in m for m in messages)
        assert any("'Widget.spin'" in m for m in messages)

    def test_documented_code_passes(self):
        src = '''
        class Widget:
            """A documented class."""

            def spin(self):
                """A documented method."""
                return 1


        def helper():
            """A documented function."""
            return 1
        '''
        assert rule_ids(src) == []

    def test_private_names_are_exempt(self):
        src = """
        def _internal():
            return 1


        class _Hidden:
            def also_hidden(self):
                return 1
        """
        assert rule_ids(src) == []

    def test_property_setter_is_exempt(self):
        src = '''
        class Widget:
            """Documented."""

            @property
            def size(self):
                """The getter carries the doc."""
                return self._size

            @size.setter
            def size(self, value):
                self._size = value
        '''
        assert rule_ids(src) == []

    def test_nested_functions_are_exempt(self):
        src = '''
        def outer():
            """Documented."""
            def inner():
                return 1
            return inner
        '''
        assert rule_ids(src) == []

    def test_suppression_comment_is_honored(self):
        src = "def helper():  # repro-lint: disable=docs-missing-docstring\n"
        src += "    return 1"
        assert rule_ids(src) == []

    def test_not_scoped_outside_repro(self):
        assert rule_ids("def helper():\n    return 1", path="tools/x.py") == []


class TestDocsMissingModuleDocstring:
    def module_ids(self, source, path=NEUTRAL_PATH):
        return rule_ids(source, path=path, ignore=())

    def test_flags_public_module_without_docstring(self):
        findings = lint_source("x = 1\n", NEUTRAL_PATH)
        assert [f.rule_id for f in findings] == [
            "docs-missing-module-docstring"
        ]
        assert "fixture.py" in findings[0].message

    def test_documented_module_passes(self):
        assert self.module_ids('"""Doc."""\nx = 1\n') == []

    def test_package_init_is_covered(self):
        path = "src/repro/serve/__init__.py"
        assert self.module_ids("x = 1\n", path=path) == [
            "docs-missing-module-docstring"
        ]

    def test_private_module_is_exempt(self):
        path = "src/repro/hubos/_internal.py"
        assert self.module_ids("x = 1\n", path=path) == []

    def test_not_scoped_outside_repro(self):
        assert self.module_ids("x = 1\n", path="tools/x.py") == []

"""The visitor framework behind ``repro lint``.

One parse, one walk: every file is parsed to an :mod:`ast` tree once and
each node is dispatched to every active :class:`Rule` that declares a
``visit_<NodeType>`` handler — rules never re-walk the tree themselves.
Rules that check the module as a whole (e.g. "a public module has a
docstring") implement ``finish_module``.

Inline suppression mirrors the familiar linter convention::

    risky_line()  # repro-lint: disable=det-wallclock
    other_line()  # repro-lint: disable=units,err-raise-foreign
    anything()    # repro-lint: disable=all

A token suppresses a finding on that line when it is ``all``, the
finding's full rule id, or the rule's family (the prefix before the
first ``-``).
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from pathlib import PurePath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

from ..errors import ReproError
from .findings import Finding, Severity

#: Matches one inline suppression comment anywhere in a physical line.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s-]+)")

#: Rule id reserved for files the parser rejects.
PARSE_ERROR_RULE = "parse-error"


def tokens_cover(tokens: Set[str], rule_id: str) -> bool:
    """Whether a suppression/selection token set covers ``rule_id``.

    A token covers the id when it is ``all``, the exact id, or a prefix
    of it ending at a ``-`` boundary (so ``units`` and ``program-det``
    both act as families).
    """
    if "all" in tokens or rule_id in tokens:
        return True
    parts = rule_id.split("-")
    return any(
        "-".join(parts[:depth]) in tokens
        for depth in range(1, len(parts))
    )


class LintConfigError(ReproError):
    """An unknown rule id was passed to ``--select`` / ``--ignore``."""


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to their suppression tokens."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            tokens = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
            if tokens:
                suppressions[lineno] = tokens
    return suppressions


class FileContext:
    """Everything one lint pass over one file shares with its rules."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.suppressions = parse_suppressions(source)
        self.findings: List[Finding] = []
        self._parts = PurePath(path).parts

    # -- path scoping --------------------------------------------------
    @property
    def filename(self) -> str:
        """The path's final component (``base.py`` for any directory)."""
        return self._parts[-1] if self._parts else self.path

    def in_dirs(self, names: Iterable[str]) -> bool:
        """True when any of ``names`` is a directory component of the path."""
        directories = self._parts[:-1]
        return any(name in directories for name in names)

    # -- emission ------------------------------------------------------
    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when a ``# repro-lint: disable=`` comment covers the line.

        A suppression token matches the exact rule id, any hyphen-
        boundary prefix of it (``units`` covers ``units-float-eq``;
        ``program-det`` covers ``program-det-impure-reach``), or the
        catch-all ``all``.
        """
        tokens = self.suppressions.get(line)
        if not tokens:
            return False
        return tokens_cover(tokens, rule_id)

    def emit(self, finding: Finding) -> None:
        """Record a finding unless an inline suppression covers it."""
        if not self.suppressed(finding.rule_id, finding.line):
            self.findings.append(finding)


class Rule:
    """Base class for lint rules.

    Subclass, set the class attributes, implement ``visit_<NodeType>``
    handlers (and/or the module hooks) and decorate with
    :func:`register_rule`.  Handlers receive ``(ctx, node)`` and report
    through :meth:`emit`.
    """

    #: Unique id, ``<family>-<slug>`` (e.g. ``units-magic-literal``).
    rule_id: str = ""
    #: One-line description for ``repro lint --list-rules`` and the docs.
    description: str = ""
    #: Findings at ERROR fail the run; WARNING findings only report.
    severity: Severity = Severity.ERROR
    #: Whole-program rules run over the project index, not per file.
    is_program: bool = False

    @property
    def family(self) -> str:
        """The rule id's leading segment (``units``, ``det``, ...)."""
        return self.rule_id.split("-", 1)[0]

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path scoping)."""
        return True

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Hook after the walk: emit module-level findings here."""

    def emit(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        **data: object,
    ) -> None:
        """Report a finding at ``node``'s location with this rule's id."""
        ctx.emit(
            Finding(
                path=ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
                data=dict(data),
            )
        )


class ProgramRule(Rule):
    """Base class for whole-program rules.

    These run once per lint invocation over the assembled
    :class:`~repro.analysis.program.graph.ProgramIndex` instead of file
    by file; subclasses implement :meth:`check_program` and report
    findings with full cross-module evidence.  Selection, suppression
    and reporting work exactly like per-file rules — the two-segment
    prefix (``program-det``, ``program-units``) acts as the family.
    """

    is_program = True

    @property
    def family(self) -> str:
        """Two leading segments (``program-det``), not just ``program``."""
        return "-".join(self.rule_id.split("-")[:2])

    def check_program(self, index: object) -> List[Finding]:
        """Evaluate the rule over a ProgramIndex; return findings."""
        raise NotImplementedError

    def finding(
        self,
        path: str,
        line: int,
        message: str,
        **data: object,
    ) -> Finding:
        """Build a finding at an explicit location (no AST node here)."""
        return Finding(
            path=path,
            line=line,
            col=1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            data=dict(data),
        )


#: Registration-ordered rule classes (order defines report grouping).
_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise LintConfigError(f"rule {cls.__name__} has no rule_id")
    existing = _RULES.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise LintConfigError(
            f"rule id {cls.rule_id!r} already registered by "
            f"{existing.__name__}"
        )
    _RULES[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules by id, in registration order."""
    _load_builtin_rules()
    return dict(_RULES)


def _load_builtin_rules() -> None:
    # Deferred so framework.py can be imported from the rule modules.
    from . import rules as _rules  # noqa: F401


def _match_tokens(tokens: Sequence[str]) -> Set[str]:
    """Expand select/ignore tokens to rule ids.

    A token is a full rule id or any hyphen-boundary prefix acting as a
    family (``units``, ``program``, ``program-det``).
    """
    known = all_rules()
    matched: Set[str] = set()
    for token in tokens:
        covered = {
            rule_id
            for rule_id in known
            if tokens_cover({token}, rule_id)
        }
        if not covered:
            families = {cls().family for cls in known.values()}
            choices = ", ".join(sorted(set(known) | families))
            raise LintConfigError(
                f"unknown rule or family {token!r} (known: {choices})"
            )
        matched |= covered
    return matched


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instantiate the active rule set for one run."""
    active = set(all_rules())
    if select:
        active = _match_tokens(select)
    if ignore:
        active -= _match_tokens(ignore)
    return [
        cls() for rule_id, cls in all_rules().items() if rule_id in active
    ]


class _Walker(ast.NodeVisitor):
    """Dispatches every node to each rule's ``visit_<NodeType>`` handler."""

    def __init__(self, ctx: FileContext, rules: Sequence[Rule]):
        self.ctx = ctx
        self._handlers: Dict[str, List] = {}
        for rule in rules:
            for name in dir(rule):
                if name.startswith("visit_"):
                    self._handlers.setdefault(name, []).append(
                        getattr(rule, name)
                    )

    def visit(self, node: ast.AST) -> None:
        for handler in self._handlers.get(
            f"visit_{type(node).__name__}", ()
        ):
            handler(self.ctx, node)
        self.generic_visit(node)


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    """The reserved ``parse-error`` finding for an unparsable file."""
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) or 1,
        rule_id=PARSE_ERROR_RULE,
        severity=Severity.ERROR,
        message=f"file does not parse: {exc.msg}",
    )


def _read_source(path: str) -> str:
    """``path``'s text, decoded as its coding cookie declares; an unknown
    cookie or undecodable bytes raise :class:`SyntaxError`."""
    try:
        with tokenize.open(path) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise SyntaxError(f"cannot decode as {exc.encoding}: {exc.reason}") from None


def _run_file_rules(
    ctx: FileContext, tree: ast.Module, rules: Sequence[Rule]
) -> List[Finding]:
    """Run per-file rules over one parsed tree; findings sorted."""
    active = [rule for rule in rules if rule.applies_to(ctx)]
    _Walker(ctx, active).visit(tree)
    for rule in active:
        rule.finish_module(ctx, tree)
    return sorted(ctx.findings, key=lambda finding: finding.sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one source text with the per-file rules, sorted by location.

    Whole-program rules need the full project and are skipped here —
    use :func:`lint_paths` (or ``build_program`` directly) for them.
    """
    ctx = FileContext(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_error_finding(path, exc)]
    rules = [
        rule
        for rule in resolve_rules(select, ignore)
        if not rule.is_program
    ]
    return _run_file_rules(ctx, tree, rules)


def lint_file(
    path: str,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file on disk with the per-file rules."""
    return lint_paths([path], select=select, ignore=ignore, program=False)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  A file reached by several arguments
    (``pkg pkg/mod.py``) is yielded once, at its first occurrence, as
    judged by its normalized absolute path.  Missing paths raise
    :class:`LintConfigError` rather than silently linting nothing.
    """
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            found: Iterable[str] = [path]
        elif os.path.isdir(path):
            found = _walk_python_files(path)
        else:
            raise LintConfigError(f"no such file or directory: {path!r}")
        for file_path in found:
            key = os.path.abspath(file_path)
            if key not in seen:
                seen.add(key)
                yield file_path


def _walk_python_files(directory: str) -> Iterator[str]:
    """Walk one directory argument of :func:`iter_python_files`."""
    for root, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(
            name
            for name in dirnames
            if name != "__pycache__" and not name.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(root, filename)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    program: bool = True,
) -> List[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location.

    Each file is read and parsed once: the per-file rules walk the
    tree, and when ``program`` is true and any whole-program rule is
    active, the same tree is summarized.  The ``program-*`` passes then
    run over the :class:`~repro.analysis.program.graph.ProgramIndex`
    assembled from those summaries.
    """
    # Deferred import: program.* modules import this framework.
    from .program.graph import ProgramIndex, module_name_for_path
    from .program.summaries import ModuleSummary, summarize_module

    rules = resolve_rules(select, ignore)
    file_rules = [rule for rule in rules if not rule.is_program]
    program_rules = [rule for rule in rules if rule.is_program]
    run_program = program and bool(program_rules)
    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    for path in iter_python_files(paths):
        try:
            source = _read_source(path)
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(_parse_error_finding(path, exc))
            continue
        ctx = FileContext(path, source)
        findings.extend(_run_file_rules(ctx, tree, file_rules))
        if run_program:
            summaries.append(
                summarize_module(
                    tree, module_name_for_path(path), path, source
                )
            )
    if run_program:
        index = ProgramIndex(summaries)
        for rule in program_rules:
            for finding in rule.check_program(index):
                tokens = index.suppression_tokens(
                    finding.path, finding.line
                )
                if not tokens_cover(tokens, finding.rule_id):
                    findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)

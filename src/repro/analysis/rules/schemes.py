"""Scheme-contract rules.

Modules under ``core/schemes/`` are plugins: one file, one
``@register_scheme`` class whose ``plan`` returns the scheme's
:class:`~repro.core.schemes.base.SchemePlan`.  These rules pin the
contract documented in ``docs/extending.md``: every plugin module
registers exactly one scheme, the registered class actually subclasses
:class:`SchemeExecutor` and provides ``plan``, and it sets no class
attribute but ``name`` — everything else a scheme decides lives in its
plan.
"""

from __future__ import annotations

import ast
from typing import List

from ..framework import FileContext, Rule, register_rule

#: Plumbing modules inside core/schemes/ that are not plugins.
NON_PLUGIN_FILES = frozenset({"base.py", "registry.py", "__init__.py"})

#: Class-level attributes a SchemeExecutor subclass may set.
EXECUTOR_KNOBS = frozenset({"name"})


def _is_register_decorator(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "register_scheme"
    if isinstance(func, ast.Attribute):
        return func.attr == "register_scheme"
    return False


def _registered_classes(tree: ast.Module) -> List[ast.ClassDef]:
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(_is_register_decorator(dec) for dec in node.decorator_list)
    ]


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


class SchemeModuleRule(Rule):
    """Base: only runs on plugin modules under a ``schemes`` directory."""

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope to schemes/ plugins, skipping the framework files."""
        return (
            ctx.in_dirs({"schemes"}) and ctx.filename not in NON_PLUGIN_FILES
        )


@register_rule
class OneSchemePerModuleRule(SchemeModuleRule):
    """Each plugin module registers exactly one scheme."""

    rule_id = "scheme-one-per-module"
    description = (
        "a module under core/schemes/ must register exactly one scheme"
        " with @register_scheme"
    )

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Count @register_scheme classes; flag zero or more than one."""
        registered = _registered_classes(tree)
        if len(registered) == 1:
            return
        if not registered:
            self.emit(
                ctx,
                tree.body[0] if tree.body else tree,
                "no @register_scheme class in this plugin module; move"
                " shared helpers into base.py or register a scheme",
            )
        else:
            for extra in registered[1:]:
                self.emit(
                    ctx,
                    extra,
                    f"second scheme {extra.name!r} registered in the same"
                    " module; one plugin module per scheme",
                )


@register_rule
class SchemeHooksRule(SchemeModuleRule):
    """The registered class subclasses SchemeExecutor and has ``plan``."""

    rule_id = "scheme-missing-plan"
    description = (
        "a registered scheme must subclass SchemeExecutor and implement"
        " (or inherit from another scheme) its plan() hook"
    )

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Check each registered class's bases and plan() hook."""
        for cls in _registered_classes(tree):
            bases = _base_names(cls)
            if not bases:
                self.emit(
                    ctx,
                    cls,
                    f"{cls.name} is registered but subclasses nothing;"
                    " derive from SchemeExecutor",
                )
                continue
            if self._defines_plan(cls):
                continue
            # Subclassing another scheme (e.g. a *Scheme class) inherits
            # a concrete plan; subclassing only the abstract executor
            # does not.
            inherits_concrete = any(
                base != "SchemeExecutor" for base in bases
            )
            if not inherits_concrete:
                self.emit(
                    ctx,
                    cls,
                    f"{cls.name} neither defines plan() nor inherits one"
                    " from a concrete scheme",
                )

    @staticmethod
    def _defines_plan(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "plan"
            for node in cls.body
        )


@register_rule
class SchemeKnobsRule(SchemeModuleRule):
    """Class-level assignments are limited to ``name``."""

    rule_id = "scheme-unknown-knob"
    description = (
        "class-level attribute on a registered scheme other than name;"
        " executors read no other knob, so a stale one (e.g."
        " cpu_starts_awake = True) silently does nothing — declare it in"
        " the SchemePlan that plan() returns"
    )

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Flag class-level assignments outside the knob allow-list."""
        for cls in _registered_classes(tree):
            for node in cls.body:
                for name, target in self._assigned_names(node):
                    if name not in EXECUTOR_KNOBS:
                        self.emit(
                            ctx,
                            target,
                            f"{cls.name}.{name} is not a SchemeExecutor"
                            " knob (known: "
                            + ", ".join(sorted(EXECUTOR_KNOBS))
                            + "); declare scheme decisions in plan()",
                        )

    @staticmethod
    def _assigned_names(node: ast.stmt):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                yield node.target.id, node.target

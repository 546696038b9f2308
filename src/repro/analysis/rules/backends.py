"""Execution-backend contract rules.

Modules under ``core/backends/`` are plugins, exactly like scheme
modules: one file, one ``@register_backend`` class implementing the
:class:`~repro.core.backends.base.ExecutionBackend` protocol.  These
rules pin the contract documented in ``docs/extending.md``: every
plugin module registers exactly one backend, and the registered class
actually derives from ``ExecutionBackend`` and provides (or inherits
from a concrete backend) ``submit_batch``.
"""

from __future__ import annotations

import ast
from typing import List

from ..framework import FileContext, Rule, register_rule

#: Plumbing modules inside core/backends/ that are not plugins.
NON_PLUGIN_FILES = frozenset({"base.py", "registry.py", "__init__.py"})


def _is_register_decorator(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "register_backend"
    if isinstance(func, ast.Attribute):
        return func.attr == "register_backend"
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


class BackendModuleRule(Rule):
    """Base: only runs on plugin modules under a ``backends`` directory."""

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope to backends/ plugins, skipping the framework files."""
        return (
            ctx.in_dirs({"backends"})
            and ctx.filename not in NON_PLUGIN_FILES
        )


@register_rule
class OneBackendPerModuleRule(BackendModuleRule):
    """Each plugin module registers exactly one backend."""

    rule_id = "backend-one-per-module"
    description = (
        "a module under core/backends/ must register exactly one backend"
        " with @register_backend"
    )

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Count @register_backend classes; flag zero or more than one."""
        registered = _registered_classes(tree)
        if len(registered) == 1:
            return
        if not registered:
            self.emit(
                ctx,
                tree.body[0] if tree.body else tree,
                "no @register_backend class in this plugin module; move"
                " shared helpers into base.py or register a backend",
            )
        else:
            for extra in registered[1:]:
                self.emit(
                    ctx,
                    extra,
                    f"second backend {extra.name!r} registered in the same"
                    " module; one plugin module per backend",
                )


@register_rule
class BackendHooksRule(BackendModuleRule):
    """The registered class derives from ExecutionBackend + submit_batch."""

    rule_id = "backend-missing-submit"
    description = (
        "a registered backend must subclass ExecutionBackend and"
        " implement (or inherit from another backend) submit_batch()"
    )

    def finish_module(self, ctx: FileContext, tree: ast.Module) -> None:
        """Check each registered class's bases and submit_batch hook."""
        for cls in _registered_classes(tree):
            bases = _base_names(cls)
            if not bases:
                self.emit(
                    ctx,
                    cls,
                    f"{cls.name} is registered but subclasses nothing;"
                    " derive from ExecutionBackend",
                )
                continue
            if self._defines_submit(cls):
                continue
            # Subclassing another backend inherits a concrete
            # submit_batch; subclassing only the abstract protocol class
            # does not (its submit_batch raises NotImplementedError).
            inherits_concrete = any(
                base != "ExecutionBackend" for base in bases
            )
            if not inherits_concrete:
                self.emit(
                    ctx,
                    cls,
                    f"{cls.name} neither defines submit_batch() nor"
                    " inherits one from a concrete backend",
                )

    @staticmethod
    def _defines_submit(cls: ast.ClassDef) -> bool:
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "submit_batch"
            for node in cls.body
        )

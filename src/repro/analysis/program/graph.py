"""The project symbol table, import resolver and call graph.

A :class:`ProgramIndex` is assembled from per-module summaries (one
parse per file).  It resolves names across modules — direct calls,
``self.method``/receiver-type method calls, ``mod.fn`` calls through
the import table, callback registration edges (a bare function passed
as an argument, ``functools.partial``) and registry-dispatch edges
(``get_scheme``/``get_backend`` callers reach every
``@register_*``-decorated class's hook methods) — and exposes the
resulting call graph to the whole-program passes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .summaries import CallSite, FunctionSummary, ModuleSummary

#: Registry-dispatch callables: calling one of these reaches every
#: registered plugin's entry hooks (the registry erases the static link).
REGISTRY_ACCESSORS = frozenset({"get_scheme", "get_backend", "create_backend"})

#: Methods a registry-dispatched plugin class exposes to the framework.
REGISTRY_ENTRY_METHODS = frozenset(
    {"plan", "submit_batch", "create", "__init__"}
)

#: Directory components forming the deterministic simulation core.
DETERMINISTIC_DIRS = frozenset({"sim", "hw", "schemes"})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file, walking ``__init__.py`` packages.

    ``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``; a file outside
    any package is just its stem.  Works purely on the filesystem, so
    fixture mini-projects resolve exactly like the real tree.
    """
    file_path = Path(path)
    parts: List[str] = []
    if file_path.stem != "__init__":
        parts.append(file_path.stem)
    directory = file_path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else file_path.stem


class ProgramIndex:
    """Whole-program view: modules, symbols, imports, call graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        #: Module name -> summary (last one wins on duplicate names).
        self.modules: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in summaries
        }
        #: ``module:qualname`` -> function summary.
        self.functions: Dict[str, FunctionSummary] = {}
        #: ``module:qualname`` -> module name (for path/suppressions).
        self.function_module: Dict[str, str] = {}
        for summary in self.modules.values():
            for qualname, fn in summary.functions.items():
                fid = f"{summary.module}:{qualname}"
                self.functions[fid] = fn
                self.function_module[fid] = summary.module
        self._edges: Optional[Dict[str, List[Tuple[str, int]]]] = None
        self._registry_targets: Dict[str, List[str]] = {}
        self._passes: Dict[Callable, Any] = {}

    def run_pass(self, analysis: Callable[["ProgramIndex"], Any]) -> Any:
        """``analysis(self)``, run once per index however many rules
        report its result."""
        if analysis not in self._passes:
            self._passes[analysis] = analysis(self)
        return self._passes[analysis]

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------
    def path_of(self, function_id: str) -> str:
        """Source path of the module defining ``function_id``."""
        module = self.function_module[function_id]
        return self.modules[module].path

    def suppression_tokens(self, path: str, line: int) -> Set[str]:
        """Inline-suppression tokens covering ``path:line``."""
        for summary in self.modules.values():
            if summary.path == path:
                return set(summary.suppressions.get(line, []))
        return set()

    def resolve_name(
        self, module: str, name: str
    ) -> Optional[str]:
        """Resolve a bare name in ``module`` to a function id.

        Checks module-local functions first, then the import table
        (``from m import f`` / ``import m``-qualified targets).
        """
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.functions:
            return f"{module}:{name}"
        target = summary.imports.get(name)
        if target is None:
            return None
        target_module, _, symbol = target.rpartition(".")
        if not target_module:
            return None
        resolved = self.modules.get(target_module)
        if resolved is not None and symbol in resolved.functions:
            return f"{target_module}:{symbol}"
        # ``from pkg import module`` — the symbol is itself a module.
        if target in self.modules:
            return None
        return None

    def resolve_class(
        self, module: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a class name to its (module, class) definition."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.classes:
            return (module, name)
        target = summary.imports.get(name)
        if target is not None:
            target_module, _, symbol = target.rpartition(".")
            resolved = self.modules.get(target_module)
            if resolved is not None and symbol in resolved.classes:
                return (target_module, symbol)
        return None

    def resolve_method(
        self, module: str, class_name: str, method: str
    ) -> Optional[str]:
        """Resolve ``Class.method`` walking the (resolvable) MRO."""
        seen: Set[Tuple[str, str]] = set()
        queue: List[Tuple[str, str]] = []
        located = self.resolve_class(module, class_name)
        if located is not None:
            queue.append(located)
        while queue:
            cls_module, cls_name = queue.pop(0)
            if (cls_module, cls_name) in seen:
                continue
            seen.add((cls_module, cls_name))
            summary = self.modules[cls_module]
            qualname = f"{cls_name}.{method}"
            if qualname in summary.functions:
                return f"{cls_module}:{qualname}"
            for base in summary.classes[cls_name].bases:
                base_located = self.resolve_class(
                    cls_module, base.rsplit(".", 1)[-1]
                )
                if base_located is not None:
                    queue.append(base_located)
        return None

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------
    def _registry_entry_targets(self, kind: str) -> List[str]:
        """Function ids of matching registered plugins' entry hooks.

        ``kind`` is the accessor's noun (``get_scheme`` -> ``scheme``);
        only classes whose ``@register_*`` decorator names the same noun
        participate, so ``get_scheme`` callers never conjure edges into
        backend plugins.
        """
        cached = self._registry_targets.get(kind)
        if cached is not None:
            return cached
        targets: List[str] = []
        for summary in self.modules.values():
            for cls in summary.classes.values():
                if cls.registered is None or kind not in cls.registered[0]:
                    continue
                for method in cls.methods:
                    if method in REGISTRY_ENTRY_METHODS:
                        targets.append(
                            f"{summary.module}:{cls.name}.{method}"
                        )
        self._registry_targets[kind] = sorted(targets)
        return self._registry_targets[kind]

    def _resolve_call(
        self,
        module: str,
        caller: FunctionSummary,
        site: CallSite,
    ) -> List[str]:
        """Function ids a call site may reach (empty when unresolved)."""
        callee = site.callee
        if not callee:
            return []
        targets: List[str] = []
        parts = callee.split(".")
        if len(parts) == 1:
            resolved = self.resolve_name(module, parts[0])
            if resolved is not None:
                targets.append(resolved)
        elif len(parts) == 2:
            receiver, method = parts
            if receiver in ("self", "cls") and "." in caller.qualname:
                class_name = caller.qualname.split(".", 1)[0]
                resolved = self.resolve_method(module, class_name, method)
                if resolved is not None:
                    targets.append(resolved)
            else:
                # Module-qualified call through the import table.
                summary = self.modules.get(module)
                imported = (
                    summary.imports.get(receiver) if summary else None
                )
                if imported is not None and imported in self.modules:
                    if method in self.modules[imported].functions:
                        targets.append(f"{imported}:{method}")
                # Receiver-type heuristic: var = ClassName(...) earlier.
                ctor = caller.local_types.get(receiver)
                if ctor is not None:
                    resolved = self.resolve_method(module, ctor, method)
                    if resolved is not None:
                        targets.append(resolved)
                # Direct ClassName.method references.
                resolved = self.resolve_method(module, receiver, method)
                if resolved is not None:
                    targets.append(resolved)
        tail = parts[-1]
        if tail in REGISTRY_ACCESSORS:
            kind = tail.rsplit("_", 1)[-1]
            targets.extend(self._registry_entry_targets(kind))
        # Callback edges: a bare name argument resolving to a function
        # is a potential deferred call (covers functools.partial(fn, ...)
        # and registry.register(fn) alike).
        for arg in (*site.args, *site.kwargs.values()):
            if arg.kind == "name" and arg.name and "." not in arg.name:
                resolved = self.resolve_name(module, arg.name)
                if resolved is not None:
                    targets.append(resolved)
        return targets

    def call_edges(self) -> Dict[str, List[Tuple[str, int]]]:
        """Caller id -> [(callee id, call line)] over the whole program."""
        if self._edges is not None:
            return self._edges
        edges: Dict[str, List[Tuple[str, int]]] = {}
        for module_name in sorted(self.modules):
            summary = self.modules[module_name]
            for qualname in sorted(summary.functions):
                fn = summary.functions[qualname]
                caller_id = f"{module_name}:{qualname}"
                out: List[Tuple[str, int]] = []
                seen: Set[Tuple[str, int]] = set()
                for site in fn.calls:
                    for target in self._resolve_call(
                        module_name, fn, site
                    ):
                        edge = (target, site.lineno)
                        if target != caller_id and edge not in seen:
                            seen.add(edge)
                            out.append(edge)
                edges[caller_id] = out
        self._edges = edges
        return edges

    def reverse_call_edges(self) -> Dict[str, List[Tuple[str, int]]]:
        """Callee id -> [(caller id, call line)]."""
        reverse: Dict[str, List[Tuple[str, int]]] = {}
        for caller, outs in self.call_edges().items():
            for callee, line in outs:
                reverse.setdefault(callee, []).append((caller, line))
        return reverse

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def in_deterministic_core(self, module: str) -> bool:
        """Whether a module lives under sim/, hw/ or a schemes/ dir."""
        summary = self.modules[module]
        directories = Path(summary.path).parts[:-1]
        return any(part in DETERMINISTIC_DIRS for part in directories)

    def deterministic_entry_points(self) -> List[str]:
        """Function ids the determinism pass treats as roots.

        Every function in the deterministic core directories, plus the
        engine-facing seams whose purity the fingerprint cache rests on:
        ``execute_scenario`` and anything fingerprint-named.
        """
        entries: List[str] = []
        for fid in sorted(self.functions):
            module, _, qualname = fid.partition(":")
            name = qualname.rsplit(".", 1)[-1]
            if self.in_deterministic_core(module):
                entries.append(fid)
            elif name == "execute_scenario" or "fingerprint" in name:
                entries.append(fid)
        return entries


"""Per-file symbol/dataflow summaries for the whole-program passes.

One parse of a module produces a :class:`ModuleSummary`: its classes and
functions, the import table, every call site with resolved-enough callee
text and abstract argument facts (unit-of-measure guesses), the
impurity sinks the body touches, and the inline-suppression map.
``repro lint`` summarizes the same tree its per-file rules walk, so
each file is parsed once; the program index is assembled from the
summaries alone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..framework import parse_suppressions

#: Name suffix -> unit-of-measure lattice value.
UNIT_SUFFIXES: Dict[str, str] = {
    "_s": "s",
    "_ms": "ms",
    "_us": "us",
    "_ns": "ns",
    "_j": "J",
    "_mj": "mJ",
    "_w": "W",
    "_mw": "mW",
    "_hz": "Hz",
    "_khz": "kHz",
    "_mhz": "MHz",
    "_bytes": "B",
    "_kib": "KiB",
}

#: Bare identifiers that conventionally carry a unit in this codebase.
UNIT_NAMES: Dict[str, str] = {
    "now": "s",
    "deadline": "s",
    "elapsed": "s",
    "seconds": "s",
    "joules": "J",
    "watts": "W",
    "nbytes": "B",
}

#: ``repro.units`` helpers -> the unit of their *return* value.
CONSTRUCTOR_UNITS: Dict[str, str] = {
    "ms": "s",
    "us": "s",
    "ns": "s",
    "mw": "W",
    "mj": "J",
    "kib": "B",
    "khz": "Hz",
    "mhz": "Hz",
    "to_ms": "ms",
    "to_us": "us",
    "to_mw": "mW",
    "to_mj": "mJ",
    "to_kib": "KiB",
}

#: Dotted-call suffixes that read the host wall clock.
WALLCLOCK_SINKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Bare names that are clock reads when imported directly.
_BARE_CLOCKS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "process_time"}
)

#: Entropy sources (always impure, seeded or not).
ENTROPY_SINKS = frozenset(
    {"urandom", "uuid4", "token_bytes", "token_hex", "getrandbits"}
)

#: Environment reads (host-dependent => impure for the sim core).
ENV_SINKS = frozenset({"getenv", "environ"})

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def unit_from_identifier(name: str) -> Optional[str]:
    """The unit a bare identifier carries by naming convention."""
    for suffix, unit in UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return unit
    return UNIT_NAMES.get(name)


@dataclass
class ArgInfo:
    """Abstract facts about one argument at one call site."""

    #: ``name`` (a bare or dotted name) | ``other``
    kind: str
    #: Identifier text of a ``name`` argument (for callback resolution).
    name: Optional[str] = None
    #: Inferred unit-of-measure of the expression, when known.
    unit: Optional[str] = None


@dataclass
class CallSite:
    """One call expression inside a function body."""

    #: Dotted callee text (``self.step``, ``time.time``, ``fn``) or "".
    callee: str
    lineno: int
    args: List[ArgInfo] = field(default_factory=list)
    kwargs: Dict[str, ArgInfo] = field(default_factory=dict)


@dataclass
class Sink:
    """One impurity source touched directly by a function body."""

    #: ``wallclock`` | ``unseeded-random`` | ``entropy`` | ``env-read``
    kind: str
    #: The offending expression text (``time.time``, ``os.environ``).
    detail: str
    lineno: int


@dataclass
class FunctionSummary:
    """Everything the program passes need to know about one function."""

    qualname: str
    lineno: int
    params: List[str] = field(default_factory=list)
    #: Whether the signature takes *args/**kwargs (disables arg mapping).
    flexible: bool = False
    calls: List[CallSite] = field(default_factory=list)
    sinks: List[Sink] = field(default_factory=list)
    #: (inferred unit, lineno) for each ``return <expr>`` statement.
    return_units: List[Tuple[Optional[str], int]] = field(
        default_factory=list
    )
    #: Unit-suffixed assignments fed by a call:
    #: (target name, target unit, callee text, value unit, lineno).
    unit_assigns: List[Tuple[str, str, str, Optional[str], int]] = field(
        default_factory=list
    )
    #: Local variable -> the class name of its ``var = ClassName(...)``
    #: binding, for receiver-type method resolution.
    local_types: Dict[str, str] = field(default_factory=dict)

    @property
    def unit(self) -> Optional[str]:
        """The unit the function's own name promises for its return."""
        return unit_from_identifier(self.qualname.rsplit(".", 1)[-1])


@dataclass
class ClassSummary:
    """One class definition: bases, methods, registry decoration."""

    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: ``register_scheme``/``register_backend``-style decoration, as
    #: (decorator name, registered key) when present.
    registered: Optional[Tuple[str, str]] = None


@dataclass
class ModuleSummary:
    """The per-module unit the program index is assembled from."""

    module: str
    path: str
    #: Local name -> dotted import target (``np`` -> ``numpy``,
    #: ``ms`` -> ``repro.units.ms``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Line -> suppression tokens (mirrors the per-file framework).
    suppressions: Dict[int, List[str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def infer_unit(node: ast.AST) -> Optional[str]:
    """Best-effort unit-of-measure of an expression.

    Sources: unit-suffixed identifiers/attributes, the ``repro.units``
    constructors, scale-free arithmetic (``x_s + y_s`` stays seconds;
    mixed or scaled arithmetic degrades to unknown rather than guessing).
    """
    if isinstance(node, ast.Name):
        return unit_from_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return unit_from_identifier(node.attr)
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            if tail in CONSTRUCTOR_UNITS:
                return CONSTRUCTOR_UNITS[tail]
            return unit_from_identifier(tail)
        return None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        left = infer_unit(node.left)
        right = infer_unit(node.right)
        if left is not None and (right is None or right == left):
            return left
        if right is not None and left is None:
            return right
        return None
    if isinstance(node, ast.UnaryOp):
        return infer_unit(node.operand)
    if isinstance(node, ast.IfExp):
        body = infer_unit(node.body)
        orelse = infer_unit(node.orelse)
        return body if body == orelse else None
    return None


def _classify_arg(node: ast.AST) -> ArgInfo:
    """Build the :class:`ArgInfo` abstraction for one argument node."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return ArgInfo(
            kind="name", name=dotted_name(node), unit=infer_unit(node)
        )
    return ArgInfo(kind="other", unit=infer_unit(node))


def _detect_sink(call: ast.Call) -> Optional[Sink]:
    """Classify a call as an impurity sink, if it is one."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    tail = parts[-1]
    if len(parts) == 1 and tail in _BARE_CLOCKS:
        return Sink("wallclock", dotted, call.lineno)
    for depth in (2, 3):
        if len(parts) >= depth:
            suffix = ".".join(parts[-depth:])
            if suffix in WALLCLOCK_SINKS:
                return Sink("wallclock", dotted, call.lineno)
    if parts[0] == "random" and len(parts) == 2:
        if tail == "Random" and not call.args and not call.keywords:
            return Sink("unseeded-random", dotted, call.lineno)
        if tail not in ("Random", "seed", "getstate", "setstate"):
            return Sink("unseeded-random", dotted, call.lineno)
    if tail == "default_rng" and not call.args and not call.keywords:
        return Sink("unseeded-random", dotted, call.lineno)
    if tail in ENTROPY_SINKS:
        return Sink("entropy", dotted, call.lineno)
    if tail in ENV_SINKS and parts[0] in ("os", "environ"):
        return Sink("env-read", dotted, call.lineno)
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body collecting calls, sinks and local facts.

    Nested ``def`` and ``lambda`` bodies are skipped: their calls and
    sinks belong to the nested function, not to the one around it.
    """

    def __init__(self, summary: FunctionSummary):
        self.summary = summary

    # -- nested definitions -------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Skip a nested def's body."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Skip a nested async def's body."""

    def visit_Lambda(self, node: ast.Lambda) -> None:
        """Skip a lambda's body."""

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Record the call site and any impurity sink it constitutes."""
        callee = dotted_name(node.func) or ""
        site = CallSite(callee=callee, lineno=node.lineno)
        for arg in node.args:
            site.args.append(_classify_arg(arg))
        for keyword in node.keywords:
            if keyword.arg is not None:
                site.kwargs[keyword.arg] = _classify_arg(keyword.value)
        self.summary.calls.append(site)
        sink = _detect_sink(node)
        if sink is not None:
            self.summary.sinks.append(sink)
        self.generic_visit(node)

    # -- attribute reads that are sinks --------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        """``os.environ[...]``-style reads count as env sinks."""
        dotted = dotted_name(node)
        if dotted == "os.environ":
            self.summary.sinks.append(
                Sink("env-read", dotted, node.lineno)
            )
        self.generic_visit(node)

    # -- assignments ---------------------------------------------------
    def _record_assign(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor is not None:
                tail = ctor.rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    self.summary.local_types[name] = tail
            target_unit = unit_from_identifier(name)
            if target_unit is not None:
                self.summary.unit_assigns.append(
                    (
                        name,
                        target_unit,
                        ctor or "",
                        infer_unit(value),
                        value.lineno,
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track constructor types and unit bindings."""
        for target in node.targets:
            self._record_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Annotated assignments get the same treatment."""
        if node.value is not None:
            self._record_assign(node.target, node.value)
        self.generic_visit(node)

    # -- returns -------------------------------------------------------
    def visit_Return(self, node: ast.Return) -> None:
        """Record the inferred unit of every returned expression."""
        if node.value is not None:
            self.summary.return_units.append(
                (infer_unit(node.value), node.lineno)
            )
        self.generic_visit(node)


def _param_names(args: ast.arguments) -> Tuple[List[str], bool]:
    """Positional-parameter names and whether the signature is flexible."""
    names = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    flexible = args.vararg is not None or args.kwarg is not None
    return names, flexible


def _registration(
    node: ast.ClassDef,
) -> Optional[Tuple[str, str]]:
    """(decorator, key) for ``@register_*("key")`` class decorations."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name is None:
            continue
        tail = name.rsplit(".", 1)[-1]
        if tail.startswith("register"):
            key = ""
            if decorator.args and isinstance(
                decorator.args[0], ast.Constant
            ):
                key = str(decorator.args[0].value)
            return (tail, key)
    return None


def _summarize_function(
    node: ast.AST, qualname: str
) -> FunctionSummary:
    """Extract one function's summary from its AST."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    params, flexible = _param_names(node.args)
    summary = FunctionSummary(
        qualname=qualname,
        lineno=node.lineno,
        params=params,
        flexible=flexible,
    )
    extractor = _FunctionExtractor(summary)
    for statement in node.body:
        extractor.visit(statement)
    return summary


def _resolve_relative(module: str, level: int, target: str) -> str:
    """Resolve a ``from ..x import y`` module relative to ``module``."""
    if level <= 0:
        return target
    package_parts = module.split(".")
    # A module's package is itself for __init__-style names; summaries
    # always use the module path, so drop `level` trailing components.
    base = package_parts[: len(package_parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def summarize_module(
    tree: ast.Module, module: str, path: str, source: str
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    summary = ModuleSummary(module=module, path=path)
    summary.suppressions = {
        line: sorted(tokens)
        for line, tokens in parse_suppressions(source).items()
    }
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node.level, node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = _summarize_function(
                node, node.name
            )
        elif isinstance(node, ast.ClassDef):
            cls_summary = ClassSummary(
                name=node.name,
                lineno=node.lineno,
                bases=[
                    base_name
                    for base in node.bases
                    if (base_name := dotted_name(base)) is not None
                ],
                registered=_registration(node),
            )
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qualname = f"{node.name}.{child.name}"
                    cls_summary.methods.append(child.name)
                    summary.functions[qualname] = _summarize_function(
                        child, qualname
                    )
            summary.classes[node.name] = cls_summary
    return summary


def summarize_source(
    source: str, module: str, path: str
) -> Optional[ModuleSummary]:
    """Parse + summarize, returning None for files that do not parse."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    return summarize_module(tree, module, path, source)

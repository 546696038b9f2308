"""Determinism rules.

The simulator's result cache (:mod:`repro.core.engine`) assumes that a
scenario fingerprint fully determines the run: same inputs, bit-identical
outputs, across processes and machines.  Any wall-clock read, unseeded
RNG or hash-order-dependent iteration inside the simulation core breaks
that silently — the cache then stores whichever result happened first.
These rules keep the deterministic core honest; host-side tooling
(profilers, CLI glue) outside the scoped directories may legitimately
read the clock.  Builtin ``hash()`` has no legitimate reading anywhere
a value can reach a result, so that rule covers every file.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from ..framework import FileContext, Rule, register_rule

#: Directory components under which the simulation must be deterministic.
DETERMINISTIC_DIRS = frozenset({"sim", "hw", "schemes"})

#: Dotted call suffixes that read the wall clock.
WALLCLOCK_CALLS = frozenset(
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

#: ``random``-module entropy sources that are always hash/state-global.
_STDLIB_RANDOM_OK = frozenset({"Random", "seed", "getstate", "setstate"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain of names, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismRule(Rule):
    """Base: only runs inside the deterministic simulation directories."""

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope to sim/, hw/ and schemes/ directory components."""
        return ctx.in_dirs(DETERMINISTIC_DIRS)


@register_rule
class WallClockRule(DeterminismRule):
    """Wall-clock reads inside the simulation core."""

    rule_id = "det-wallclock"
    description = (
        "time.time()/perf_counter()/datetime.now() inside sim/, hw/ or"
        " core/schemes/ — simulated time must come from the kernel"
    )

    #: Bare names that are unambiguous clock reads when imported directly
    #: (``from time import perf_counter``).
    _BARE_CLOCKS = frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "process_time"}
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        """Flag calls whose dotted tail matches a known clock read."""
        dotted = _dotted(node.func)
        if dotted is None:
            return
        tail: Tuple[str, ...] = tuple(dotted.split("."))
        if len(tail) == 1:
            if tail[0] in self._BARE_CLOCKS:
                self._report(ctx, node, dotted)
            return
        for depth in (2, 3):
            suffix = ".".join(tail[-depth:])
            if suffix in WALLCLOCK_CALLS:
                self._report(ctx, node, dotted)
                return

    def _report(self, ctx: FileContext, node: ast.Call, dotted: str) -> None:
        self.emit(
            ctx,
            node,
            f"wall-clock read {dotted}() in deterministic code; "
            "use the simulation kernel's virtual time",
        )


@register_rule
class UnseededRandomRule(DeterminismRule):
    """Global or unseeded RNG use inside the simulation core."""

    rule_id = "det-unseeded-random"
    description = (
        "unseeded/global RNG (random.*, np.random.*, default_rng()) in"
        " deterministic code — thread an explicitly seeded generator"
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        """Flag stdlib/numpy RNG calls that are global or unseeded."""
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        # random.Random() with no seed, or any random.<fn>() global call.
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if not node.args and not node.keywords:
                    self.emit(
                        ctx, node, "random.Random() without an explicit seed"
                    )
                return
            if parts[1] not in _STDLIB_RANDOM_OK:
                self.emit(
                    ctx,
                    node,
                    f"global RNG call {dotted}(); thread a seeded"
                    " random.Random/Generator instead",
                )
            return
        # numpy: default_rng() must be seeded; the legacy np.random.<fn>
        # global-state API is banned outright.
        if len(parts) >= 2 and parts[-2] == "random" or (
            len(parts) >= 3 and parts[-3] == "random"
        ):
            if parts[-1] == "default_rng":
                if not node.args and not node.keywords:
                    self.emit(
                        ctx,
                        node,
                        "np.random.default_rng() without an explicit seed",
                    )
            elif parts[-2] == "random" and parts[0] in ("np", "numpy"):
                self.emit(
                    ctx,
                    node,
                    f"legacy global-state RNG call {dotted}(); use a"
                    " seeded np.random.default_rng(seed)",
                )
            return
        if parts[-1] in ("uuid4", "token_bytes", "token_hex", "urandom"):
            self.emit(
                ctx, node, f"entropy source {dotted}() in deterministic code"
            )


@register_rule
class SetOrderRule(DeterminismRule):
    """Iteration whose order depends on hash seeds."""

    rule_id = "det-set-order"
    description = (
        "iterating a set/frozenset in deterministic code — order varies"
        " with PYTHONHASHSEED; wrap in sorted() or use a list/dict"
    )

    #: Calls that materialize their argument's iteration order.
    _ORDER_SENSITIVE = frozenset({"list", "tuple", "enumerate", "iter"})

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _flag(self, ctx: FileContext, node: ast.AST) -> None:
        self.emit(
            ctx,
            node,
            "set iteration order depends on PYTHONHASHSEED; wrap in"
            " sorted() to keep runs reproducible",
        )

    def visit_For(self, ctx: FileContext, node: ast.For) -> None:
        """Flag ``for ... in {…}`` / ``in set(...)`` loops."""
        if self._is_set_expr(node.iter):
            self._flag(ctx, node.iter)

    def visit_comprehension(
        self, ctx: FileContext, node: ast.comprehension
    ) -> None:
        """Flag set iteration inside comprehension ``for`` clauses."""
        if self._is_set_expr(node.iter):
            self._flag(ctx, node.iter)

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        """Flag order-materializing calls (list/join/...) over a set."""
        if not node.args or not self._is_set_expr(node.args[0]):
            return
        if isinstance(node.func, ast.Name):
            if node.func.id in self._ORDER_SENSITIVE:
                self._flag(ctx, node.args[0])
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr == "join":
                self._flag(ctx, node.args[0])


@register_rule
class BuiltinHashRule(Rule):
    """Builtin ``hash()`` calls anywhere in the library."""

    rule_id = "det-builtin-hash"
    description = (
        "builtin hash() — str/bytes hashes are salted per process"
        " (PYTHONHASHSEED); derive seeds from zlib.crc32 or hashlib"
    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        """Flag ``hash(...)`` (not ``obj.hash(...)``)."""
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.emit(
                ctx,
                node,
                "builtin hash() differs between interpreters for str/bytes;"
                " use a stable digest such as zlib.crc32",
            )

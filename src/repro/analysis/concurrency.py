"""Concurrency rules: the threaded-daemon invariants (CONC0xx).

The serving daemon (:mod:`repro.serving.service`) is the subsystem whose
threads share long-lived state: HTTP handler threads, the admission-batcher
worker and signal-driven shutdown all touch it.  Two other places start
threads that share next to nothing: the load generator's clients (each
merges its results under one lock when it finishes) and the sweep engine's
matrix loader (each read hands one matrix back through a future).  The
daemon's safety story is simple and must stay simple — every shared
attribute is guarded by one lock, nothing slow happens while holding a
lock, and every condition wait sits in a predicate loop.  These rules keep
each of those properties checkable per commit:

* ``CONC001`` — an attribute mutated both inside and outside ``with
  self._lock`` blocks of the same class (a data race or a torn invariant);
* ``CONC002`` — blocking work (file/socket I/O, subprocess, inference)
  performed while holding a lock, serializing every other thread behind it;
* ``CONC003`` — ``Condition.wait`` outside a ``while``-predicate loop,
  which breaks under spurious wakeups and notify-before-wait races.

The rules are heuristic by design: a lock is recognized by name (an
attribute containing ``lock``, ``cond``, ``mutex`` or ``guard``), which
matches this codebase's idiom and keeps the analysis dependency-free.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.engine import (
    Finding,
    ModuleSource,
    dotted_name,
    register_rule,
)

#: Context-manager attribute names treated as lock guards.
_LOCK_NAME_RE = re.compile(r"lock|cond|mutex|guard", re.IGNORECASE)

#: Methods whose attribute writes are initialization, not shared mutation:
#: no other thread can hold the object before construction completes.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__set_name__"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Call names that block: I/O, subprocesses, sleeps and model inference.
#: Deliberately excludes ``write``/``flush``/``close`` — serializing writes
#: to a shared handle is exactly what a log lock is *for*.
_BLOCKING_SUFFIXES = frozenset(
    {
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
        "urlopen",
        "sleep",
        "predict_batch",
        "recv",
        "accept",
        "connect",
        "check_output",
        "check_call",
        "communicate",
    }
)

_BLOCKING_NAMES = frozenset({"open"})

_BLOCKING_PREFIXES = ("subprocess.",)


def _lock_guard_name(item: ast.withitem) -> Optional[str]:
    """The lock name when a ``with`` item is a lock guard, else ``None``."""
    expr = item.context_expr
    # `with self._lock:` / `with lock:` / `with hub._cond:`
    if isinstance(expr, ast.Attribute) and _LOCK_NAME_RE.search(expr.attr):
        return dotted_name(expr) or expr.attr
    if isinstance(expr, ast.Name) and _LOCK_NAME_RE.search(expr.id):
        return expr.id
    return None


def _enclosing_lock(module: ModuleSource, node: ast.AST) -> Optional[str]:
    """The innermost lock guard a node executes under, if any."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function's body runs when *called*, not where the
            # enclosing `with` textually sits.
            return None
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                name = _lock_guard_name(item)
                if name is not None:
                    return name
    return None


def _self_attribute(node: ast.expr) -> Optional[str]:
    """``attr`` when the expression is ``self.attr``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_self_attributes(node: ast.stmt) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(attr, node)`` for every ``self.attr`` mutation in a statement."""
    for child in ast.walk(node):
        targets: List[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets.extend(child.targets)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets.append(child.target)
        elif isinstance(child, ast.Delete):
            targets.extend(child.targets)
        elif isinstance(child, ast.Call):
            # `self.attr.append(...)`-style in-place mutation.
            func = child.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                attr = _self_attribute(func.value)
                if attr is not None:
                    yield attr, child
            continue
        stack = list(targets)
        while stack:
            target = stack.pop()
            # Unpack tuple targets, and unwrap `self.attr[...] = x` /
            # `del self.attr[...]` to the attribute being mutated.
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            while isinstance(target, (ast.Subscript, ast.Starred)):
                target = target.value
            attr = _self_attribute(target)
            if attr is not None:
                yield attr, target


@register_rule(
    "CONC001",
    "attribute mutated both inside and outside lock guards",
)
def unguarded_shared_mutation(module: ModuleSource) -> Iterator[Finding]:
    """Flag attributes with a mixed locked/unlocked mutation discipline.

    If any method of a class mutates ``self.attr`` under ``with
    self._lock`` while another site mutates it bare, the lock is not
    actually protecting the attribute — the bare site races every guarded
    one.  Constructor methods are exempt (the object is not yet shared),
    as are the lock attributes themselves.
    """
    for classdef in ast.walk(module.tree):
        if not isinstance(classdef, ast.ClassDef):
            continue
        locked: Dict[str, List[ast.AST]] = {}
        unlocked: Dict[str, List[ast.AST]] = {}
        for method in classdef.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _INIT_METHODS:
                continue
            for statement in method.body:
                for attr, node in _mutated_self_attributes(statement):
                    if _LOCK_NAME_RE.search(attr):
                        continue
                    bucket = (
                        locked
                        if _enclosing_lock(module, node) is not None
                        else unlocked
                    )
                    bucket.setdefault(attr, []).append(node)
        for attr in sorted(set(locked) & set(unlocked)):
            for node in unlocked[attr]:
                yield module.finding(
                    node,
                    f"self.{attr} is mutated under a lock elsewhere in "
                    f"{classdef.name} but written here without one; every "
                    f"mutation of a guarded attribute must hold the lock",
                    symbol=f"{classdef.name}.{attr}",
                )


@register_rule(
    "CONC002",
    "blocking call while holding a lock",
)
def blocking_call_under_lock(module: ModuleSource) -> Iterator[Finding]:
    """Flag slow operations performed inside lock-guarded blocks.

    A lock held across file/socket I/O, a subprocess or batched inference
    stalls every thread contending for it — in the daemon that means the
    accept loop and all handler threads.  Compute the slow result outside
    the guard and publish it with a short critical section.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        short = name.rsplit(".", 1)[-1]
        blocking = (
            name in _BLOCKING_NAMES
            or short in _BLOCKING_SUFFIXES
            or any(name.startswith(prefix) for prefix in _BLOCKING_PREFIXES)
        )
        if not blocking:
            continue
        lock = _enclosing_lock(module, node)
        if lock is None:
            continue
        yield module.finding(
            node,
            f"{name}() can block while holding {lock}; move the slow work "
            f"outside the critical section and publish its result under "
            f"the lock",
            symbol=lock,
        )


@register_rule(
    "CONC003",
    "Condition.wait outside a predicate loop",
)
def wait_without_predicate_loop(module: ModuleSource) -> Iterator[Finding]:
    """Flag ``<condition>.wait(...)`` that is not inside a ``while`` test.

    ``Condition.wait`` can return spuriously and can miss a notify that
    fired before the wait started; the only safe shape is ``while not
    predicate: cond.wait()``.  A ``while True:`` wrapper does not count —
    the loop must actually re-check a predicate.  Receivers are matched by
    name (``cond``/``condition``), so ``Event.wait`` is not flagged.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "wait"):
            continue
        receiver = dotted_name(func.value) or ""
        leaf = receiver.rsplit(".", 1)[-1]
        if not _LOCK_NAME_RE.search(leaf) or "lock" in leaf.lower():
            continue
        in_predicate_loop = False
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                break
            if isinstance(ancestor, ast.While) and not (
                isinstance(ancestor.test, ast.Constant) and ancestor.test.value
            ):
                in_predicate_loop = True
                break
        if not in_predicate_loop:
            yield module.finding(
                node,
                f"{receiver}.wait() outside a while-predicate loop misses "
                f"notifies and wakes spuriously; use "
                f"'while not <predicate>: {leaf}.wait()'",
                symbol=receiver,
            )

"""AST lint: shared-counter mutations must hold the owning lock.

``ServiceStats``, ``PhaseCache`` and ``ShardedStore`` (the record store
behind the tuning DB, the fix bank and the persistent phase cache) are
mutated concurrently by the threaded service, and the analysis gate's
process-wide ``_STATS`` dict by every verifying thread.  Each owns a
lock; this lint parses the source and asserts every attribute (or
``_STATS[...]``) mutation outside ``__init__`` is lexically inside a
``with <lock>:`` block, so an unguarded ``self.hits += 1`` cannot slip
in during a refactor and silently drop counts under contention.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (relative source file, class) pairs whose instance-attribute
#: mutations must happen under ``with self._lock:``.
LOCKED_CLASSES = [
    ("service/service.py", "ServiceStats"),
    ("pipeline/cache.py", "PhaseCache"),
    ("ioutil.py", "ShardedStore"),
]


def _is_self_lock(expr: ast.expr) -> bool:
    return (isinstance(expr, ast.Attribute) and expr.attr == "_lock"
            and isinstance(expr.value, ast.Name) and expr.value.id == "self")


def _is_stats_lock(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "_STATS_LOCK"


def _mutation_targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.AugAssign):
        return [node.target]
    if isinstance(node, ast.Assign):
        return list(node.targets)
    return []


def _unlocked_mutations(body: ast.stmt, is_lock, is_target
                        ) -> List[Tuple[int, str]]:
    """``(line, text)`` of every matching mutation not under the lock."""
    bad: List[Tuple[int, str]] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With):
            locked = locked or any(is_lock(item.context_expr)
                                   for item in node.items)
        if not locked and isinstance(node, ast.stmt):
            for target in _mutation_targets(node):
                if is_target(target):
                    bad.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    visit(body, False)
    return bad


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"class {name} not found")


def test_locked_classes_mutate_under_their_lock():
    def is_self_attr(target: ast.expr) -> bool:
        return (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")

    violations = []
    for rel, name in LOCKED_CLASSES:
        tree = ast.parse((SRC / rel).read_text())
        cls = _class_def(tree, name)
        assert "_lock" in ast.unparse(cls), f"{name} defines no _lock"
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) \
                    or method.name == "__init__" \
                    or method.name.endswith("_locked"):
                # ``*_locked`` methods run with the lock already held by
                # their caller -- the suffix is the contract.
                continue
            for line, text in _unlocked_mutations(
                    method, _is_self_lock, is_self_attr):
                violations.append(f"{rel}:{line} {name}.{method.name}: "
                                  f"{text}")
    assert not violations, \
        "attribute mutations outside `with self._lock:`:\n" \
        + "\n".join(violations)


def test_analysis_stats_mutations_hold_stats_lock():
    def is_stats_subscript(target: ast.expr) -> bool:
        return (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == "_STATS")

    tree = ast.parse((SRC / "analysis/verifier.py").read_text())
    violations = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for line, text in _unlocked_mutations(
                    node, _is_stats_lock, is_stats_subscript):
                violations.append(f"analysis/verifier.py:{line} "
                                  f"{node.name}: {text}")
    assert not violations, \
        "_STATS mutations outside `with _STATS_LOCK:`:\n" \
        + "\n".join(violations)

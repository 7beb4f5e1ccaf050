"""AST lint: every C-IR expression kind has a producer.

The unparser, the NumPy backend, the interpreter, the instruction mix and
the width verifier each handle every :class:`~repro.cir.nodes.CExpr`
kind.  A kind that no pass builds costs all of those branches and buys
nothing, so this lint parses ``src/repro`` and asserts that each
expression class ``repro.cir`` exports is called as a constructor
somewhere outside the modules that define and rebuild the nodes.  When a
kind loses its last producer, its handlers go with it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Set

import repro.cir
from repro.cir.nodes import CExpr

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The node definitions and the generic rebuild, which construct every
#: kind without producing any.
EXCLUDED = {SRC / "cir" / "nodes.py", SRC / "cir" / "transform.py"}


def _constructed_names() -> Set[str]:
    """The names called as functions anywhere outside ``EXCLUDED``."""
    names: Set[str] = set()
    for path in SRC.rglob("*.py"):
        if path in EXCLUDED:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    names.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    names.add(node.func.attr)
    return names


def test_every_exported_expression_kind_has_a_producer():
    kinds = {name for name in repro.cir.__all__
             if isinstance(getattr(repro.cir, name), type)
             and issubclass(getattr(repro.cir, name), CExpr)
             and getattr(repro.cir, name) is not CExpr}
    assert "VLoad" in kinds and "VUnpack" in kinds   # the lint sees nodes
    unproduced = sorted(kinds - _constructed_names())
    assert unproduced == [], (
        f"no pass builds {unproduced}: delete the kind and its handlers, "
        f"or add the pass that emits it")

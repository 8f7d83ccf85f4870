"""Module-level effect hygiene: no mutable globals outside declared caches.

Under multi-process sharding (ROADMAP item 1) every worker imports its own
copy of the package; a module-level mutable global that accumulates state
silently diverges between workers and between a worker and the front end.
The rule flags module-level bindings of mutable containers (dict/list/set
literals and constructors) with two exemptions:

* ``__all__`` — the export-list idiom;
* ``ALL_CAPS`` names never mutated anywhere in their own module — constant
  lookup tables, initialized once and only ever read.

Everything else — including ALL_CAPS names the module *does* mutate — is a
finding.  Idempotent caches that are safe to rebuild per process (the
lint-rule registry) carry an inline
``# lint: ignore[effects.global-mutable]`` pragma at the declaration, which
doubles as the reviewed inventory of such caches.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, RuleContext, register_rule

#: constructor calls that build mutable containers
MUTABLE_CONSTRUCTORS = frozenset(
    {"Counter", "OrderedDict", "bytearray", "defaultdict", "deque", "dict",
     "list", "set"}
)

#: method calls that mutate a container in place
MUTATING_METHODS = frozenset(
    {"add", "append", "clear", "discard", "extend", "insert", "pop",
     "popitem", "remove", "setdefault", "update"}
)


def _is_mutable_binding(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.ListComp) or isinstance(value, ast.DictComp):
        return True
    if isinstance(value, ast.SetComp):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name) and func.id in MUTABLE_CONSTRUCTORS:
            return True
    return False


def _mutated_names(tree: ast.Module) -> set[str]:
    """Module-global names the module itself mutates somewhere."""
    mutated: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Name)
            ):
                mutated.add(func.value.id)
        elif isinstance(node, ast.Global):
            mutated.update(node.names)
    return mutated


@register_rule
class GlobalMutableRule(LintRule):
    """No module-level mutable globals outside declared idempotent caches."""

    name = "effects.global-mutable"
    description = (
        "module-level mutable containers diverge between sharded worker "
        "processes; only never-mutated ALL_CAPS constant tables (and "
        "__all__) are exempt — idempotent caches need a reviewed inline "
        "pragma"
    )

    def check_module(self, context: RuleContext) -> list[Finding]:
        mutated = _mutated_names(context.tree)
        findings: list[Finding] = []
        for node in context.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_binding(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name == "__all__":
                    continue
                if name.isupper() and name not in mutated:
                    continue
                findings.append(
                    Finding(
                        rule=self.name,
                        path=context.relpath,
                        line=node.lineno,
                        symbol="<module>",
                        message=(
                            f"module-level mutable global {name!r}; sharded "
                            "worker processes each get a divergent copy — "
                            "pass state explicitly, or mark a rebuild-safe "
                            "idempotent cache with "
                            "# lint: ignore[effects.global-mutable]"
                        ),
                    )
                )
        return findings

"""Every module-level function and class in the package has a caller in
the package: library code whose only user is a test belongs in
tests/oracles.py.  The names that perfbench's tracer wraps are exempt
while it wraps them.  Every module-level import is used in its module,
and every global name a function reads is bound at module level or is a
builtin, so a function-local import cannot go missing unseen.  Two error
classes share an exit code only when the package tells them apart in an
except clause."""

import ast
import builtins
import re
import symtable
from collections import defaultdict
from pathlib import Path

import mbzero
from mbzero import errors

SRC = Path(mbzero.__file__).resolve().parent
TRACING = SRC.parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> set:
    """(module, name) of each TRACED entry, read as text: perfbench is no
    package of the suite."""
    return set(re.findall(r'\("(\w+)", "(\w+)", (?:None|"\w+")\)',
                          TRACING.read_text(encoding="utf-8")))


def _names_used(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _dead_names() -> set:
    """(module, name) of each module-level def or class whose name no
    statement of the package other than its own definition uses."""
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.stem, stmt.name, len(used)))
            used.append(names)
    return {(module, name) for module, name, own in defined
            if not any(name in names for i, names in enumerate(used)
                       if i != own)}


def test_every_definition_has_a_caller_in_the_package():
    assert _dead_names() - _traced_names() == set()


def test_only_these_definitions_live_by_the_tracer_alone():
    # all are test-only and move to tests/oracles.py once untraced; the
    # package calls contour_shift_deltas, newton_filter_roots and
    # arg_rectangles, of which contour_shift_delta, newton_filter_root and
    # arg_zeta_rectangle are the one-item forms
    assert _dead_names() == {("mbfilter", "spectral_filter"),
                             ("mbfilter", "contour_shift_delta"),
                             ("mbfilter", "newton_filter_root"),
                             ("specfun", "arg_zeta_rectangle"),
                             ("operatorlab", "prufer_integrate")}


def _unused_imports() -> set:
    """(module, name) of each name a module-level import binds that no
    other statement of its module uses."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        imports = [stmt for stmt in body
                   if isinstance(stmt, (ast.Import, ast.ImportFrom))
                   and getattr(stmt, "module", None) != "__future__"]
        used = set().union(*(_names_used(stmt) for stmt in body
                             if stmt not in imports))
        for stmt in imports:
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.add((path.stem, name))
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == set()


def _function_tables(table):
    """Every function, lambda and comprehension scope below ``table``;
    annotation scopes are left out, since ``from __future__ import
    annotations`` never evaluates them."""
    for child in table.get_children():
        if child.get_type() == "function":
            yield child
        yield from _function_tables(child)


def _unbound_global_reads() -> set:
    """(module, scope, name) of each global name that a function scope reads
    but neither its module binds nor the builtins define."""
    unbound = set()
    for path in sorted(SRC.glob("*.py")):
        top = symtable.symtable(path.read_text(encoding="utf-8"),
                                str(path), "exec")
        scopes = list(_function_tables(top))
        bound = {sym.get_name() for sym in top.get_symbols()
                 if sym.is_assigned() or sym.is_imported()}
        unbound |= {(path.stem, scope.get_name(), sym.get_name())
                    for scope in scopes for sym in scope.get_symbols()
                    if sym.is_global() and sym.is_referenced()
                    and sym.get_name() not in bound
                    and not hasattr(builtins, sym.get_name())}
    return unbound


def test_every_global_a_function_reads_is_bound():
    assert _unbound_global_reads() == set()


def _caught_names() -> set:
    """Names in the except clauses of the package."""
    caught = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names_used(node.type)
    return caught


def test_one_uncaught_error_class_per_exit_code():
    caught, uncaught = _caught_names(), defaultdict(set)
    for name, cls in vars(errors).items():
        if (isinstance(cls, type) and issubclass(cls, errors.MbzeroError)
                and name not in caught):
            uncaught[cls.exit_code].add(name)
    assert {code: names for code, names in uncaught.items()
            if len(names) > 1} == {}

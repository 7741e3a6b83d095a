"""Behaviour is chosen by arguments, not by the environment.

One variable remains, read in exactly one module: ``REPRO_OBS`` (the
observability switch, :mod:`repro.obs.runtime`).  Every other choice
is an argument of an entry point or follows from what the code can
observe (numpy is used when it is installed).  The guard walks
the AST of every module under ``src/repro`` and collects each read of
``os.environ`` or ``os.getenv``.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

#: A read whose variable name is not a string literal.
COMPUTED = "<computed>"


def _is_os_attr(node, attr):
    """``os.<attr>``, or a bare ``<attr>`` imported from os."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
    return isinstance(node, ast.Name) and node.id == attr


def _name(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return COMPUTED


def environment_reads(source):
    """Every variable name one module's source reads from the
    environment; a use of ``os.environ`` that names no single variable
    (iteration, a copy) counts as :data:`COMPUTED`."""
    tree = ast.parse(source)
    named = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if _is_os_attr(func, "getenv"):
                named.add(id(func))
                reads.append(_name(node.args[0]) if node.args else COMPUTED)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop", "setdefault")
                and _is_os_attr(func.value, "environ")
            ):
                named.add(id(func.value))
                reads.append(_name(node.args[0]) if node.args else COMPUTED)
        elif isinstance(node, ast.Subscript) and _is_os_attr(
            node.value, "environ"
        ):
            named.add(id(node.value))
            reads.append(_name(node.slice))
        elif isinstance(node, ast.Compare) and any(
            _is_os_attr(comparator, "environ")
            for comparator in node.comparators
        ):
            named.update(id(c) for c in node.comparators)
            reads.append(_name(node.left))
    for node in ast.walk(tree):
        if _is_os_attr(node, "environ") and id(node) not in named:
            reads.append(COMPUTED)
    return reads


def _reads_by_name():
    """``{variable: sorted modules reading it}`` over the package."""
    readers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for name in environment_reads(path.read_text(encoding="utf-8")):
            readers.setdefault(name, set()).add(module)
    return {name: sorted(modules) for name, modules in readers.items()}


class TestEnvironmentGuard:
    def test_only_one_variable_is_read(self):
        assert set(_reads_by_name()) == {"REPRO_OBS"}

    def test_each_variable_is_read_in_one_module(self):
        assert _reads_by_name() == {"REPRO_OBS": ["obs/runtime.py"]}

    def test_scanner_sees_every_read_form(self):
        source = (
            "import os\n"
            "from os import environ, getenv\n"
            "os.environ.get('A')\n"
            "os.environ['B']\n"
            "os.getenv('C', '')\n"
            "'D' in os.environ\n"
            "environ.pop('E', None)\n"
            "getenv(name)\n"
            "dict(os.environ)\n"
        )
        assert environment_reads(source) == [
            "A", "B", "C", "D", "E", COMPUTED, COMPUTED,
        ]

"""Source hygiene: no package module imports a name it does not use, and
no private definition outlives its last caller.

Each `src/spikeprune/*.py` except `__init__.py` is parsed with `ast`; a
name bound by an import must be read somewhere in the module (string
annotations included) or listed in its `__all__`. `__init__.py` re-exports:
the names it imports must be exactly its `__all__`. A deletion that leaves
its import or its export behind fails here. A private top-level function or
class (`_name`) must be referenced somewhere in the package outside its own
definition, so a helper whose callers are all gone fails here too.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spikeprune"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree) -> set:
    """Names read inside string annotations, which ast leaves as constants."""
    names = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """The names source imports but neither reads nor lists in __all__, with
    the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _references(module: str, tree) -> list:
    """(module, name, node) for each reference in tree to a package module's
    top-level name: a name it reads (its own), a name it imports from a
    sibling module, or an attribute of a sibling it imports whole."""
    refs, siblings = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                else:
                    refs.append((node.module, alias.name, node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((module, node.id, node))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings):
            refs.append((siblings[node.value.id], node.attr, node))
    return refs


def unreferenced_private_definitions(sources: dict) -> list:
    """The private top-level functions and classes of sources (module name:
    source) that nothing in sources refers to outside the definition
    itself, as "module.name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = [ref for module, tree in trees.items() for ref in _references(module, tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            inside = set(map(id, ast.walk(node)))
            if not any(target == module and name == node.name and id(found) not in inside
                       for target, name, found in refs):
                unused.append(f"{module}.{node.name}")
    return sorted(unused)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_package_exports_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    import spikeprune
    assert imported == set(spikeprune.__all__)
    assert len(spikeprune.__all__) == len(set(spikeprune.__all__))
    namespace = {}
    exec("from spikeprune import *", namespace)
    assert set(namespace) - {"__builtins__"} == imported


def test_check_catches_what_it_should():
    source = '''
from __future__ import annotations
import os, os.path as osp
import numpy as np
from .model import SUBLAYERS, MaskSet, TimestepPlan
from .errors import InvalidInputError as Bad

__all__ = ["TimestepPlan"]

def f(masks: "MaskSet") -> int:
    return np.zeros(3).size
'''
    assert unused_imports(source) == ["Bad (line 6)", "SUBLAYERS (line 5)", "os (line 3)",
                                      "osp (line 3)"]


def test_every_private_definition_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_dead_code_check_catches_what_it_should():
    sources = {
        "a": """
def _used(x):
    return x

def _recursive(n):
    return _recursive(n - 1) if n else 0

class _Orphan:
    pass

def _exported():
    return _used(1)

def _shadowed():  # b's own _shadowed is not this one
    pass

def __getattr__(name):
    raise AttributeError(name)
""",
        "b": """
from .a import _exported
from . import a

def _shadowed():
    return a._used(2)

def public():
    return _exported() + _shadowed()
""",
    }
    assert unreferenced_private_definitions(sources) == ["a._Orphan", "a._recursive",
                                                         "a._shadowed"]

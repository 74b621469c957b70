"""Every module-level import in `zoneseq` is read by its module, and every
definition is used by the program, somewhere other than its own definition.

`__init__.py` is left out of the import check: its imports are the
package's re-exports. Those re-exports, and the tests, are not uses of a
definition: a definition that only tests call is dead code.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zoneseq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def program_files(*dirs):
    """The Python files under `dirs` that are not tests."""
    return sorted(
        p for d in dirs for p in d.rglob("*.py")
        if not p.name.startswith("test_") and p.name != "conftest.py"
    )


# Where a use of a `zoneseq` definition counts.
USED_IN = program_files(ROOT / "src", ROOT / "perfbench")


def unused_imports(source: str):
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_checker_flags_an_unread_import():
    source = (
        "import os\nimport numpy as np\nfrom typing import Dict, List\n"
        "x: List = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "Dict"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def uses(tree) -> Counter:
    """How often each identifier is read as a name or an attribute, imported,
    or given as a string (as in `monkeypatch.setattr(module, "name", ...)`)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


def definitions(tree):
    """(name, node) of each module-level function, class and assigned name, and each
    method and annotated class field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unused_definitions(source: str, used: Counter):
    """Non-dunder names `source` defines that `used` (the uses counted over every
    scanned file, this one included) has nowhere but in their own definitions."""
    unused = []
    for name, node in definitions(ast.parse(source)):
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and used[name] <= uses(node)[name]:
            unused.append(name)
    return unused


def test_checker_flags_an_unused_definition():
    source = (
        "import os\n__version__ = '1'\nLIMIT = 3\nSPARE: int = 4\n"
        "def run(n):\n    return run(n - 1) if n else LIMIT\n"
        "def stub(): pass\ndef loop(): return loop()\n"
        "class Job:\n    name: str\n    owner: str = ''\n"
        "    def go(self): return self.name\n    def stop(self): return self.go()\n"
    )
    used = uses(ast.parse(source)) + uses(ast.parse("run(2); getattr(Job, 'stub')"))
    assert unused_definitions(source, used) == ["SPARE", "loop", "owner", "stop"]


def program_uses(files) -> Counter:
    """`uses` summed over `files`, without the imports of an `__init__.py`
    (its re-exports)."""
    found = Counter()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            tree.body = [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
        found += uses(tree)
    return found


def test_checker_counts_no_test_and_no_reexport(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    source = "def api(): pass\ndef tested(): pass\ndef helper(): pass\n"
    (package / "mod.py").write_text(source)
    (package / "__init__.py").write_text("from .mod import api, tested\n")
    (package / "main.py").write_text("from .mod import helper\nhelper()\n")
    (tmp_path / "test_mod.py").write_text("from pkg.mod import tested\ntested()\n")
    (tmp_path / "conftest.py").write_text("from pkg import api\napi()\n")
    files = program_files(tmp_path)
    assert [p.name for p in files] == ["__init__.py", "main.py", "mod.py"]
    assert unused_definitions(source, program_uses(files)) == ["api", "tested"]


@pytest.fixture(scope="module")
def used():
    return program_uses(USED_IN)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_defines_nothing_unused(module, used):
    assert unused_definitions((SRC / module).read_text(encoding="utf-8"), used) == []

"""Every module-level import in `zoneseq` is read by its module.

`__init__.py` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "zoneseq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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

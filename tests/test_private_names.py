"""No module of the package imports a private numpy name without a fallback.

A private name (a dotted path with a component that starts with ``_``,
dunders aside) may move in any numpy release; imported bare, its absence
makes ``import manismooth`` raise, and every command exits 1 with a
traceback.  Such an import must sit in the body of a ``try`` whose
``except ImportError`` handler binds every name the import binds.
"""

import ast
from pathlib import Path

import pytest

import manismooth

SOURCES = sorted(Path(manismooth.__file__).resolve().parent.glob("*.py"))


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.endswith("__") for part in dotted.split("."))


def _numpy_private_imports(node):
    """The names an import statement binds from a private numpy path, if any."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names
                if a.name.split(".")[0] == "numpy" and _private(a.name)]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
        return [a.asname or a.name for a in node.names if _private(f"{node.module}.{a.name}")]
    return []


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("ImportError", "ModuleNotFoundError") for t in types)


def unguarded_private_imports(source: str) -> list[str]:
    """``line: names`` of each private numpy import not guarded by a try whose ImportError handler rebinds them."""
    tree = ast.parse(source)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for stmt in node.body:
                names = _numpy_private_imports(stmt)
                for handler in filter(_catches_import_error, node.handlers):
                    bound = {n.id for n in ast.walk(handler) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                    if names and set(names) <= bound:
                        guarded.add(stmt)
    return [f"{node.lineno}: {', '.join(names)}" for node in ast.walk(tree)
            if (names := _numpy_private_imports(node)) and node not in guarded]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_numpy_import_without_a_fallback(path):
    assert unguarded_private_imports(path.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from numpy._core.multiarray import count_nonzero", ["1: count_nonzero"]),
    ("from numpy.linalg import _umath_linalg as u", ["1: u"]),
    ("import numpy._core", ["1: numpy"]),
    ("try:\n    from numpy.linalg import _umath_linalg\nexcept ImportError:\n    _umath_linalg = None", []),
    # a handler that catches something else, or rebinds too little, is no fallback
    ("try:\n    from numpy.linalg import _umath_linalg\nexcept KeyError:\n    _umath_linalg = None", ["2: _umath_linalg"]),
    ("try:\n    from numpy.linalg._umath_linalg import qr_r_raw as a, qr_reduced as b\n"
     "except ImportError:\n    a = None", ["2: a, b"]),
    ("import numpy as np\nfrom numpy.linalg import qr", []),
])
def test_the_guard_flags_only_unguarded_private_imports(source, found):
    assert unguarded_private_imports(source) == found

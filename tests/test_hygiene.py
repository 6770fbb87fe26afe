"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "marlshield"
# the package __init__ imports names in order to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = "import math\nimport os.path\nfrom x import a, b as c\n__all__ = ['a']\nos.sep\n"
    assert unused_imports(source) == ["math (line 1)", "c (line 3)"]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private functions, classes and constants (not dunders), by line."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def referenced_names(source: str) -> set[str]:
    """Names a module reads, as bare names, attributes or `from` imports."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    used = set().union(*(referenced_names(s) for s in sources.values()))
    orphans = [
        f"{module}:{line} {name}"
        for module, source in sorted(sources.items())
        for name, line in private_definitions(source).items()
        if name not in used
    ]
    assert orphans == []


def test_checker_flags_unreferenced_private_names():
    source = (
        "import x\n_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(): return _A\nclass _C: pass\ndef _g(): pass\nx._g\n"
    )
    assert private_definitions(source) == {"_A": 2, "_B": 3, "_f": 5, "_C": 6, "_g": 7}
    assert {"_A", "_g"} <= referenced_names(source)
    assert not {"_B", "_f", "_C"} & referenced_names(source)


# Public names no package module reads, kept on purpose; a class member is `Class.name`.
UNREAD_PUBLIC_KEEP = {
    "h_cooperative": "the paper's cooperative barrier value; tests and the benchmark's safe starts use it",
    "h_noncooperative": "the paper's inert-entity barrier value; tests and the benchmark's safe starts use it",
    "h_rate": "the analytic barrier rate the row formula is derived from; the derivation tests use it",
    "cbf_condition_residual": "the paper's controlled-growth condition; the derivation tests check rows against it",
    "face_clearances": "the wall geometry demo 01, the acceptance tests and the row-wall shield oracle measure "
                       "faces with; `local_rows` measures them inline",
    "Mlp.parameters": "the per-layer views the benchmark's learner workload and the learner tests read",
    "QpSolution.kkt_residual": "the certificate the benchmark's tracer gates every traced solve on",
}


def public_definitions(source: str) -> dict[str, int]:
    """Module-level public functions and classes, by line."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def public_members(source: str) -> dict[str, int]:
    """Public methods and properties of module-level classes, as `Class.name`, by line.

    A property is a decorated method or a class-body assignment whose value
    calls `property`, such as `a, b = (property(...) for ...)`.
    """
    found = {}
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "property"
                for n in ast.walk(node.value)
            ):
                names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found.update((f"{cls.name}.{name}", node.lineno) for name in names if not name.startswith("_"))
    return found


def unread_public(sources: dict[str, str], keep) -> tuple[list[str], list[str]]:
    """Public definitions and class members no module reads, less `keep`; and `keep` entries one does read.

    A re-export from `__init__.py` is not a read. A member counts as read
    when any module reads its name as an attribute or a bare name.
    """
    used = set().union(*(referenced_names(s) for m, s in sources.items() if m != "__init__.py"))
    defined = {
        name: f"{module}:{line}"
        for module, source in sorted(sources.items())
        for name, line in {**public_definitions(source), **public_members(source)}.items()
    }
    assert set(keep) <= set(defined), sorted(set(keep) - set(defined))
    orphans = [f"{where} {name}" for name, where in defined.items()
               if name.rpartition(".")[2] not in used and name not in keep]
    return orphans, [name for name in keep if name.rpartition(".")[2] in used]


def test_no_unread_public_definitions():
    # code only tests or demos call belongs with them; a keep-list entry a
    # module starts reading must leave the list, so the list cannot rot
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_public(sources, UNREAD_PUBLIC_KEEP) == ([], [])


def test_checker_flags_unread_public_names():
    source = "import x\nA = 1\ndef f(): return g()\ndef g(): pass\nclass C: pass\ndef _h(): pass\n"
    assert public_definitions(source) == {"f": 3, "g": 4, "C": 5}
    assert "g" in referenced_names(source) and not {"f", "C"} & referenced_names(source)


def test_checker_flags_unread_members_and_stale_keep_entries():
    source = (
        "class C:\n"
        "    a, b = (property(len) for _ in range(2))\n"
        "    c = 1\n"
        "    @property\n"
        "    def d(self): return self.a\n"
        "    def e(self): pass\n"
        "    def _f(self): pass\n"
        "def g(): return C().e()\n"
    )
    assert public_members(source) == {"C.a": 2, "C.b": 2, "C.d": 5, "C.e": 6}
    sources = {"m.py": source, "__init__.py": "from .m import C, g\nC.b\n"}
    assert unread_public(sources, {"C.b": "kept"}) == (["m.py:8 g", "m.py:5 C.d"], [])
    assert unread_public(sources, {"C.b": "kept", "C.e": "kept", "g": "kept"}) == (["m.py:5 C.d"], ["C.e"])
    with pytest.raises(AssertionError):
        unread_public(sources, {"C.c": "not a method or property"})

"""Import hygiene of ``src/repro``, checked on each module's syntax tree.

No production module imports the reference searches:
:mod:`repro.homomorphism.reference` holds the oracles the join plans
and compiled query evaluation are checked against.  Tests, the
benchmarks and the fuzzer's oracles (:mod:`repro.fuzz`) call them
directly; any other module of ``src/repro`` that imported them could
put a served request on the oracle path unnoticed.

And no module imports a name it never uses.
"""

import ast
from pathlib import Path

ORACLE = "repro.homomorphism.reference"
SRC = Path(__file__).resolve().parents[1] / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_names(path: Path):
    """Every module or module attribute ``path`` imports, absolute."""
    module = module_name(path)
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def imports_oracle(path: Path) -> bool:
    return any(name == ORACLE or name.startswith(ORACLE + ".")
               for name in imported_names(path))


def test_only_the_fuzzer_imports_the_reference_searches():
    importers = {module_name(path)
                 for path in (SRC / "repro").rglob("*.py")
                 if imports_oracle(path)}
    # The walk sees real imports: the fuzzer's oracles are one.
    assert "repro.fuzz.oracles" in importers
    offenders = sorted(name for name in importers
                       if name != "repro.fuzz"
                       and not name.startswith("repro.fuzz."))
    assert offenders == []


def bound_names(tree):
    """``(name, line)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads: in code, in ``__all__``, or in a
    string annotation."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                used.update(inner.id for inner in ast.walk(ast.parse(
                    node.value, mode="eval")) if isinstance(inner, ast.Name))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue      # a package's imports are its public surface
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        unused += [f"{module_name(path)}:{line}: {name}"
                   for name, line in bound_names(tree) if name not in used]
    assert unused == []

"""No production module imports the reference searches.

:mod:`repro.homomorphism.reference` holds the oracles the join plans
and compiled query evaluation are checked against.  Tests, the
benchmarks and the fuzzer's oracles (:mod:`repro.fuzz`) call them
directly; any other module of ``src/repro`` that imported them could
put a served request on the oracle path unnoticed.
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

"""The closed-form layer's private names stay inside the library.

``surfaces`` and ``cli`` reach the closed forms through the public kernels
and constants of ``skewcoh.coherence`` only; ``verify``, the certification
layer, may import its private names.  The modules are parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skewcoh"


def coherence_names(path: Path) -> list[str]:
    """Every name ``path`` takes from the coherence module: imported with
    ``from .coherence import``, or read as an attribute of the module bound
    by ``from . import coherence`` or ``import skewcoh.coherence as ...``."""
    tree = ast.parse(path.read_text())
    names, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("coherence", "skewcoh.coherence"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "skewcoh"):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "coherence"}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names if alias.name == "skewcoh.coherence" and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.append(node.attr)
    return names


@pytest.mark.parametrize("module", ["surfaces", "cli"])
def test_no_private_coherence_name_is_imported(module):
    names = coherence_names(PACKAGE / f"{module}.py")
    assert names, f"{module} takes nothing from coherence"
    assert [name for name in names if name.startswith("_")] == []

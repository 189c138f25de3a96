"""Every splatlab name the demos, the benchmark workloads and the README's quick start read resolves on the package.

The scripts and the README's fenced python blocks are parsed with ast, never
run, so an export pruned from ``splatlab/__init__.py`` fails here rather than
in a demo, a benchmark run or the README's first example.
"""

import ast
import re
from pathlib import Path

import pytest

import splatlab

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "bench" / "workloads.py", ROOT / "README.md"]


def _source(path):
    """A script's text, or the fenced python blocks of a Markdown file."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    return text


def _dotted(node):
    """"sl.geometry.CULL_DEPTH" as ["sl", "geometry", "CULL_DEPTH"]; None unless it bottoms out at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def splatlab_reads(tree):
    """Names taken by ``from splatlab import ...`` and dotted reads through ``import splatlab as alias``."""
    aliases = {a.asname for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "splatlab" and a.asname}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "splatlab":
            reads.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] in aliases:
                reads.add(".".join(chain[1:]))
    return reads


def _resolves(name):
    obj = splatlab
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_names_resolve_on_package(path):
    reads = splatlab_reads(ast.parse(_source(path)))
    assert reads, f"{path.name} reads no splatlab name"
    assert [name for name in sorted(reads) if not _resolves(name)] == []

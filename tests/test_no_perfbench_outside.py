"""Nothing outside perfbench/ names it.

perfbench/run.py is the one checked-in timing script, and it drives the
package from outside, through cli.main.  A module or tool that loaded
perfbench, or leaned on its internals, would be a second timing script
and would break when perfbench changes.
"""

import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def files_naming(root: str, word: bytes = b"perfbench") -> list[str]:
    """The files under root whose bytes contain word, bytecode caches
    skipped; [] when root does not exist."""
    found = []
    for top, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                if word in fh.read():
                    found.append(os.path.relpath(path, root))
    return found


def test_detector(tmp_path):
    (tmp_path / "tool.py").write_text("import perfbench.run\n")
    (tmp_path / "clean.py").write_text("import cmtwist\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "old.pyc").write_bytes(b"perfbench")
    assert files_naming(str(tmp_path)) == ["tool.py"]
    assert files_naming(str(tmp_path / "missing")) == []


@pytest.mark.parametrize("tree", ["src", "tools"])
def test_no_file_names_perfbench(tree):
    assert files_naming(os.path.join(ROOT, tree)) == []

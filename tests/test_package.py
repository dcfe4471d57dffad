import ast
import contextlib
import inspect
import io
import re
import types
from pathlib import Path

import orbitdex
import orbitdex.cli

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_only_public_objects():
    """Every name in __all__ exists and is an object, not a submodule."""
    for name in orbitdex.__all__:
        assert not isinstance(getattr(orbitdex, name), types.ModuleType), name


def test_all_functions_are_the_cli_and_readme_surface():
    """Every function in __all__ is imported by the command line or named
    in the README; helpers are imported from their submodules."""
    cli = ast.parse(Path(inspect.getfile(orbitdex.cli)).read_text())
    imported = {alias.name for node in ast.walk(cli)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text()
    for name in orbitdex.__all__:
        if inspect.isfunction(getattr(orbitdex, name)):
            assert (name in imported
                    or re.search(rf"\b{name}\b", readme)), name


def test_readme_python_blocks_print_their_commented_output():
    """Each python block of the README, run as it stands, prints what the
    comments after its print calls say."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        expected = [line.split("# ", 1)[1].strip()
                    for line in block.splitlines() if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected

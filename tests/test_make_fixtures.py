import shutil
import subprocess
import sys
from pathlib import Path

from conftest import fixture_dir

ROOT = Path(__file__).resolve().parents[1]


def test_make_fixtures_reproduces_bundled_files(tmp_path):
    """tools/make_fixtures.py, run on a copy of the package without its
    fixtures, writes every bundled fixture byte for byte."""
    shutil.copytree(ROOT / "src" / "orbitdex", tmp_path / "src" / "orbitdex",
                    ignore=shutil.ignore_patterns("fixtures", "__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "make_fixtures.py", tmp_path / "tools")
    subprocess.run([sys.executable, "tools/make_fixtures.py"], cwd=tmp_path,
                   check=True, capture_output=True)
    generated = tmp_path / "src" / "orbitdex" / "fixtures"
    bundled = fixture_dir()
    names = sorted(p.name for p in bundled.iterdir()
                   if p.suffix in (".germ", ".json"))
    assert sorted(p.name for p in generated.iterdir()) == names
    for name in names:
        assert (generated / name).read_bytes() == \
            (bundled / name).read_bytes(), name

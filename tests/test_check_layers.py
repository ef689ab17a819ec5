"""tools/check_layers.py: an algorithm package may not import the shell."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from check_layers import ALLOWED, check  # noqa: E402


def write(root, relative, source):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


def test_source_tree_passes():
    assert check(ROOT / "src" / "repro") == []


def test_upward_import_fails(tmp_path):
    write(tmp_path, "core/search.py", "from repro.relational import Relation\n")
    write(
        tmp_path,
        "sketches/store.py",
        "def load():\n    from repro.serving.gateway import Gateway\n",
    )
    write(tmp_path, "discovery/index.py", "from ..persist import snapshot\n")
    write(tmp_path, "serving/gateway.py", "from repro.core import Mileena\n")
    assert check(tmp_path, allowed=set()) == [
        "discovery/index.py:1: imports repro.persist from a higher layer",
        "sketches/store.py:2: imports repro.serving.gateway from a higher layer",
    ]


def test_allowed_import_passes_and_stale_entry_fails(tmp_path):
    write(tmp_path, "core/platform.py", "from repro import obs\n")
    assert check(tmp_path, allowed={("core/platform.py", "repro.obs")}) == []
    stale = (
        "core/platform.py: allow-list entry for repro.persist matches no "
        "import; delete the entry"
    )
    assert stale in check(tmp_path, allowed=ALLOWED)

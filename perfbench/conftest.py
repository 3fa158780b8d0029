"""Puts the library sources and the benchmark modules on the import path, so
``python -m pytest perfbench`` runs from the repository root."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

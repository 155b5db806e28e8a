"""Put the package sources, the oracles and this directory on the import path
for ``python3 -m pytest bench``."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src", HERE.parent / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

"""Let the CLI child processes that some tests start import the in-tree package.

``pythonpath`` in pyproject.toml covers this process only; children see the
environment, so ``src`` is prepended to their PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

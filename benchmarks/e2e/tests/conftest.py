"""Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repo
root.  Puts the benchmark's own modules and ``src`` on the path, the
way ``run.py`` does for itself."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]

for path in (PERF.parents[1] / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

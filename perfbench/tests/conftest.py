import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# the benchmark's modules import each other as top-level names, as they do
# when run as scripts; the package comes from the source tree
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import sys
from pathlib import Path

# Allow running the suite from a source checkout without installing, and
# let the tests import the tools and the benchmark's modules by name.
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "tools"),
                                  str(ROOT / "perfbench"))
                if path not in sys.path]

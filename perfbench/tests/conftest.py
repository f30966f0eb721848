"""Make the program (``src/``) and the benchmark package importable."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
for path in (os.path.join(os.path.dirname(_BENCH), "src"), _BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

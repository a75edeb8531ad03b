"""Entry point: ``python3 benchmarks/suite/run.py --workload NAME ...``.

A script, so it can be started from a bare checkout; the logic lives in
``runner.py`` (importable by the tests as ``suite.runner``).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from suite.runner import main

    raise SystemExit(main())

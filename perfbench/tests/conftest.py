"""Make the benchmark's modules and the program importable for its tests.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

# the same pinning as a benchmark run: no REPRO_* variable may change
# the configuration, and src/ is importable
run.prepare_environment()

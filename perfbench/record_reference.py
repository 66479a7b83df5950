"""Rewrite ``reference.json`` from the working tree's library.

    python3 perfbench/record_reference.py

The sweeps gate compares every gain-sweep crossing and every frequency-sweep
end point with these values to 1e-9 relative; re-record only when a change
is meant to move them.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import phases  # noqa: E402

if __name__ == "__main__":
    phases.check_working_tree(phases.REFERENCE_PATH.parent.parent)
    phases.REFERENCE_PATH.write_text(
        json.dumps(phases.record_references(), indent=1, sort_keys=True)
        + "\n")

"""Write expected.json: what every op observes at the current commit.

The committed file was recorded at the seed commit, whose outputs the
package's own tests certify.  Re-record only when an output is meant to
change, and say so in the change that does it.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    recorded: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        seed = workloads.RECORDED_SEEDS[0]
        for name in workloads.NAMES:
            for op in workloads.build(name, seed, Path(tmp)):
                recorded[op.label] = op.run()
        for seed in workloads.RECORDED_SEEDS[1:]:
            label = workloads.sample_label(seed)
            (op,) = [op for op in workloads.build("codes", seed, Path(tmp)) if op.label == label]
            recorded[label] = op.run()
    workloads.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} ops in {workloads.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

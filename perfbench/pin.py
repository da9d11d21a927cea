"""Write expected.json: the outputs every benchmark item is checked against.

Run from the repository root as `python3 perfbench/pin.py`.  The values
were pinned from the library at the commit that introduced the
benchmark; re-pin only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lrpictures  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    max_size = workloads.MAX_SIZE[False]
    report = lrpictures.sweep(max_size)
    if not report.ok:
        sys.exit("sweep found failures; refusing to pin them")
    instances = list(lrpictures.iter_instances(max_size))
    coefficients = {}
    for inst in instances:
        r = lrpictures.verify_bijection(inst)
        coefficients[workloads.instance_key(inst)] = r.lattice
    conjecture = {workloads.instance_key(inst): workloads.run_item(("conjecture", inst))
                  for inst in instances}
    embedding = {}
    for item in workloads.build("orders", 0):
        if item[0] == "embedding":
            oks = workloads.run_item(item)
            if not all(oks):
                sys.exit(f"embedding check fails for {workloads.label(item)}")
            embedding[workloads.label(item)] = len(oks)
    heavy = {}
    for tiny in (False, True):
        for item in workloads.build("heavy", 0, tiny):
            code, text = workloads.run_item(item)
            if code != 0:
                sys.exit(f"{item[1]} exits {code}")
            heavy[item[1]] = text
    expected = {
        "sizes": [[row.instances, row.max_coefficient] for row in report.per_size],
        "coefficients": dict(sorted(coefficients.items())),
        "conjecture": dict(sorted(conjecture.items())),
        "embedding": dict(sorted(embedding.items())),
        "heavy": dict(sorted(heavy.items())),
    }
    with workloads.EXPECTED_PATH.open("w") as fh:
        json.dump(expected, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()

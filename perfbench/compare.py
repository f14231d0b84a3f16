"""Compare two sets of benchmark result records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `result-*.json` records that `run.py` writes to
`perfbench/out/`. For every workload, trace mode and metric, prints both
sides' median and quartiles and the change of the median. Records from the
compiled and the pure-Python enumeration kernel measure different programs:
if the kernel flag differs between or within the sides, nothing is compared
and the exit status is 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> tuple[dict, set]:
    """{(workload, trace, metric): [values]} and the kernel flags seen."""
    values: dict[tuple, list[float]] = defaultdict(list)
    kernels = set()
    for path in sorted(directory.glob("result-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        info = record["info"]
        kernels.add(info["env"]["have_compiled"])
        for name, metric in record["metrics"].items():
            values[(info["workload"], info["trace"], name)].append(metric["value"])
    return values, kernels


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_kernels = load(Path(argv[0]))
    new, new_kernels = load(Path(argv[1]))
    kernels = base_kernels | new_kernels
    if len(kernels) > 1:
        print(f"refusing to compare: kernel flags differ ({sorted(map(str, kernels))})", file=sys.stderr)
        return 2
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = f"{n / b - 1:+.1%}" if b else "n/a"
        workload, trace, name = key
        print(f"{workload}\ttrace={trace}\t{name}\t{summary(base[key])}\t{summary(new[key])}\t{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two benchmark records written with ``run.py --record``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the records' hardware profiles, workloads or
trace modes differ: a number measured on other hardware is no baseline.
"""

import json
import sys


def _load(path):
    with open(path) as f:
        return json.load(f)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (_load(path) for path in argv)
    for key in ("profile", "workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs\n  {base[key]}\n  {new[key]}", file=sys.stderr)
            return 2
    print(f"{'metric':<28} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        b, n = m["value"], new["metrics"][name]["value"]
        ratio = f"{n / b:9.3f}" if b else "        -"
        print(f"{name:<28} {b:14.4f} {n:14.4f} {ratio} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Rewrite pins.json: the input hash of every workload for seeds 0-99.

    python3 perfbench/pin.py

``run.py`` fails a run whose generated inputs no longer hash to the
pinned value, so an edit to the pattern functions cannot silently change
what the benchmark measures.  Re-pin only on purpose, and say why.
"""

import json
import sys

import common

SEEDS = range(100)


def main() -> int:
    common.check_checkout()
    sys.path.insert(0, str(common.SRC))
    import cli_cold
    import farm
    import service_mix

    pins = {
        name: {str(seed): mod.input_hash(seed) for seed in SEEDS}
        for name, mod in (("cli-cold", cli_cold), ("farm", farm), ("service-mix", service_mix))
    }
    with open(common.HERE / "pins.json", "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

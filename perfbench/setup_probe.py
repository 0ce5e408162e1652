"""Set-up time of one fresh interpreter, printed in seconds.

    python3 perfbench/setup_probe.py [CONFIG]

Imports the nexusopt CLI (the whole package, as the `nexusopt` command does)
and, given a config path, loads it and builds its problem. Run from the root
of a checkout with PYTHONPATH=src.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import nexusopt.cli  # noqa: F401

    if len(sys.argv) > 1:
        from nexusopt import config, harness, numerics

        cfg = config.load_config(sys.argv[1])
        harness.build_problem(cfg, numerics.rng_root(cfg["seed"]))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

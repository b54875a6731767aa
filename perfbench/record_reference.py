"""Records the exact-table digests that gate the ruin-tables workload.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are trusted; it rewrites
perfbench/reference.json with one digest per pooled environment.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import RuinTables  # noqa: E402


def main() -> None:
    wl = RuinTables()
    digests = {}
    for env_seed in range(wl.ENV_POOL):
        st = wl.setup(env_seed)
        wl.run(st, 0)
        digests[str(env_seed)] = st.unit_digests[0]
        print(env_seed, digests[str(env_seed)], flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

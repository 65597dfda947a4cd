"""Record the solutions that the solve-large workload checks against.

    python3 perfbench/record_reference.py

Solves the 100 x 10 markets of sample_instance seeds 0..SEEDS-1 and writes
perfbench/reference_solve_large.json: per market, whether it was solved
consistently, the buyers with a mixed-case diagnostic, the seller and buyer
utilities, and every buyer's price column (12 significant digits).  The
committed file was recorded once, before any solver optimisation; a change
that claims a speed-up must not re-record it, or the check would compare the
change with itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bwmarket import game  # noqa: E402

from workloads import REFERENCE, large_instance, mixed_buyers  # noqa: E402

SEEDS = 64


def numbers(values) -> list[float]:
    return [float(f"{v:.12g}") for v in values]


def main() -> int:
    instances = []
    for seed in range(SEEDS):
        sol = game.solve_equilibrium(large_instance(seed))
        instances.append({
            "seed": seed, "consistent": bool(sol.consistent),
            "mixed": sorted(mixed_buyers(sol)),
            "rsu_utilities": numbers(sol.rsu_utilities),
            "uav_utilities": numbers(sol.uav_utilities),
            "prices": [numbers(column) for column in sol.prices.prices.T],
        })
    header = {"ranges": {"similarity": [0.5, 1.0]}, "num_uavs": 100, "num_rsus": 10}
    lines = ",\n".join(json.dumps(i, separators=(",", ":")) for i in instances)
    REFERENCE.write_text(f'{{"sample_instance": {json.dumps(header)},\n'
                         f'"instances": [\n{lines}\n]}}\n')
    inconsistent = sum(not i["consistent"] for i in instances)
    mixed = sum(len(i["mixed"]) for i in instances)
    print(f"wrote {REFERENCE.name}: {SEEDS} instances, {inconsistent} inconsistent, "
          f"{mixed} mixed-case buyers")
    return 0


if __name__ == "__main__":
    sys.exit(main())

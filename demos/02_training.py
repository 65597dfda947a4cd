"""Train every pricing algorithm on one market and compare learning curves.

The analytic equilibrium supplies the reference line; the learned policies
should climb toward it while the random policy stays well below.
"""

import numpy as np

from bwmarket import ExperimentConfig, run_training_group


def main():
    cfg = ExperimentConfig(num_uavs=3, num_rsus=2, episodes=300)
    cfg.ranges["similarity"] = (0.85, 1.0)
    seed = 0

    # the four algorithms train in lock step; each record equals its solo run,
    # and the group's first record is the market's solved equilibrium
    algos = ("tiny_madrl", "ppo", "greedy", "random")
    solve, *trained = run_training_group(cfg, algos, seed)
    records = dict(zip(algos, trained))

    theoretical = solve.theoretical
    print(f"theoretical baseline (mean seller utility): {theoretical:.4f}\n")

    header = f"{'episode':>8}" + "".join(f"{a:>12}" for a in records)
    print(header)
    for episode in range(0, cfg.episodes, 30):
        row = f"{episode:>8}"
        for rec in records.values():
            window = rec.avg_rewards[episode:episode + 30]
            row += f"{window.mean():>12.4f}"
        print(row)

    print("\nfinal 10% of training, fraction of theoretical:")
    for algo, rec in records.items():
        frac = rec.final_average() / theoretical
        print(f"  {algo:>10}: {frac:.3f}")

    tiny = records["tiny_madrl"]
    print(f"\ntiny model sparsity: start {tiny.sparsity[0]:.2f}, "
          f"end {tiny.sparsity[-1]:.2f}")


if __name__ == "__main__":
    main()

"""Shrink a trained actor network with the cubic sparsity schedule.

The schedule ramps the masked fraction from 0 to the target, low-importance
neurons drop out first, and compaction finally deletes them; the compact
network reproduces the masked one exactly.
"""

import numpy as np

from bwmarket.tinynet import (
    PrunableMlp,
    PruneSchedule,
    compact,
    parameter_count,
    sparsity_at,
    update_masks,
)


def main():
    rng = np.random.default_rng(0)
    net = PrunableMlp.create([8, 64, 64, 2], rng=rng)
    schedule = PruneSchedule(initial_sparsity=0.0, target_sparsity=0.5,
                             start_epoch=0, total_steps=10, frequency=2)

    print(f"{'epoch':>6}{'scheduled':>12}{'actual':>10}{'active':>10}")
    for epoch in range(0, schedule.end_epoch + 1, 2):
        update_masks(net, schedule, epoch, floor_neurons=4)
        active = int(sum(m.sum() for m in net.masks))
        actual = 1.0 - active / sum(net.hidden_sizes())
        print(f"{epoch:>6}{sparsity_at(schedule, epoch):>12.3f}"
              f"{actual:>10.3f}{active:>10}")

    small = compact(net)
    print(f"\nhidden neurons: {sum(net.hidden_sizes())} -> "
          f"{sum(small.hidden_sizes())}")
    print(f"parameters:     {parameter_count(net)} -> {parameter_count(small)}")

    x = rng.standard_normal((100, 8))
    full_out, _ = net.forward(x)
    small_out, _ = small.forward(x)
    print(f"max output difference after compaction: "
          f"{np.max(np.abs(full_out - small_out)):.2e}")


if __name__ == "__main__":
    main()

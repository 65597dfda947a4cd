"""Walk through the analytic market: one buyer, two identical sellers.

Both sellers charge the same price at equilibrium, the buyer splits its
bandwidth demand evenly, and no seller gains by moving its own price alone:
the verifier searches each seller's price on a grid over its price box.
"""

import numpy as np

from bwmarket import solve_equilibrium, verify_equilibrium
from bwmarket.game import (
    ChannelLink,
    GameInstance,
    RsuProfile,
    SsimTriple,
    UavProfile,
    rsu_utility,
)


def build_market() -> GameInstance:
    # A link whose SNR yields spectrum efficiency very close to 10 bit/s/Hz.
    link = ChannelLink(transmit_power_dbm=30.1, channel_gain_db=0.0,
                       noise_dbm=0.0)
    sellers = [RsuProfile(bandwidth_cost=1.0, price_cap=35.0, link=link)
               for _ in range(2)]
    buyer = UavProfile(delta=10.0, budget=2.0, ssim_threshold=0.5,
                       per_rsu_ssim=[SsimTriple(1.0, 1.0, 1.0)] * 2)
    return GameInstance([buyer], sellers)


def main():
    market = build_market()
    solution = solve_equilibrium(market)

    print("equilibrium prices (sellers x buyers):")
    print(np.round(solution.prices.prices, 4))
    print("equilibrium demands (buyers x sellers):")
    print(np.round(solution.demands.demands, 4))
    print("seller utilities:", np.round(solution.rsu_utilities, 4))
    print("buyer case labels:", solution.per_uav_case)

    # A seller who overprices sells less and earns less.
    for price in (3.0, 5.0, 8.0):
        row = np.full(1, price)
        from bwmarket import all_followers_respond
        fixed = solution.prices.prices.copy()
        fixed[0] = row
        demands = all_followers_respond(market, fixed)
        value = rsu_utility(market, 0, row, demands.demands[:, 0])
        print(f"seller 0 at price {price:4.1f}: utility {value:.4f}")

    report = verify_equilibrium(market, solution)
    print(f"verification: passed={report.passed}, "
          f"max violation={report.max_violation:.2e}")


if __name__ == "__main__":
    main()

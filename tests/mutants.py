"""Mutation check: every listed mutant must make its tests fail.

A mutant is one exact source edit (file, old text, new text) paired with the
test ids that must catch it. For each mutant the script copies src/, tests/
and pyproject.toml into a temporary directory, applies the edit there and runs
only the mutant's test ids with pytest -x. A run that fails its tests kills
the mutant; a run that passes lets it survive. The unedited copy runs every
selected test id once first, so a killed mutant is killed by the edit, not by
a test that already fails. The tree itself is never edited.

Run from anywhere, with the standard library and pytest installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

Exits 0 when every selected mutant is killed, 1 when one survives, when its
edit no longer applies (the old text is not in its file exactly once) or when
pytest ends in an error (a test id it cannot find, a collection error). It is
not part of the Tier-1 command: pytest collects only test_*.py files.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to the repository root
    old: str                  # must occur exactly once in path
    new: str
    tests: tuple[str, ...]    # pytest node ids, relative to the repository root


GAME, AGENTS, ENV = "src/bwmarket/game.py", "src/bwmarket/agents.py", "src/bwmarket/env.py"
DOMAIN, HARNESS = "src/bwmarket/_domain.py", "src/bwmarket/harness.py"
CLI = "src/bwmarket/cli.py"
T_GAME, T_AGENTS, T_ENV = "tests/test_game.py", "tests/test_agents.py", "tests/test_env.py"
T_HARNESS = "tests/test_harness.py"
ROLLOUT = f"{T_ENV}::TestMatchesReference::test_rollout_bit_for_bit"

MUTANTS = (
    # PPO: standardised advantages and the running reward scale
    Mutant("advantages-not-standardised", AGENTS,
           "    if n > 1:\n", "    if False:\n",
           (f"{T_AGENTS}::TestPpoUpdate::test_first_epoch_actor_loss_is_the_mean_advantage",
            f"{T_AGENTS}::TestAdvantages::test_normalization_zero_mean_unit_std")),
    Mutant("reward-scale-dropped", AGENTS,
           "        self._reward_scale = np.fmax(self._reward_scale, np.abs(reward))\n", "",
           (f"{T_AGENTS}::TestPpoUpdate::test_recorded_rewards",)),
    Mutant("learning-rate-check-dropped", AGENTS,
           'actor_lr: Annotated[float, "(0, inf)"]', "actor_lr: float",
           (f"{T_AGENTS}::TestPpoConfig::test_learning_rate_must_be_finite_and_positive",)),
    # a stack's abort restores and stops only the seller whose loss is not finite
    Mutant("abort-restores-every-live-seller", AGENTS,
           "self._restore(snap, live & ~finite)", "self._restore(snap, live)",
           (f"{T_AGENTS}::TestStack::test_abort_restores_and_skips_only_its_seller",)),
    Mutant("aborted-seller-keeps-stepping", AGENTS,
           "step = live[..., None, None]", "step = np.ones_like(live)[..., None, None]",
           (f"{T_AGENTS}::TestStack::test_abort_restores_and_skips_only_its_seller",)),
    Mutant("one-abort-ends-the-stack", AGENTS,
           "                if not live.any():\n", "                if not live.all():\n",
           (f"{T_AGENTS}::TestStack::test_abort_restores_and_skips_only_its_seller",)),
    # the market: one builder from the draw rows, compared by every row
    Mutant("eq-compares-only-seller-rows", GAME,
           "        return all(map(np.array_equal, self._draws, other._draws))\n",
           "        return np.array_equal(self._draws[0], other._draws[0])\n",
           (f"{T_GAME}::TestGameInstance::test_equality_reads_every_row",)),
    Mutant("ssim-product-drops-structure", GAME,
           "luminance * contrast * structure,", "luminance * contrast,",
           (f"{T_GAME}::TestLinkAndSsim::test_ssim_product",
            "tests/test_harness.py::TestSampling::test_matches_scalar_draws")),
    Mutant("hand-built-uavs-are-the-callers-list", GAME,
           "        self._build(_rsu_rows(rsus), _uav_rows(uavs))\n",
           "        self._build(_rsu_rows(rsus), _uav_rows(uavs))\n        self.uavs = uavs\n",
           (f"{T_GAME}::TestGameInstance::test_profiles_are_read_at_construction",)),
    # the env: prices clipped into the box, the history shifted, fresh observations
    Mutant("step-prices-not-clipped", ENV,
           "        prices = np.maximum(prices, self._market.c[:, None])\n"
           "        np.minimum(prices, self._market.cap[:, None], out=prices)\n", "",
           (f"{T_ENV}::TestStep::test_out_of_box_actions_clamped",)),
    Mutant("step-clips-the-callers-prices", ENV,
           "prices = np.maximum(prices, self._market.c[:, None])",
           "np.maximum(prices, self._market.c[:, None], out=prices)",
           (f"{T_ENV}::TestStep::test_callers_prices_left_unchanged",)),
    Mutant("shift-keeps-the-oldest-slot", ENV,
           "history[..., :-1, :, :] = history[..., 1:, :, :]",
           "history[..., 1:-1, :, :] = history[..., 2:, :, :]",
           (f"{ROLLOUT}[random-3-2-2-full]", f"{ROLLOUT}[random-4-3-3-cut]")),
    Mutant("observations-are-a-view", ENV,
           "(self.num_agents, -1)).copy()", "(self.num_agents, -1))",
           (f"{ROLLOUT}[random-3-2-2-full]", f"{ROLLOUT}[random-4-3-3-cut]")),
    # the env's demand scale is the market's own bound on any demand
    Mutant("demand-scale-halved", ENV,
           "self.demand_scale = default_demand_scale(instance)",
           "self.demand_scale = default_demand_scale(instance) / 2",
           (f"{T_ENV}::TestDemandScale::test_cost_corner_observations_within_bounds",
            f"{ROLLOUT}[corner-3-2-2-full]")),
    # every record's reference is a solve that also verifies
    Mutant("baseline-skips-verification", ENV,
           "sol.consistent and verified", "sol.consistent",
           (f"{T_ENV}::TestBaseline::test_reference_holds_only_when_solved_and_verified",
            f"{T_HARNESS}::TestTrainingGroup::test_reference_agrees_with_the_solve_record",
            f"{T_HARNESS}::TestCli::test_train_strict_fails_where_solve_strict_fails")),
    # leader roots: a_j = c_j S_j / (q_j D_j)
    Mutant("leader-root-a-without-q", GAME,
           "a = np.where(formula, c * m.S / (q * denom), 1.0)",
           "a = np.where(formula, c * m.S / denom, 1.0)",
           (f"{T_GAME}::TestLeaderResponses::test_roots_match_iterated_oracle_on_drawn_markets",)),
    # leader roots: the links off the formula keep the clipped slack column
    Mutant("fixed-links-at-unclipped-slack-price", GAME,
           "_leader_roots(mb, prices[binding])", "_leader_roots(mb, _slack_prices(mb))",
           (f"{T_GAME}::TestLeaderResponses::test_roots_match_iterated_oracle_on_drawn_markets",)),
    Mutant("formula-mask-is-positive-mask", GAME,
           "        return np.where(formula, p, p_s), r\n",
           "        return np.where(positive, p, p_s), r\n",
           (f"{T_GAME}::TestLeaderResponses::test_roots_match_iterated_oracle_on_drawn_markets",)),
    Mutant("root-certificate-dropped", GAME,
           "        open_ &= hi - lo > tol\n", "",
           (f"{T_GAME}::TestLeaderResponses::test_roots_match_iterated_oracle_on_drawn_markets",
            f"{T_GAME}::TestLeaderResponses::test_fixed_points_of_a_stack_match_each_row_alone")),
    # the split's candidates need no positive-link mask only while S is 0.0
    # off the positive links
    Mutant("budget-split-S-unmasked", GAME,
           "    S = np.where(positive, S, 0.0)\n", "",
           (f"{T_GAME}::TestBatchedFollower::test_budget_split_needs_no_positive_mask",)),
    # the kernel's slack test: a spend equal to the budget is slack
    Mutant("slack-test-strict", GAME,
           "slack = wants & (_row_sums(p * cand) <= m.budget)",
           "slack = wants & (_row_sums(p * cand) < m.budget)",
           (f"{T_GAME}::TestBatchedFollower::test_budget_split_is_the_kernels_first_stage",)),
    # the budget kink: theta interpolates between the slack and binding prices
    Mutant("kink-theta-pinned-to-0", GAME,
           "        theta = np.clip(np.divide(X - x_s, x_b - x_s, out=np.ones_like(X), "
           "where=x_b > x_s),\n                        0.0, 1.0)\n",
           "        theta = np.zeros_like(X)\n",
           (f"{T_GAME}::TestKink::test_kink_columns_spend_the_kink",)),
    Mutant("kink-theta-pinned-to-1", GAME,
           "        theta = np.clip(np.divide(X - x_s, x_b - x_s, out=np.ones_like(X), "
           "where=x_b > x_s),\n                        0.0, 1.0)\n",
           "        theta = np.ones_like(X)\n",
           (f"{T_GAME}::TestKink::test_kink_columns_spend_the_kink",)),
    # the demand check: no negative demand, spend within 1e-9 of the budget
    Mutant("negative-demand-accepted", GAME,
           "if not (demands >= 0).all():", "if not (demands >= -1.0).all():",
           (f"{T_GAME}::TestMatrixTypes::test_demand_matrix_nonnegative",)),
    Mutant("spend-slack-absolute", GAME,
           "spend <= budget + 1e-9 * np.maximum(budget, 1.0)", "spend <= budget + 1e-9",
           (f"{T_GAME}::TestMatrixTypes::test_demand_matrix_budget_slack_scales_with_the_budget",
            f"{T_GAME}::TestMatrixTypes::test_scaled_budgets_solve_and_verify")),
    # the verifier's deviation search: every level refines around the best
    # point, and every trial's demands are checked
    Mutant("search-without-refinement", GAME,
           "    for G in _SEARCH_LEVELS:\n", "    for G in _SEARCH_LEVELS[:1]:\n",
           (f"{T_GAME}::TestEquilibrium::test_search_finds_the_oracles_gain",)),
    Mutant("search-off-by-a-grid-cell", GAME,
           "        k = margins.argmax(axis=1)[:, None]\n",
           "        k = np.minimum(margins.argmax(axis=1) + 1, G - 1)[:, None]\n",
           (f"{T_GAME}::TestEquilibrium::test_search_finds_the_oracles_gain",)),
    Mutant("verify-demand-check-dropped", GAME,
           "        _check_demands(demands, trial, m.budget)\n", "",
           (f"{T_GAME}::TestEquilibrium::test_verify_rejects_bad_follower_output",)),
    # _row_sums adds the columns in order, as numpy's reduce does
    Mutant("row-sums-columns-reversed", GAME,
           "    for k in range(J):\n        out += x[..., k]\n",
           "    for k in reversed(range(J)):\n        out += x[..., k]\n",
           (f"{T_GAME}::TestRowSums::test_bytes_equal_the_reduce",)),
    # backward: the ReLU gate on the masked cache is what zeroes masked neurons
    Mutant("backward-relu-gate-dropped", "src/bwmarket/tinynet.py",
           "            if k < len(self.masks):  # delta is this call's own array: in place\n"
           "                delta *= cache[k + 1] > 0.0   # bool: x*True == x\n", "",
           ("tests/test_tinynet.py::TestBackward::test_gate_alone_equals_mask_then_gate[4-80-0]",
            "tests/test_tinynet.py::TestBackward::test_masked_neuron_gradients_exactly_zero")),
    # config fields: each declared domain, and the one check that reads them
    Mutant("history-length-may-be-fractional", ENV,
           'history_length: Annotated[int, "[1, inf)"]',
           'history_length: Annotated[float, "[1, inf)"]',
           ("tests/test_harness.py::TestConfig::"
            "test_non_integral_values_rejected_from_python[history_length-2.5]",)),
    Mutant("bool-accepted-as-number", DOMAIN,
           "            and not isinstance(value, bool) and math.isfinite(value)\n",
           "            and math.isfinite(value)\n",
           ("tests/test_harness.py::TestCli::test_bad_value_names_its_file_key[instance.I]",)),
    Mutant("int-stored-in-float-field", DOMAIN,
           "        value = origin(value)\n",
           "        value = int(value) if origin is int else value\n",
           ("tests/test_harness.py::TestConfig::test_int_and_float_spellings_hash_alike",)),
    Mutant("edited-section-not-rechecked", DOMAIN,
           "        value.__post_init__()  # its fields may have been edited since it was built\n",
           "",
           ("tests/test_harness.py::TestConfig::test_validate_checks_sections_edited_in_place",)),
    Mutant("episode-shorter-than-history-accepted", ENV,
           "        if self.episode_length < self.history_length:\n"
           '            raise ValueError("episode_length must be >= history_length")\n', "",
           (f"{T_ENV}::TestConfig::test_episode_shorter_than_history",)),
    # config ranges and sweep grids: one check for every caller, numpy numbers taken
    Mutant("range-key-check-dropped", HARNESS,
           "    for key in ranges:\n"
           "        if key not in DEFAULT_RANGES:\n"
           '            raise ConfigError(f"unknown parameter range {key!r}")\n', "",
           ("tests/test_harness.py::TestSampling::test_unknown_range_key_is_config_error",
            "tests/test_harness.py::TestConfig::test_unknown_range_key")),
    Mutant("sweep-grid-takes-only-python-numbers", HARNESS,
           "isinstance(v, numbers.Real) and not isinstance(v, bool)",
           "isinstance(v, (int, float)) and not isinstance(v, bool)",
           ("tests/test_harness.py::TestRuns::"
            "test_sweep_market_size_grid_takes_numpy_numbers[grid0]",)),
    # pruning: equal scores mask in (layer, index) order
    Mutant("update-masks-ties-reversed", "src/bwmarket/tinynet.py",
           'order = np.argsort(pooled, kind="stable")',
           'order = len(pooled) - 1 - np.argsort(pooled[::-1], kind="stable")',
           ("tests/test_tinynet.py::TestUpdateMasks::test_tie_break_by_layer_index",
            "tests/test_tinynet.py::TestUpdateMasks::test_matches_the_sorted_tuple_reference")),
    # one runner per seed: compare samples, solves and verifies each seed once,
    # and a group's solve record is its own seed's market
    Mutant("compare-solves-each-seed-twice", CLI,
           "            groups = [run_training_group(cfg, args.algo, seed) for seed in cfg.seeds]\n",
           "            groups = [[run_solve(cfg, seed)] + run_training_group(cfg, args.algo, seed)[1:]\n"
           "                      for seed in cfg.seeds]\n",
           (f"{T_HARNESS}::TestCli::test_compare_samples_and_solves_each_seed_once",)),
    Mutant("group-solves-another-seed", HARNESS,
           "    solve = _solve_record(seed, instance, start, digest)\n",
           "    solve = _solve_record(seed, _sample(cfg, seed + 1), start, digest)\n",
           (f"{T_HARNESS}::TestTrainingGroup::"
            "test_solve_record_matches_an_independent_reference",)),
    # an unknown format is refused before the output directory exists
    Mutant("emit-results-mkdir-before-format-check", HARNESS,
           '    if fmt not in ("csv", "jsonl"):\n'
           '        raise ValueError(f"unknown format {fmt!r}")\n'
           "    out_dir = Path(out_dir)\n"
           "    out_dir.mkdir(parents=True, exist_ok=True)\n",
           "    out_dir = Path(out_dir)\n"
           "    out_dir.mkdir(parents=True, exist_ok=True)\n"
           '    if fmt not in ("csv", "jsonl"):\n'
           '        raise ValueError(f"unknown format {fmt!r}")\n',
           ("tests/test_harness.py::TestPersistence::test_unknown_format_leaves_no_directory",)),
)


# A pytest plugin for the copy: hypothesis reports the first failing example
# without shrinking it, since only pass or fail counts here; each test's own
# settings (examples, derandomize) still hold.
_PLUGIN = """\
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""

# seconds before a mutant's test run is stopped and counted as not killed
TIMEOUT_S = 600


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)
    (dest / "_mutant_plugin.py").write_text(_PLUGIN)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"old text found {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(tree: Path, tests) -> int | None:
    """pytest's exit code on the given ids in tree, importing tree's src;
    None if it ran past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-p", "_mutant_plugin", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant) -> str:
    """killed, survived, or why the mutant could not be judged."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        try:
            _apply(tree, mutant)
        except LookupError as exc:
            return f"stale edit: {exc}"
        code = _pytest(tree, mutant.tests)
    if code is None:
        return f"timed out after {TIMEOUT_S} s"
    return {0: "survived", 1: "killed"}.get(code, f"pytest error (exit {code})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        _copy_tree(Path(tmp))
        code = _pytest(Path(tmp), tests)
    print(f"{'baseline':40s} {'passed' if code == 0 else f'FAILED (exit {code})':>10s}"
          f" {time.perf_counter() - start:7.1f} s")
    if code != 0:
        return 1
    bad = 0
    for m in chosen:
        start = time.perf_counter()
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{m.name:40s} {outcome:>10s} {time.perf_counter() - start:7.1f} s", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

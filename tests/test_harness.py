"""Tests for the experiment harness: configs, sampling, runs, files, CLI."""

import ast
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from bwmarket import harness, tinynet
from bwmarket.agents import PpoConfig
from bwmarket.cli import main as cli_main
from bwmarket.env import EnvConfig, PricingEnv, theoretical_baseline
from bwmarket.game import solve_equilibrium, verify_equilibrium
from bwmarket.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    DEFAULT_RANGES,
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    config_from_dict,
    config_hash,
    emit_results,
    load_config,
    named_rng,
    parse_results_csv,
    run_solve,
    run_sweep,
    run_training,
    run_training_group,
    sample_instance,
    write_summary,
)

from _oracles import reference_market_arrays, reference_sample_instance

# The sampled-market digests: one sha256 per (ranges, market size) over the
# arrays of 300 integer seeds, recorded with the entity-by-entity sampler
# that built the profiles first and the arrays from them.
SAMPLED_DIGESTS = Path(__file__).with_name("sampled_digests.json")
DIGEST_RANGES = {"default": {}, "dense": {"similarity": (0.85, 1.0)},
                 "zero-width": {"bandwidth_cost": (2.5, 2.5), "similarity": (0.7, 0.7)}}
DIGEST_SIZES = ((1, 1), (3, 2), (15, 6), (7, 10))

# sha256 of TestReproducibility::test_compare_matches_recorded_digest's
# four-algorithm compare: results.csv without wall_ms, then summary.json
TRAINING_DIGEST = "5734cd69ad8d21e84134c92d66b38920139f747c2c1818bc64ea9f3fecad887d"


def sampled_digests(seeds=range(300)) -> dict:
    """sha256 of the dtype, shape and bytes of every market array of each
    seed's sample_instance, one digest per (ranges, I x J)."""
    out = {}
    for name, ranges in DIGEST_RANGES.items():
        for I, J in DIGEST_SIZES:
            digest = hashlib.sha256()
            for seed in seeds:
                for a in sample_instance(ranges, I, J, seed).arrays:
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
            out[f"{name} {I}x{J}"] = digest.hexdigest()
    return out


def tiny_config(**overrides):
    cfg = ExperimentConfig(num_uavs=1, num_rsus=1, episodes=3)
    cfg.env.episode_length = 5
    cfg.env.history_length = 1
    cfg.ranges["similarity"] = (0.85, 1.0)
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg.validate()


class TestNamedRng:
    def test_streams_independent_of_order(self):
        a = named_rng(0, "policy:0").uniform(size=3)
        _ = named_rng(0, "instance").uniform(size=5)
        b = named_rng(0, "policy:0").uniform(size=3)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        a = named_rng(0, "policy:0").uniform(size=3)
        b = named_rng(0, "instance").uniform(size=3)
        assert not np.array_equal(a, b)

    def test_src_draws_only_from_given_seeds(self):
        """No module of the package makes an unseeded generator or draws from
        numpy's legacy global one: every draw comes from a named stream or a
        seed its caller gives."""
        legacy = {n for n in dir(np.random.RandomState) if not n.startswith("_")}
        src = Path(harness.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if name == "default_rng" and not (node.args or node.keywords):
                    found.append(f"{path.name}:{node.lineno}: default_rng()")
                if (isinstance(func, ast.Attribute) and name in legacy
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr == "random"
                        and getattr(func.value.value, "id", None) in ("np", "numpy")):
                    found.append(f"{path.name}:{node.lineno}: np.random.{name}")
        assert len(list(src.glob("*.py"))) > 5
        assert not found, found


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_instance({}, 2, 2, 7)
        b = sample_instance({}, 2, 2, 7)
        assert a.rsus[0].bandwidth_cost == b.rsus[0].bandwidth_cost
        assert a.uavs[1].budget == b.uavs[1].budget

    def test_values_within_ranges(self):
        inst = sample_instance({}, 3, 3, 1)
        for rsu in inst.rsus:
            lo, hi = DEFAULT_RANGES["bandwidth_cost"]
            assert lo <= rsu.bandwidth_cost <= hi
            lo, hi = DEFAULT_RANGES["price_cap"]
            assert lo <= rsu.price_cap <= hi
        for uav in inst.uavs:
            lo, hi = DEFAULT_RANGES["delta"]
            assert lo <= uav.delta <= hi
            lo, hi = DEFAULT_RANGES["budget"]
            assert lo <= uav.budget <= hi

    def test_degenerate_range_pins_value(self):
        inst = sample_instance({"bandwidth_cost": (2.5, 2.5)}, 1, 2, 0)
        assert all(r.bandwidth_cost == 2.5 for r in inst.rsus)

    def test_cost_above_cap_rejected(self):
        with pytest.raises(ConfigError):
            sample_instance({"bandwidth_cost": (1.0, 40.0)}, 1, 1, 0)

    @pytest.mark.parametrize("ranges", [
        {}, {"similarity": (0.85, 1.0)},
        {"bandwidth_cost": (2.5, 2.5), "similarity": (0.7, 0.7)},
    ], ids=["default", "dense", "zero-width"])
    def test_matches_scalar_draws(self, ranges):
        """One vector draw per entity gives what one scalar draw per parameter
        gives: every profile field (repr shows each float exactly), and every
        byte of the market arrays is what scalar math gives from the profiles,
        for integer seeds and a Generator."""
        for seed in range(12):
            for I, J in ((1, 1), (3, 2), (15, 6), (7, 10)):
                seeds = ((seed, seed) if seed % 4 else
                         (np.random.default_rng(seed), np.random.default_rng(seed)))
                got = sample_instance(ranges, I, J, seeds[0])
                want = reference_sample_instance(ranges, I, J, seeds[1])
                assert repr(got) == repr(want), (seed, I, J)
                for a, b in zip(got.arrays, reference_market_arrays(want)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (seed, I, J)

    def test_sampled_arrays_match_recorded_digests(self):
        """Every array byte of 3,600 sampled markets (300 seeds x 4 sizes x 3
        range sets) is what the profile-first sampler gave."""
        assert sampled_digests() == json.loads(SAMPLED_DIGESTS.read_text())["digests"]

    @pytest.mark.parametrize("seed", range(40))
    def test_invalid_draws_raise_the_profiles_error(self, seed):
        """Draws outside the domain are rejected with the error the profiles
        raise, for the first invalid entity: sellers first, then in entity
        order, then in field order."""
        draw = np.random.default_rng(seed)
        domain = {"transmit_power_dbm": (-400.0, 25.0), "bandwidth_cost": (-1.0, 4.0),
                  "price_cap": (4.5, 35.0), "similarity": (-0.05, 1.05),
                  "delta": (-2.0, 20.0), "budget": (-1.0, 10.0),
                  "ssim_threshold": (0.2, 1.02)}
        keys = draw.choice(list(domain), size=draw.integers(1, 4), replace=False)
        ranges = {key: domain[key] for key in keys}
        I, J = (int(n) for n in draw.integers(1, 6, size=2))
        try:
            reference_sample_instance(ranges, I, J, seed)
        except ValueError as exc:
            with pytest.raises(ConfigError) as got:
                sample_instance(ranges, I, J, seed)
            assert str(got.value) == f"sampled instance rejected: {exc}"
        else:
            assert repr(sample_instance(ranges, I, J, seed)) == repr(
                reference_sample_instance(ranges, I, J, seed))

    def test_reversed_or_unbounded_range_is_config_error(self):
        with pytest.raises(ConfigError, match="empty range for 'delta'"):
            sample_instance({"delta": (5.0, 2.0)}, 2, 2, 0)
        with pytest.raises(ConfigError, match="finite width"):
            sample_instance({"delta": (-1e308, 1e308)}, 2, 2, 0)

    def test_unknown_range_key_is_config_error(self):
        # a misspelt key must not sample the default range in its place
        with pytest.raises(ConfigError, match="^unknown parameter range 'simlarity'$"):
            sample_instance({"simlarity": (0.85, 1.0)}, 3, 2, 0)

    def test_hot_paths_build_no_profiles(self):
        """Solving, verifying and stepping an env read a sampled market's
        arrays only; its profiles are built when first read, as drawn."""
        inst = sample_instance({"similarity": (0.85, 1.0)}, 6, 3, 4)
        sol = solve_equilibrium(inst)
        verify_equilibrium(inst, sol)
        env = PricingEnv(inst)
        env.reset()
        env.step(sol.prices.prices)
        assert "uavs" not in vars(inst) and "rsus" not in vars(inst)
        assert repr(inst) == repr(reference_sample_instance(
            {"similarity": (0.85, 1.0)}, 6, 3, 4))


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_range_key(self):
        cfg = ExperimentConfig()
        cfg.ranges["mystery"] = (0.0, 1.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_empty_range(self):
        cfg = ExperimentConfig()
        cfg.ranges["delta"] = (5.0, 2.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("ranges, error", [
        ({"similarity": (0.85, 1.0)}, None),
        ({"bandwidth_cost": (1.0, 6.0)}, "bandwidth_cost range upper bound exceeds"),
        ({"delta": (5.0, 2.0)}, "empty range for 'delta'"),
    ], ids=["similarity only", "cost above cap", "empty range"])
    def test_partial_ranges_checked_as_sampling_checks_them(self, ranges, error):
        # a ranges dict without every key validates against the defaults of
        # the others, as sample_instance does, and fails with its message
        cfg = ExperimentConfig(ranges=ranges)
        if error is None:
            assert cfg.validate() is cfg
            sample_instance(ranges, 2, 2, 0)
            return
        for call in (cfg.validate, lambda: sample_instance(ranges, 2, 2, 0)):
            with pytest.raises(ConfigError, match=error):
                call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name", [
        (PpoConfig, "policy_std"), (PpoConfig, "final_policy_std"),
        (PpoConfig, "action_headroom"), (PpoConfig, "rollout_size"),
        (PpoConfig, "update_epochs"), (EnvConfig, "history_length"),
        (EnvConfig, "episode_length"),
        (tinynet.PruneSchedule, "start_epoch"), (tinynet.PruneSchedule, "total_steps"),
        (tinynet.PruneSchedule, "frequency"), (ExperimentConfig, "num_uavs"),
        (ExperimentConfig, "num_rsus"), (ExperimentConfig, "episodes"),
        (ExperimentConfig, "floor_neurons"), (ExperimentConfig, "greedy_levels"),
    ])
    def test_non_finite_values_rejected_from_python(self, cls, name, value):
        """A NaN or infinite number fails the field's own domain check when
        set from Python, as the config loader already rejects it in a file."""
        base = {tinynet.PruneSchedule: dict(initial_sparsity=0.0, target_sparsity=0.5,
                                            start_epoch=150, total_steps=30, frequency=5)}
        with pytest.raises(ValueError):  # ConfigError is one
            config = cls(**{**base.get(cls, {}), name: value})
            if cls is ExperimentConfig:
                config.validate()

    # every whole-number field, as the keyword arguments that set it to v
    WHOLE_FIELDS = {
        "seeds": (ExperimentConfig, lambda v: {"seeds": [v]}),
        "num_uavs": (ExperimentConfig, lambda v: {"num_uavs": v}),
        "num_rsus": (ExperimentConfig, lambda v: {"num_rsus": v}),
        "episodes": (ExperimentConfig, lambda v: {"episodes": v}),
        "floor_neurons": (ExperimentConfig, lambda v: {"floor_neurons": v}),
        "greedy_levels": (ExperimentConfig, lambda v: {"greedy_levels": v}),
        "hidden_sizes=(v,)": (PpoConfig, lambda v: {"hidden_sizes": (v,)}),
        "hidden_sizes=(v,64)": (PpoConfig, lambda v: {"hidden_sizes": (v, 64)}),
        "hidden_sizes=(64,v)": (PpoConfig, lambda v: {"hidden_sizes": (64, v)}),
        "rollout_size": (PpoConfig, lambda v: {"rollout_size": v}),
        "update_epochs": (PpoConfig, lambda v: {"update_epochs": v}),
        "history_length": (EnvConfig, lambda v: {"history_length": v}),
        "episode_length": (EnvConfig, lambda v: {"episode_length": v + 8}),
        "start_epoch": (tinynet.PruneSchedule, lambda v: {"start_epoch": v}),
        "total_steps": (tinynet.PruneSchedule, lambda v: {"total_steps": v}),
        "frequency": (tinynet.PruneSchedule, lambda v: {"frequency": v}),
    }

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("field", list(WHOLE_FIELDS))
    def test_non_integral_values_rejected_from_python(self, field, value):
        """A whole-number field rejects a fraction, NaN or inf set from
        Python with a ValueError, as the config loader rejects it in a file."""
        cls, kwargs = self.WHOLE_FIELDS[field]
        base = {tinynet.PruneSchedule: dict(initial_sparsity=0.0, target_sparsity=0.5,
                                            start_epoch=150, total_steps=30, frequency=5)}
        with pytest.raises(ValueError):  # ConfigError is one
            config = cls(**{**base.get(cls, {}), **kwargs(value)})
            if cls is ExperimentConfig:
                config.validate()

    # every config field: None for ExperimentConfig's own, else its section
    ALL_FIELDS = [(None, f.name) for f in fields(ExperimentConfig)] + [
        (section, f.name) for section, cls in (("env", EnvConfig), ("ppo", PpoConfig),
                                              ("schedule", tinynet.PruneSchedule))
        for f in fields(cls)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, -1, True, "x"],
                             ids=repr)
    @pytest.mark.parametrize("section, name", ALL_FIELDS,
                             ids=[f"{s}.{n}" if s else n for s, n in ALL_FIELDS])
    def test_every_field_rejects_or_runs(self, section, name, value):
        """Any of these values set on any field from Python either raises one
        ValueError when the config is built or validated, or gives a config
        whose training group (one episode, a PPO update, all four algorithms)
        and solve end with finite rewards."""
        cfg = ExperimentConfig(num_uavs=2, num_rsus=2, episodes=1,
                               ppo=PpoConfig(rollout_size=5, update_epochs=2,
                                             hidden_sizes=(8, 8)))
        cfg.ranges["similarity"] = (0.85, 1.0)
        try:
            if section is None:
                setattr(cfg, name, value)
            else:
                setattr(cfg, section, replace(getattr(cfg, section), **{name: value}))
            cfg.validate()
        except ValueError:
            return
        records = run_training_group(cfg, ALGORITHMS, 0)
        assert all(np.isfinite(rec.episode_rewards).all() for rec in records)
        assert math.isfinite(run_solve(cfg, 0).theoretical)

    @pytest.mark.parametrize("section, name, value", [
        ("ppo", "hidden_sizes", (0,)), ("ppo", "policy_std", math.nan),
        ("env", "history_length", 0), ("env", "history_length", 20),
        ("schedule", "initial_sparsity", 0.9)])
    def test_validate_checks_sections_edited_in_place(self, section, name, value):
        """validate() checks each option section again, cross-field rules
        included, so an option edited after its section was built is checked."""
        cfg = ExperimentConfig()
        setattr(getattr(cfg, section), name, value)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_from_dict_round_trip(self):
        doc = {"instance": {"I": 2, "J": 3,
                            "ranges": {"delta": [12.0, 14.0]}},
               "episodes": 10, "seeds": [1, 2]}
        cfg = config_from_dict(doc)
        assert cfg.num_uavs == 2 and cfg.num_rsus == 3
        assert cfg.ranges["delta"] == (12.0, 14.0)
        assert cfg.seeds == [1, 2]

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mystery": 1})

    @pytest.mark.parametrize("doc,message", [
        ({"seeds": [0, -3]}, "seeds must be >= 0"),
        ({"schedule": {"total_steps": -10}}, "total_steps must be >= 1"),
        ({"schedule": {"total_steps": 0}}, "total_steps must be >= 1"),
        ({"schedule": {"start_epoch": -1}}, "start_epoch must be >= 0"),
    ])
    def test_from_dict_out_of_domain(self, doc, message):
        with pytest.raises(ValueError, match=message):  # ConfigError is one
            config_from_dict(doc)

    def test_load_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"episodes": 4, "seeds": [3]}))
        cfg = load_config(path)
        assert cfg.episodes == 4 and cfg.seeds == [3]

    def test_partial_sections_keep_other_defaults(self):
        default = ExperimentConfig()
        cfg = config_from_dict({"schedule": {"start_epoch": 100},
                                "env": {"history_length": 3}})
        assert cfg.schedule == replace(default.schedule, start_epoch=100)
        assert cfg.env == replace(default.env, history_length=3)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        load_config(path)

    def test_load_yaml_not_mapping(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_import_leaves_yaml_unloaded(self, tmp_path):
        """Importing the package loads no YAML parser; load_config loads it
        and reports invalid YAML in one line, as the parser words it."""
        path = tmp_path / "bad.yaml"
        path.write_text("instance: [1, 2\n  bad: :\n")
        with open(path) as fh, pytest.raises(yaml.YAMLError) as parsed:
            yaml.safe_load(fh)
        want = f"{path}: invalid YAML: {' '.join(str(parsed.value).split())}"
        script = ("import sys, bwmarket\n"
                  "print('yaml' in sys.modules)\n"
                  "try:\n"
                  "    bwmarket.harness.load_config(sys.argv[1])\n"
                  "except bwmarket.harness.ConfigError as exc:\n"
                  "    print(exc)\n")
        src = str(Path(__file__).parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", script, str(path)],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines() == ["False", want]

    def test_int_and_float_spellings_hash_alike(self):
        """A float option written as an int loads as that float, so both
        spellings give one config and one run_id: the float spelling's. A
        config built in Python stores its values so too once validated, and
        equals the file's."""
        assert config_hash(config_from_dict({})) == "91ee0303328943eb"
        pairs = [({"greedy_epsilon": 0}, {"greedy_epsilon": 0.0}, "05df991a2e64d447"),
                 ({"ppo": {"discount": 0}}, {"ppo": {"discount": 0.0}},
                  "d1c3f5a3ca187bf6")]
        for as_int, as_float, digest in pairs:
            a, b = config_from_dict(as_int), config_from_dict(as_float)
            assert a == b
            assert config_hash(a) == config_hash(b) == digest
        built = [(ExperimentConfig(episodes=2.0), {"episodes": 2}, "5e09d051b60e4308"),
                 (ExperimentConfig(greedy_epsilon=0), {"greedy_epsilon": 0.0},
                  "05df991a2e64d447"),
                 (ExperimentConfig(ppo=PpoConfig(discount=0)), {"ppo": {"discount": 0.0}},
                  "d1c3f5a3ca187bf6"),
                 (ExperimentConfig(seeds=(np.int64(0),),
                                   ppo=PpoConfig(hidden_sizes=[64, 64.0])),
                  {"ppo": {"hidden_sizes": [64, 64]}}, "91ee0303328943eb")]
        for cfg, doc, digest in built:
            assert cfg.validate() == config_from_dict(doc)
            assert config_hash(cfg) == digest

    def test_hash_stable_and_sensitive(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        assert config_hash(a) == config_hash(b)
        # the output directory is not part of the experiment
        b.out = "elsewhere"
        assert config_hash(a) == config_hash(b)
        b.episodes = 301
        assert config_hash(a) != config_hash(b)

    def test_strict_keeps_the_digest(self, tmp_path):
        """--strict sets only the exit code, so a strict run writes a plain run's ids."""
        ids = []
        for flags in ([], ["--strict"]):
            out = tmp_path / f"out{len(ids)}"
            assert cli_main(["solve", "--seed", "0", "--out", str(out), *flags]) == 0
            ids.append(parse_results_csv(out / "results.csv")[0]["run_id"])
        assert ids[0] == ids[1] == f"solve-{config_hash(ExperimentConfig())}-0"


class TestRuns:
    def test_solve_record(self):
        cfg = tiny_config()
        rec = run_solve(cfg, 0)
        assert rec.algorithm == "solve"
        assert rec.episode_rewards.size == 0
        assert rec.theoretical > 0
        assert rec.consistent

    def test_training_record_shape(self):
        cfg = tiny_config()
        rec = run_training(cfg, "random", 0)
        assert rec.episode_rewards.shape == (3, 1)
        assert rec.final_average() == pytest.approx(rec.avg_rewards[-1])

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            run_training(tiny_config(), "oracle", 0)

    def test_tiny_run_logs_sparsity(self):
        from bwmarket.tinynet import PruneSchedule
        cfg = tiny_config(schedule=PruneSchedule(0.0, 0.5, 0, 2, 1))
        cfg.ppo.rollout_size = 5
        cfg.ppo.update_epochs = 1
        rec = run_training(cfg, "tiny_madrl", 0)
        assert rec.sparsity.shape == (3,)
        assert rec.sparsity[-1] > 0.4

    def test_sweep_aggregate(self):
        cfg = tiny_config()
        spec = SweepSpec("c", [1.0, 2.0], [0, 1])
        records, aggregate = run_sweep(cfg, spec)
        assert len(records) == 4
        assert set(aggregate) == {1.0, 2.0}
        for mean, sd in aggregate.values():
            assert np.isfinite(mean) and sd >= 0.0

    @pytest.mark.parametrize("param,grid", [("c", [1.0, 2.0]), ("J", [1, 2])])
    def test_sweep_leaves_the_callers_config_alone(self, param, grid):
        cfg = tiny_config()
        ranges, digest = dict(cfg.ranges), config_hash(cfg)
        run_sweep(cfg, SweepSpec(param, grid, [0]))
        assert cfg.ranges == ranges
        assert config_hash(cfg) == digest

    def test_sweep_without_seeds_is_config_error(self):
        # without seeds every cell's mean and sd would be over no records
        with pytest.raises(ConfigError, match="sweep seeds list is empty"):
            SweepSpec("J", [2, 3], [])

    @pytest.mark.parametrize("seeds, message", [
        ([0, 0], r"seeds must not repeat, got \[0, 0\]$"),
        ([1.5], r"seeds must be whole numbers, got \[1.5\]$"),
        ([-1], r"seeds must be >= 0, got \[-1\]$"),
        ([True], r"seeds must be whole numbers, got \[True\]$"),
    ])
    def test_sweep_seeds_follow_the_config_seeds_rule(self, seeds, message):
        with pytest.raises(ConfigError, match="^sweep " + message):
            SweepSpec("J", [2, 3], seeds)
        with pytest.raises(ConfigError, match="^" + message):
            ExperimentConfig(seeds=seeds).validate()

    def test_sweep_seeds_stored_as_ints(self):
        spec = SweepSpec("J", [2, 3], (np.int64(3), 4.0))
        assert spec.seeds == [3, 4] and all(type(s) is int for s in spec.seeds)

    def test_sweep_grid_must_increase(self):
        with pytest.raises(ConfigError):
            SweepSpec("c", [2.0, 1.0], [0])

    @pytest.mark.parametrize("param,grid,rule", [
        ("I", [0, 1], "be >= 1"), ("J", [1.5, 2], "be whole numbers"),
        ("I", [float("nan")], "be whole numbers"), ("c", [-1.0, 1.0], "be > 0"),
        ("c", [0.0], "be > 0"), ("p_bar", [float("inf")], "be finite numbers"),
        ("c", ["x"], "be finite numbers"), ("p_bar", [1.0, None], "be finite numbers"),
        ("I", ["2"], "be whole numbers"), ("J", [True, 2], "be whole numbers"),
        ("c", [True, 2.0], "be finite numbers"),
    ])
    def test_sweep_grid_out_of_domain(self, param, grid, rule):
        with pytest.raises(ConfigError, match=f"^sweep grid for {param} must {rule}, got "):
            SweepSpec(param, grid, [0])

    def test_sweep_market_size_grid_becomes_int(self):
        assert SweepSpec("I", [1.0, 3.0], [0]).grid == [1, 3]

    @pytest.mark.parametrize("grid", [[np.int64(1), np.int64(3)], list(np.arange(1, 5, 2)),
                                      [np.float64(1.0), 3]])
    def test_sweep_market_size_grid_takes_numpy_numbers(self, grid):
        spec = SweepSpec("J", grid, [0])
        assert spec.grid == [1, 3] and all(type(v) is int for v in spec.grid)

    def test_sweep_price_grid_takes_numpy_numbers(self):
        grid = [np.float64(1.5), np.int64(2), 2.5]
        assert SweepSpec("c", grid, [0]).grid == grid

    @pytest.mark.parametrize("ranges,message", [
        ({"budget": (-2.0, -1.0)}, "budget must be positive"),
        ({"delta": (-2.0, -1.0)}, "delta must be positive"),
        ({"ssim_threshold": (1.5, 2.0)}, r"ssim_threshold must lie in \(0, 1\)"),
        ({"similarity": (1.5, 2.0)}, "luminance component 1.8210588499726295 outside"),
        ({"bandwidth_cost": (-2.0, -1.0)}, "bandwidth_cost must be positive"),
        ({"transmit_power_dbm": (-5000.0, -4000.0)},
         "non-positive spectrum efficiency from SNR -4342.981433215938 dB"),
        ({"transmit_power_dbm": (5000.0, 6000.0)},
         "infinite spectrum efficiency from SNR 5657.018566784062 dB"),
    ], ids=["budget", "delta", "ssim_threshold", "similarity", "bandwidth_cost",
            "transmit_power", "transmit_power_overflow"])
    def test_sample_instance_bad_range_is_config_error(self, ranges, message):
        with pytest.raises(ConfigError, match="sampled instance rejected: " + message):
            sample_instance(ranges, 2, 2, 0)


class TestSweepDraws:
    """run_sweep draws each seed's entity rows once, at the grid's largest
    market, and builds every cell from a prefix of them: each cell is still
    the market, and each record the run_solve record, that the cell gives on
    its own."""

    SWEEPS = [("I", [1, 3, 6]), ("J", [1, 2, 4]), ("c", [1.0, 2.5, 4.0]),
              ("p_bar", [5.0, 20.0, 35.0])]
    RANGES = {"default": {}, "dense": {"similarity": (0.85, 1.0)}}

    @staticmethod
    def config(ranges):
        cfg = ExperimentConfig(num_uavs=4, num_rsus=3, seeds=[0, 3])
        cfg.ranges.update(ranges)
        return cfg.validate()

    @pytest.mark.parametrize("ranges", RANGES.values(), ids=list(RANGES))
    @pytest.mark.parametrize("param,grid", SWEEPS, ids=[p for p, _ in SWEEPS])
    def test_cells_equal_their_solo_runs(self, monkeypatch, param, grid, ranges):
        cfg = self.config(ranges)
        cells = []
        solve_record = harness._solve_record

        def spy(seed, instance, *rest):
            cells.append((seed, instance))
            return solve_record(seed, instance, *rest)

        monkeypatch.setattr(harness, "_solve_record", spy)
        records, _ = run_sweep(cfg, SweepSpec(param, grid, cfg.seeds))
        monkeypatch.undo()
        assert len(cells) == len(records) == len(grid) * len(cfg.seeds)
        subs = [harness._apply_sweep_value(cfg, param, value)
                for value in grid for _ in cfg.seeds]
        for sub, (seed, got), rec in zip(subs, cells, records):
            want = sample_instance(sub.ranges, sub.num_uavs, sub.num_rsus,
                                   named_rng(seed, "instance"))
            for a, b in zip(got.arrays, want.arrays):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (param, sub, seed)
            assert repr(got) == repr(want)
            solo = run_solve(sub, seed)
            for name in ("run_id", "config_hash", "seed", "algorithm", "consistent"):
                assert getattr(rec, name) == getattr(solo, name)
            assert repr(rec.theoretical) == repr(solo.theoretical)
            for name in ("episode_rewards", "sparsity"):
                a, b = getattr(rec, name), getattr(solo, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_one_config_hash_per_cell(self, monkeypatch):
        cfg = self.config({})
        hashed = []

        def spy(sub):
            hashed.append(sub)
            return config_hash(sub)

        monkeypatch.setattr(harness, "config_hash", spy)
        records, _ = run_sweep(cfg, SweepSpec("c", [1.0, 2.5, 4.0], cfg.seeds))
        assert [sub.ranges["bandwidth_cost"][0] for sub in hashed] == [1.0, 2.5, 4.0]
        assert len(records) == 6

    @pytest.mark.parametrize("param,grid,ranges", [
        ("c", [1.0, 6.0], {}),
        ("p_bar", [0.5, 5.0], {}),
        ("J", [1, 2], {"similarity": (1.5, 2.0)}),
        ("I", [1, 2], {"budget": (-2.0, -1.0)}),
        ("I", [2, 3], {"delta": (5.0, 2.0)}),
    ], ids=["cost above cap", "cap below cost", "similarity", "budget", "empty range"])
    def test_out_of_domain_cell_raises_the_solo_error(self, param, grid, ranges):
        cfg = ExperimentConfig(num_uavs=2, num_rsus=2, seeds=[0, 3])
        cfg.ranges.update(ranges)
        want = None
        for value in grid:
            sub = harness._apply_sweep_value(cfg, param, value)
            for seed in cfg.seeds:
                try:
                    run_solve(sub, seed)
                except ConfigError as exc:
                    want = want or str(exc)
        assert want is not None
        with pytest.raises(ConfigError) as got:
            run_sweep(cfg, SweepSpec(param, grid, cfg.seeds))
        assert str(got.value) == want

    @pytest.mark.parametrize("param,grid", SWEEPS, ids=[p for p, _ in SWEEPS])
    def test_wall_ms_positive_within_elapsed(self, param, grid):
        cfg = self.config(self.RANGES["dense"])
        start = time.perf_counter()
        records, _ = run_sweep(cfg, SweepSpec(param, grid, cfg.seeds))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert all(rec.wall_ms > 0.0 for rec in records)
        assert sum(rec.wall_ms for rec in records) <= elapsed_ms

    @pytest.mark.parametrize("param", [p for p, _ in SWEEPS])
    def test_empty_grid_is_config_error(self, param):
        with pytest.raises(ConfigError, match=f"^sweep grid for {param} list is empty$"):
            SweepSpec(param, [], [0])


class TestTrainingGroup:
    @staticmethod
    def group_config():
        from bwmarket.tinynet import PruneSchedule
        cfg = ExperimentConfig(episodes=12, schedule=PruneSchedule(0.0, 0.5, 2, 3, 2))
        cfg.ranges["similarity"] = (0.85, 1.0)   # every link usable: rewards vary
        cfg.env.episode_length = 4
        cfg.ppo.rollout_size = 8
        cfg.ppo.update_epochs = 2
        return cfg.validate()

    @staticmethod
    def assert_records_equal(rec, alone):
        assert rec.run_id == alone.run_id
        np.testing.assert_array_equal(rec.episode_rewards, alone.episode_rewards,
                                      strict=True)
        np.testing.assert_array_equal(rec.sparsity, alone.sparsity, strict=True)
        assert rec.theoretical == alone.theoretical
        assert rec.consistent == alone.consistent

    @pytest.mark.parametrize("algorithms", [ALGORITHMS,
                                            ("greedy", "tiny_madrl", "greedy"),
                                            ("tiny_madrl", "ppo", "tiny_madrl")])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("episode_length", [4, 3])
    def test_group_equals_separate_runs(self, episode_length, algorithms, seed):
        """Each run of a lock-step group gets the record it gets alone, also
        when a PPO rollout of 8 steps spans episodes of 3 and their resets."""
        cfg = self.group_config()
        cfg.env.episode_length = episode_length
        self.check_group(cfg.validate(), algorithms, seed)

    @pytest.mark.parametrize("algorithms", [ALGORITHMS,
                                            ("tiny_madrl", "ppo", "tiny_madrl")])
    def test_group_equals_separate_runs_pruning_the_critic(self, algorithms):
        cfg = self.group_config()
        cfg.prune_critic = True
        self.check_group(cfg, algorithms, 3)

    def check_group(self, cfg, algorithms, seed):
        group = run_training_group(cfg, algorithms, seed)
        assert [r.algorithm for r in group] == ["solve", *algorithms]
        for rec in group[1:]:
            self.assert_records_equal(rec, run_training(cfg, rec.algorithm, seed))
        if "tiny_madrl" in algorithms:  # the schedule pruned inside the episodes
            assert group[1 + algorithms.index("tiny_madrl")].sparsity[-1] > 0.4

    def test_aborting_seller_leaves_the_others_alone(self, monkeypatch):
        """A seller whose updates abort restores and skips only itself: the
        other run of its stack trains and records as if it were not there."""
        from bwmarket.agents import PpoAgent
        cfg = self.group_config()
        build, stack = harness._build_agents, PpoAgent.stack

        def train(break_ppo):
            built = {}

            def build_and_keep(cfg, env, algorithm, seed):
                built[algorithm] = build(cfg, env, algorithm, seed)
                return built[algorithm]

            def stack_and_break(agents):
                stacked = stack(agents)
                if break_ppo:  # NaN values: every update of this seller aborts
                    failing = built["ppo"][0]
                    layers = (*failing.actor.layers, *failing.critic.layers[:-1])
                    failing.initial = [l.weights.copy() for l in layers]
                    failing.critic.layers[-1].weights[...] = np.nan
                return stacked

            monkeypatch.setattr(harness, "_build_agents", build_and_keep)
            monkeypatch.setattr(PpoAgent, "stack", staticmethod(stack_and_break))
            return run_training_group(cfg, ["tiny_madrl", "ppo"], 0), built

        (_, tiny, _), clean = train(False)
        (_, tiny_broken, _), broken = train(True)
        self.assert_records_equal(tiny_broken, tiny)
        for a, b in zip(broken["tiny_madrl"], clean["tiny_madrl"]):
            for net_a, net_b in ((a.actor, b.actor), (a.critic, b.critic)):
                for la, lb in zip(net_a.layers, net_b.layers):
                    np.testing.assert_array_equal(la.weights, lb.weights)
                for ma, mb in zip(net_a.masks, net_b.masks):
                    np.testing.assert_array_equal(ma, mb)
        rollouts = cfg.episodes * cfg.env.episode_length // cfg.ppo.rollout_size
        failing, healthy = broken["ppo"]
        assert (failing.update_count, failing.aborted_updates) == (0, rollouts)
        assert (healthy.update_count, healthy.aborted_updates) == (rollouts, 0)
        for layer, w in zip((*failing.actor.layers, *failing.critic.layers),
                            failing.initial):
            np.testing.assert_array_equal(layer.weights, w)

    def test_wall_ms_sums_to_group_time(self):
        cfg = self.group_config()
        start = time.perf_counter()
        group = run_training_group(cfg, ALGORITHMS, 0)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert [r.algorithm for r in group] == ["solve", *ALGORITHMS]
        assert all(r.wall_ms > 0 for r in group)
        assert sum(r.wall_ms for r in group) <= elapsed_ms

    @pytest.mark.parametrize("algorithms", [(), ("greedy", "tiny_madrl")],
                             ids=["none", "two"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_solve_record_matches_an_independent_reference(self, algorithms, seed):
        """A group's first record is its seed's solve: theoretical_baseline on
        the market sample_instance draws from the seed's instance stream."""
        cfg = self.group_config()
        rec = run_training_group(cfg, algorithms, seed)[0]
        want = sample_instance(cfg.ranges, cfg.num_uavs, cfg.num_rsus,
                               named_rng(seed, "instance"))
        theoretical, consistent = theoretical_baseline(want)
        assert (rec.run_id, rec.config_hash, rec.seed, rec.algorithm) == (
            f"solve-{config_hash(cfg)}-{seed}", config_hash(cfg), seed, "solve")
        assert rec.episode_rewards.size == rec.sparsity.size == 0
        assert repr(rec.theoretical) == repr(theoretical)
        assert rec.consistent == consistent
        assert rec.wall_ms > 0

    def test_group_of_none_builds_no_env(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a group of no algorithms built an env")

        monkeypatch.setattr(PricingEnv, "__init__", fail)
        group = run_training_group(self.group_config(), (), 0)
        assert [r.algorithm for r in group] == ["solve"]

    def test_reference_agrees_with_the_solve_record(self):
        """A training record's consistent flag is its seed's solve record's:
        the same solve, verified the same way, on seeds 0-199 of the default
        config (seeds 91 and 178 solve consistently but fail verification)."""
        cfg = ExperimentConfig().validate()
        one = replace(cfg, episodes=1)
        flags = [(run_training(one, "random", seed).consistent,
                  run_solve(cfg, seed).consistent) for seed in range(200)]
        assert [seed for seed, (a, b) in enumerate(flags) if a != b] == []
        assert not flags[91][1] and not flags[178][1]

    def test_config_hashed_before_any_work(self, monkeypatch):
        """An unvalidated config that cannot be hashed fails before the
        reference solve or any env step, not after every episode."""
        def fail(*args):
            raise AssertionError("the group ran before its config was hashed")

        monkeypatch.setattr(harness, "theoretical_baseline", fail)
        monkeypatch.setattr(PricingEnv, "step", fail)
        with pytest.raises(TypeError, match="int64"):
            run_training_group(ExperimentConfig(episodes=np.int64(40)), ["random"], 0)

    def test_non_finite_reward_names_episode_and_algorithm(self, monkeypatch):
        from bwmarket.agents import RandomAgent
        monkeypatch.setattr(RandomAgent, "act",
                            lambda self, obs, rng: np.full(len(self.box_low), np.nan))
        with pytest.raises(RuntimeError, match=r"episode 0 \(random\)"):
            run_training_group(tiny_config(), ["greedy", "random"], 0)


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config()
        records = [run_solve(cfg, 0), run_training(cfg, "random", 0)]
        path = emit_results(records, tmp_path)
        rows = parse_results_csv(path)
        assert rows and list(rows[0]) == CSV_COLUMNS
        training = [r for r in rows if r["agent_id"] != ""]
        assert len(training) == 3
        assert float(training[0]["reward"]) == records[1].episode_rewards[0, 0]

    def test_empty_records_header_only(self, tmp_path):
        path = emit_results([], tmp_path)
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_jsonl_matches_csv_rows(self, tmp_path):
        """results.jsonl holds results.csv's rows, field for field, and
        summary.json is write_summary's, for records given out of order."""
        cfg = tiny_config()
        records = [run_training(cfg, "random", 0), run_solve(cfg, 0),
                   run_training(cfg, "greedy", 0)]
        csv_rows = parse_results_csv(emit_results(records, tmp_path / "out"))
        jsonl = [json.loads(line) for line in
                 (tmp_path / "out" / "results.jsonl").read_text().splitlines()]
        assert [{k: str(v) for k, v in row.items()} for row in jsonl] == csv_rows
        assert len(csv_rows) == 1 + 2 * cfg.episodes * cfg.num_rsus
        summary = write_summary(records, tmp_path / "alone").read_bytes()
        assert (tmp_path / "out" / "summary.json").read_bytes() == summary

    def test_summary_contents(self, tmp_path):
        cfg = tiny_config()
        records = [run_training(cfg, "random", s) for s in (0, 1)]
        path = write_summary(records, tmp_path)
        summary = json.loads(path.read_text())
        entry = summary["random"]
        assert entry["num_runs"] == 2
        assert entry["percent_of_theoretical"] > 0

    def test_reemission_byte_identical(self, tmp_path):
        cfg = tiny_config()
        records = [run_training(cfg, "random", 0), run_solve(cfg, 1)]
        a = emit_results(records, tmp_path / "a").read_bytes()
        b = emit_results(records, tmp_path / "b").read_bytes()
        assert a == b


class TestReproducibility:
    def test_identical_seeds_identical_csv_excluding_wall(self, tmp_path):
        cfg = tiny_config()

        def run(sub):
            rec = run_training(cfg, "random", seed=0)
            path = emit_results([rec], tmp_path / sub)
            return [row[:-1] for row in
                    (line.split(",") for line in path.read_text().splitlines())]

        assert run("x") == run("y")

    def test_compare_matches_recorded_digest(self, tmp_path):
        """Every bit of a small four-algorithm `bwmarket compare` is what it
        was when TRAINING_DIGEST was recorded (commit 9fc3079): results.csv
        without its wall_ms column, and summary.json. The digest was re-pinned
        when `env.warmup_policy` left the config, again when `strict` and
        `verify_probes` did, and again when `env.demand_scale` did; each time
        only the config hash inside each run_id moved.

        The market is the perfbench `compare` one (3x2, similarity 0.85-1),
        for 30 episodes on seeds 0 and 1. The prune schedule masks from
        episode 5 on and ends at episode 25, so the updates also run masked
        actors. The digest holds for numpy's AVX-512 dispatch only: np.exp
        in the sigmoid and in the PPO ratio rounds differently in its
        AVX-512 code (ROADMAP item 16)."""
        config = tmp_path / "compare.yaml"
        config.write_text(yaml.safe_dump({
            "instance": {"I": 3, "J": 2, "ranges": {"similarity": [0.85, 1.0]}},
            "episodes": 30, "seeds": [0, 1],
            "schedule": {"start_epoch": 5, "total_steps": 4, "frequency": 5}}))
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(config), "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for line in (out / "results.csv").read_text().splitlines():
            digest.update(line.rsplit(",", 1)[0].encode() + b"\n")   # no wall_ms
        digest.update((out / "summary.json").read_bytes())
        assert digest.hexdigest() == TRAINING_DIGEST


class TestCli:
    def _write_cfg(self, tmp_path):
        doc = {"instance": {"I": 1, "J": 1,
                            "ranges": {"similarity": [0.85, 1.0]}},
               "episodes": 2, "seeds": [0],
               "env": {"history_length": 1, "episode_length": 4}}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        return str(path)

    def test_solve_command(self, tmp_path, capsys):
        code = cli_main(["solve", "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_solve_command_on_scaled_budgets(self, tmp_path):
        # budgets of 1e10 to 1e11, where the exact demands' spend can round
        # above the budget by more than 1e-9 absolute
        doc = {"instance": {"I": 8, "J": 4,
                            "ranges": {"similarity": [0.85, 1.0], "delta": [1e11, 2e11],
                                       "budget": [1e10, 1e11]}},
               "seeds": [0, 1, 2]}
        path = tmp_path / "scaled.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--strict"])
        assert code == 0

    def test_solve_strict_on_a_kink_market(self, tmp_path):
        # perfbench's compare market at seed 72, whose buyers' budgets sit on
        # their kink: it solves and verifies, so --strict exits 0
        doc = {"instance": {"I": 3, "J": 2, "ranges": {"similarity": [0.85, 1.0]}}}
        path = tmp_path / "compare.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = cli_main(["solve", "--config", str(path), "--seed", "72",
                         "--out", str(tmp_path / "out"), "--strict"])
        assert code == 0

    def test_solve_strict_on_a_large_market(self, tmp_path, capsys):
        # a 100 x 10 market where sellers gain by moving one price entry
        # alone: it fails verification, so --strict exits 1
        doc = {"instance": {"I": 100, "J": 10, "ranges": {"similarity": [0.5, 1.0]}}}
        path = tmp_path / "large.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = cli_main(["solve", "--config", str(path), "--seed", "0",
                         "--out", str(tmp_path / "out"), "--strict"])
        assert code == 1
        assert "equilibrium check failed for solve-" in capsys.readouterr().err

    def test_train_command(self, tmp_path):
        code = cli_main(["train", "--algo", "random",
                         "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        rows = parse_results_csv(tmp_path / "out" / "results.csv")
        assert len(rows) == 2

    def test_sweep_command(self, tmp_path, capsys):
        code = cli_main(["sweep", "--param", "c", "--grid", "1", "2",
                         "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "c=1" in capsys.readouterr().out

    def test_compare_command(self, tmp_path):
        code = cli_main(["compare", "--algo", "random", "greedy",
                         "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert {"random", "greedy", "solve"} <= set(summary)

    def test_compare_matches_separate_runs(self, tmp_path):
        """compare's files equal those of one run per algorithm and seed: the
        solve records, then algorithm-major and seed-minor."""
        doc = yaml.safe_load(Path(self._write_cfg(tmp_path)).read_text())
        doc["seeds"] = [0, 3]
        path = tmp_path / "two_seeds.yaml"
        path.write_text(yaml.safe_dump(doc))
        algos = ["greedy", "random"]
        code = cli_main(["compare", "--algo", *algos, "--config", str(path),
                         "--out", str(tmp_path / "cli")])
        assert code == 0
        cfg = load_config(path)
        records = [run_solve(cfg, seed) for seed in cfg.seeds]
        records += [run_training(cfg, a, seed) for a in algos for seed in cfg.seeds]
        emit_results(records, tmp_path / "api")
        write_summary(records, tmp_path / "api")

        def without_wall(out):
            rows = parse_results_csv(tmp_path / out / "results.csv")
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

        assert without_wall("cli") == without_wall("api")
        assert len(without_wall("cli")) == len(cfg.seeds) * (
            1 + len(algos) * cfg.episodes * cfg.num_rsus)
        assert ((tmp_path / "cli" / "summary.json").read_text()
                == (tmp_path / "api" / "summary.json").read_text())

    def test_compare_samples_and_solves_each_seed_once(self, tmp_path, monkeypatch):
        """compare runs one group per seed: each seed's market is sampled
        once, and that instance alone is solved and verified, once."""
        doc = yaml.safe_load(Path(self._write_cfg(tmp_path)).read_text())
        doc["seeds"] = [0, 3]
        path = tmp_path / "two_seeds.yaml"
        path.write_text(yaml.safe_dump(doc))
        sample, baseline = harness._sample, harness.theoretical_baseline
        sampled, solved = [], []

        def count_sample(cfg, seed):
            sampled.append((seed, sample(cfg, seed)))
            return sampled[-1][1]

        def count_baseline(instance):
            solved.append(instance)
            return baseline(instance)

        monkeypatch.setattr(harness, "_sample", count_sample)
        monkeypatch.setattr(harness, "theoretical_baseline", count_baseline)
        code = cli_main(["compare", "--algo", "greedy", "random", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert [seed for seed, _ in sampled] == [0, 3]
        assert len(solved) == 2
        assert all(a is b for (_, a), b in zip(sampled, solved))

    @pytest.mark.parametrize("command", [["compare", "--algo", "greedy", "random"],
                                         ["sweep", "--param", "J", "--grid", "1", "2"]],
                             ids=["compare", "sweep"])
    def test_outputs_flatten_each_record_once(self, tmp_path, monkeypatch, command):
        """One call writes results.csv, results.jsonl and summary.json, and
        flattens each record once for both results files."""
        doc = yaml.safe_load(Path(self._write_cfg(tmp_path)).read_text())
        doc["seeds"] = [0, 1]
        path = tmp_path / "two_seeds.yaml"
        path.write_text(yaml.safe_dump(doc))
        record_rows, flattened = harness.record_rows, []

        def count_rows(record):
            flattened.append(record.run_id)
            return record_rows(record)

        monkeypatch.setattr(harness, "record_rows", count_rows)
        out = tmp_path / "out"
        assert cli_main([*command, "--config", str(path), "--out", str(out)]) == 0
        run_ids = {row["run_id"] for row in parse_results_csv(out / "results.csv")}
        assert len(run_ids) == (6 if command[0] == "compare" else 4)
        assert sorted(flattened) == sorted(run_ids)
        assert (out / "results.jsonl").exists() and (out / "summary.json").exists()

    @pytest.mark.parametrize("param", ["I", "J"])
    def test_sweep_market_size_default_grid(self, tmp_path, capsys, param):
        code = cli_main(["sweep", "--param", param,
                         "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()[:4]] == [
            f"{param}={v}" for v in (1, 2, 3, 4)]

    @pytest.mark.parametrize("param, first", [("c", (1.0, 1.5, 2.0, 2.5)),
                                              ("p_bar", (5.0, 10.0, 15.0, 20.0))])
    def test_sweep_price_default_grid(self, tmp_path, capsys, param, first):
        """Each price parameter has its own default grid; the cap grid lies
        above every default cost, so its first cell is a valid market."""
        code = cli_main(["sweep", "--param", param,
                         "--config", self._write_cfg(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()[:4]] == [
            f"{param}={v}" for v in first]

    @staticmethod
    def forbid_work(monkeypatch):
        from bwmarket import cli

        def fail(*args):
            raise AssertionError("the command ran before its options were checked")

        for name in ("run_solve", "run_training", "run_training_group", "run_sweep"):
            monkeypatch.setattr(cli, name, fail)

    def test_out_path_not_a_directory_reports_error(self, tmp_path, capsys, monkeypatch):
        """An --out that names a file, or a path below one, is refused before
        any work: exit 2 with one line."""
        self.forbid_work(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        for out in (taken, taken / "sub"):
            code = cli_main(["solve", "--config", self._write_cfg(tmp_path),
                             "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2, out
            assert captured.err.startswith("error: "), captured.err
            assert captured.err.count("\n") == 1, captured.err
            assert "wrote" not in captured.out
        assert taken.read_text() == "keep\n"

    def test_repeated_seed_or_algorithm_reports_error(self, tmp_path, capsys,
                                                      monkeypatch):
        """A repeated seed or --algo value would write one run id twice; it is
        refused before any work: exit 2 with one line, nothing written."""
        self.forbid_work(monkeypatch)
        doc = yaml.safe_load(Path(self._write_cfg(tmp_path)).read_text())
        doc["seeds"] = [0, 3, 0]
        repeated_seed = tmp_path / "repeated_seed.yaml"
        repeated_seed.write_text(yaml.safe_dump(doc))
        cases = [
            (["solve", "--config", str(repeated_seed)], "seeds must not repeat"),
            (["compare", "--algo", "greedy", "random", "greedy",
              "--config", self._write_cfg(tmp_path)], "--algo must not repeat"),
        ]
        for argv, message in cases:
            code = cli_main([*argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert message in err, err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["solve"], ["train", "--algo", "random"]])
    def test_strict_writes_outputs_then_names_inconsistent_runs(self, tmp_path, capsys,
                                                                monkeypatch, argv):
        """--strict writes every output, then exits 1 with one line naming the
        runs whose equilibrium failed; solve and training records alike take
        that flag from theoretical_baseline."""
        monkeypatch.setattr(harness, "theoretical_baseline", lambda inst: (1.0, False))
        out = tmp_path / "out"
        code = cli_main([*argv, "--config", self._write_cfg(tmp_path), "--strict",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert (out / "results.csv").exists() and (out / "summary.json").exists()
        assert "wrote" in captured.out
        run_id = parse_results_csv(out / "results.csv")[0]["run_id"]
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert run_id in captured.err, captured.err

    def test_train_strict_fails_where_solve_strict_fails(self, tmp_path, capsys):
        """Seed 91 of the default config solves consistently but fails
        verification; a training run's reference is that same equilibrium,
        so train --strict exits 1 naming the run, as solve --strict does."""
        for argv in (["solve"], ["train", "--algo", "random"]):
            out = tmp_path / argv[0]
            code = cli_main([*argv, "--seed", "91", "--strict", "--out", str(out)])
            run_id = parse_results_csv(out / "results.csv")[0]["run_id"]
            assert code == 1, argv
            assert run_id in capsys.readouterr().err

    def test_strict_consistent_run_exits_zero(self, tmp_path, capsys):
        code = cli_main(["solve", "--config", self._write_cfg(tmp_path), "--strict",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_sweep_bad_grid_reports_error(self, tmp_path, capsys):
        cases = [
            (["I", "2", "2"], "sweep grid must be strictly increasing"),
            (["I", "0", "1"], "sweep grid for I must be >= 1"),
            (["I", "2.7", "3.9"], "sweep grid for I must be whole numbers"),
            (["c", "-1", "1"], "sweep grid for c must be > 0"),
        ]
        for (param, *grid), message in cases:
            code = cli_main(["sweep", "--param", param, "--grid", *grid,
                             "--config", self._write_cfg(tmp_path),
                             "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (param, grid)
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
            assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cases = {
            "unknown key": yaml.safe_dump({"mystery": True}),
            "negative budget range": yaml.safe_dump(
                {"instance": {"ranges": {"budget": [-2, -1]}}}),
            "malformed YAML": "instance: [1, 2\n  bad: :\n",
            "invalid env option": yaml.safe_dump({"env": {"history_length": 0}}),
            "fractional I": yaml.safe_dump({"instance": {"I": 2.5}}),
            "non-numeric episodes": yaml.safe_dump({"episodes": "abc"}),
            "one-ended range": yaml.safe_dump({"instance": {"ranges": {"budget": [1]}}}),
            "string bool": 'prune_critic: "no"\n',
            "YAML 1.1 exponent": "ppo: {actor_lr: 1e-3}\n",
            "non-mapping instance": "instance: 5\n",
            "non-mapping section": "ppo: 3\n",
            "scalar seeds": "seeds: 3\n",
            "fractional hidden size": "ppo: {hidden_sizes: [8.5, 8]}\n",
            "unknown instance key": "instance: {K: 3}\n",
            "fractional rollout size": "ppo: {rollout_size: 2.5}\n",
            "removed strict switch": "strict: true\n",
            "numeric out": "out: 5\n",
            "zero rollout size": "ppo: {rollout_size: 0}\n",
            "zero update epochs": "ppo: {update_epochs: 0}\n",
            "no hidden layers": "ppo: {hidden_sizes: []}\n",
            "zero hidden size": "ppo: {hidden_sizes: [0, 8]}\n",
            "zero greedy levels": "greedy_levels: 0\n",
            "greedy epsilon above 1": "greedy_epsilon: 1.5\n",
            "negative greedy epsilon": "greedy_epsilon: -0.1\n",
            "removed probe count": "verify_probes: 200\n",
            "negative seed": "seeds: [-3]\n",
            "negative schedule steps": "schedule: {total_steps: -10}\n",
            "zero schedule steps": "schedule: {total_steps: 0}\n",
            "negative schedule start": "schedule: {start_epoch: -5}\n",
            "NaN range": "instance: {ranges: {delta: [.nan, .nan]}}\n",
            "infinite range": "instance: {ranges: {budget: [1.0, .inf]}}\n",
            "range of infinite width":
                "instance: {ranges: {noise_dbm: [-1.0e+308, 1.0e+308]}}\n",
            "zero floor neurons": "floor_neurons: 0\n",
            "negative floor neurons": "floor_neurons: -5\n",
            "negative actor learning rate": "ppo: {actor_lr: -1.0}\n",
            "zero critic learning rate": "ppo: {critic_lr: 0}\n",
            "removed advantage switch": "ppo: {normalize_advantages: false}\n",
            "removed reward switch": "ppo: {normalize_rewards: false}\n",
        }
        for name, text in cases.items():
            path = tmp_path / "bad.yaml"
            path.write_text(text)
            code = cli_main(["solve", "--config", str(path),
                             "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, name
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("env.warmup_policy", "zeros"),
                                            ("env.demand_scale", "1.0")],
                             ids=["env.warmup_policy", "env.demand_scale"])
    def test_removed_warmup_policy_names_its_key(self, tmp_path, capsys, monkeypatch,
                                                 key, value):
        """A removed env option exits 2 before any work as an unknown option."""
        self.forbid_work(monkeypatch)
        section, name = key.split(".")
        path = tmp_path / "bad.yaml"
        path.write_text(f"{section}: {{{name}: {value}}}\n")
        code = cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unknown config option '{key}'\n")

    @pytest.mark.parametrize("key", [
        "instance.I", "instance.ranges", "episodes", "seeds", "ppo", "ppo.actor_lr",
        "ppo.hidden_sizes", "env.history_length", "schedule.total_steps"])
    def test_bad_value_names_its_file_key(self, tmp_path, capsys, monkeypatch, key):
        """The values test_every_field_rejects_or_runs sets from Python, each
        written under a file key it does not fit, exit 2 before any work with
        one error line that names the key as the file spells it."""
        self.forbid_work(monkeypatch)
        section, _, name = key.rpartition(".")
        path = tmp_path / "bad.yaml"
        for value in (".nan", ".inf", "-.inf", "0", "-1", "true", "x"):
            path.write_text(f"{section}: {{{name}: {value}}}\n" if section
                            else f"{name}: {value}\n")
            code = cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, value
            assert err.startswith(f"error: {path}: {key} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["solve", "train"])
    def test_negative_seed_override_reports_error(self, tmp_path, capsys, command):
        code = cli_main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: seeds must be >= 0, got [-1]\n"
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        code = cli_main(["train", "--algo", "random",
                         "--config", self._write_cfg(tmp_path),
                         "--seed", "9", "--out", str(tmp_path / "out")])
        assert code == 0
        rows = parse_results_csv(tmp_path / "out" / "results.csv")
        assert all(r["seed"] == "9" for r in rows)


class TestBenchmarkHooks:
    """The benchmark's tracer and output checks, loaded from perfbench/ as
    they stand, still work against the package: a function the tracer wraps
    that is renamed or deleted fails here, not only in a traced run."""

    @staticmethod
    def load(name, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)   # for its dataclasses
        spec.loader.exec_module(module)
        return module

    def test_tracer_wraps_every_target_and_restores_it(self, monkeypatch):
        spans = self.load("spans", monkeypatch)
        tracer = spans.Tracer()
        try:
            tracer.install()
            patched = list(tracer._restore)
            for owner, key, original in patched:
                assert vars(owner)[key] is not original, key
        finally:
            tracer.uninstall()
        wrapped = {(id(owner), key) for owner, key, _ in patched}
        for module_name, attr in spans.TARGETS.values():
            owner = importlib.import_module(module_name)
            *cls, key = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            assert (id(owner), key) in wrapped, attr
        for owner, key, original in patched:
            assert vars(owner)[key] is original, key

    def test_compact_observer_counts_the_compacted_parameters(self, monkeypatch):
        """The observer sums ``weights.size`` plus ``bias``, so it needs the
        bias-free layers' read-only ``bias`` property."""
        spans = self.load("spans", monkeypatch)
        net = tinynet.PrunableMlp.create([6, 16, 16, 3], rng=np.random.default_rng(0))
        tinynet.update_masks(net, tinynet.PruneSchedule(0.5, 0.5, 0, 1), epoch=0)
        tracer = spans.Tracer()
        try:
            tracer.install()
            small = tinynet.compact(net)
        finally:
            tracer.uninstall()
        count = tinynet.parameter_count(small)
        assert count < tinynet.parameter_count(net)
        assert tracer.metrics()["tinynet.compact.params_after"] == (count, "count")

    def test_check_solution_accepts_a_solved_market(self, monkeypatch):
        workloads = self.load("workloads", monkeypatch)
        inst = sample_instance({"similarity": (0.85, 1.0)}, 20, 5, seed=0)
        sol = solve_equilibrium(inst)
        assert np.any(sol.demands.demands > 0)
        assert workloads.check_solution(inst, sol) == []

    def test_every_reference_market_passes_the_solve_large_checks(self, monkeypatch):
        """All 64 recorded 100 x 10 markets of solve-large (the timed runs
        draw 48 of them) pass its output checks, and every one solves
        consistently: the buyers the reference resolved as mixed cases are
        priced on their budget kink, without a diagnostic."""
        workloads = self.load("workloads", monkeypatch)
        reference = json.loads(workloads.REFERENCE.read_text())["instances"]
        assert len(reference) == 64
        for ref in reference:
            inst = workloads.large_instance(ref["seed"])
            sol = solve_equilibrium(inst)
            assert workloads.check_solution(inst, sol) == [], ref["seed"]
            assert workloads.compare_reference(ref, sol) == [], ref["seed"]
            assert workloads.mixed_buyers(sol) == set(), ref["seed"]
            assert sol.consistent and not sol.diagnostics, ref["seed"]
        assert sum(not ref["consistent"] for ref in reference) == 33

"""Bandwidth-pricing Stackelberg market: exact equilibria and tiny learned pricing."""

from .game import (
    ChannelLink,
    DemandMatrix,
    EquilibriumSolution,
    GameInstance,
    PriceMatrix,
    RsuProfile,
    SsimTriple,
    UavProfile,
    all_followers_respond,
    solve_equilibrium,
    verify_equilibrium,
)
from .env import EnvConfig, PricingEnv, StepOutcome, theoretical_baseline
from .tinynet import DenseLayer, PrunableMlp, PruneSchedule, compact, sparsity_at
from .agents import GreedyAgent, PpoAgent, PpoConfig, RandomAgent, TinyMadrlAgent
from .harness import (
    ExperimentConfig,
    RunRecord,
    SweepSpec,
    emit_results,
    run_solve,
    run_sweep,
    run_training,
    run_training_group,
    sample_instance,
)

__version__ = "0.1.0"

"""Decentralized safety shields for multi-agent actor-critic learners.

The package splits into a simulation core (`dynamics`, `patrol`), the
safety machinery (`barriers`, `qp`, `shield`), the learner (`nets`,
`maddpg`, `checkpoint`), and operator plumbing (`config`, `svgplot`,
`cli`).
"""

from .barriers import (
    InsideUnsafeBall,
    ShieldParams,
    cbf_condition_residual,
    h_cooperative,
    h_noncooperative,
)
from .dynamics import AgentState, ObstacleSpec, WorldConfig, step_agent
from .maddpg import MaddpgTrainer, ReplayBuffer, TrainerConfig
from .patrol import EnvState, EpisodeLedger, PatrolEnv, default_world
from .qp import QpProblem, QpSolution, kkt_check, solve
from .shield import ShieldReport, filter_action, local_rows

__version__ = "0.1.0"

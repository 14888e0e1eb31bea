"""Learning time discretizations for diffusion ODE samplers.

Small numpy laboratory: noise schedules, analytic denoisers,
differentiable multistep solvers, heuristic and learned step grids, and the
evaluation tools to compare them.
"""

from .schedule import NoiseSchedule, ScheduleDomainError, ve_edm, vp_linear
from .denoisers import GMDenoiser
from .engine import (EngineError, Tape, Value, adjoint_chain_grad,
                     whole_chain_grad)
from .solvers import DivergenceError, GridError, SolverSpec, solve
from .discretize import (HEURISTICS, Discretization, heuristic_times,
                         init_from_times, load_checkpoint, save_checkpoint,
                         tau)
from .training import (Dataset, Teacher, TrainConfig, TrainReport,
                       TrainingError, generate_dataset, project, radius,
                       train)
from .evaluate import (BoundReport, bound_closed_terms, cross_eval,
                       estimate_bound, log_abs_det_jacobian, rmsd,
                       solve_batch, sweep_r, w1, w1_1d)
from .config import ConfigError, DEFAULTS, load_config, parse_config
from .dataio import FormatError, load_dataset, save_dataset
from .rng import derive_seed, sample_prior, substream, substreams

__all__ = [
    "NoiseSchedule", "ScheduleDomainError", "ve_edm", "vp_linear",
    "GMDenoiser",
    "EngineError", "Tape", "Value", "adjoint_chain_grad",
    "whole_chain_grad",
    "DivergenceError", "GridError", "SolverSpec", "solve",
    "HEURISTICS", "Discretization", "heuristic_times", "init_from_times",
    "load_checkpoint", "save_checkpoint", "tau",
    "Dataset", "Teacher", "TrainConfig", "TrainReport", "TrainingError",
    "generate_dataset", "project", "radius", "train",
    "BoundReport", "bound_closed_terms", "cross_eval",
    "estimate_bound", "log_abs_det_jacobian", "rmsd", "solve_batch",
    "sweep_r", "w1", "w1_1d",
    "ConfigError", "DEFAULTS", "load_config", "parse_config",
    "FormatError", "load_dataset", "save_dataset",
    "derive_seed", "sample_prior", "substream", "substreams",
]

__version__ = "0.1.0"

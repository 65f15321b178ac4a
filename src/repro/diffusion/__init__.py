"""RWR-based graph diffusion algorithms (Section IV of the paper)."""

from .base import DiffusionResult, validate_diffusion_inputs
from .exact import exact_diffusion, exact_rwr, rwr_matrix
from .greedy import greedy_diffuse
from .nongreedy import nongreedy_diffuse
from .adaptive import adaptive_diffuse
from .push import push_diffuse
from .workspace import DiffusionWorkspace

__all__ = [
    "DiffusionResult",
    "DiffusionWorkspace",
    "validate_diffusion_inputs",
    "exact_diffusion",
    "exact_rwr",
    "rwr_matrix",
    "greedy_diffuse",
    "nongreedy_diffuse",
    "adaptive_diffuse",
    "push_diffuse",
]

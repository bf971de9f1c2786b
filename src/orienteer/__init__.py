"""Excess-bounded geometric routing: rooted k-TSP, (m,k)-TSP and orienteering.

The package solves three rooted Euclidean problems at desk scale:

- ``solve_ktsp``: shortest path between two prescribed endpoints visiting at
  least k points, as the one-window candidate of the paper's plane sweep
  over windows: one Held-Karp read from the source over the whole set.
- ``solve_mktsp``: m paths with prescribed endpoint pairs jointly visiting k
  points, as the one-window candidate of the multi-path extension of the
  same sweep: one multi-slot window read over the whole set.
- ``solve_orienteering``: maximize points visited under a length budget, by
  reducing to (m,k)-TSP queries over skeleton point tuples.

Every solver is verifiable against the naive enumeration oracles in
``orienteer.oracle``.
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    DegenerateInputError,
    InfeasibleError,
    InputError,
    OrienteerError,
    SamplingFailureError,
    VerificationError,
)
from .geometry import PointSet, Transform, angle_to_axis, dist, rotate_to_axis
from .paths import (
    MultiPath,
    Path,
    directed_edge_partition,
    excess,
    multipath_excess,
    offangle_edge_mass,
    path_length,
)
from .windows import (
    Window,
    WindowDecomposition,
    decompose_path,
    window_excess,
    window_points,
)
from .directions import DirectionResult, find_direction, orient_pairs
from .window_solver import EndpointArrays, ExactWindowSolver, WindowSolution
from .ktsp import solve_ktsp
from .mktsp import solve_mktsp
from .orienteering import (
    OrienteeringInstance,
    OrienteeringSolution,
    concatenate_skeleton_paths,
    skeleton_indices,
    solve_orienteering,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "DegenerateInputError",
    "DirectionResult",
    "EndpointArrays",
    "ExactWindowSolver",
    "InfeasibleError",
    "InputError",
    "MultiPath",
    "OrienteerError",
    "OrienteeringInstance",
    "OrienteeringSolution",
    "Path",
    "PointSet",
    "SamplingFailureError",
    "Transform",
    "VerificationError",
    "Window",
    "WindowDecomposition",
    "WindowSolution",
    "angle_to_axis",
    "concatenate_skeleton_paths",
    "decompose_path",
    "directed_edge_partition",
    "dist",
    "excess",
    "find_direction",
    "multipath_excess",
    "offangle_edge_mass",
    "orient_pairs",
    "path_length",
    "rotate_to_axis",
    "skeleton_indices",
    "solve_ktsp",
    "solve_mktsp",
    "solve_orienteering",
    "window_excess",
    "window_points",
]

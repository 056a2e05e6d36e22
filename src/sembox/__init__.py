"""Desk-scale spectral-element dynamical core on column meshes.

The package has two halves that share a vocabulary:

* a small compressible-Euler engine (reference element, column mesh,
  continuous-Galerkin assembly with two storage layouts, explicit
  Runge-Kutta stepping, rising-bubble driver), and
* an analytical roofline performance model that prices the same kernels
  in flops and bytes for the CG, hybrid and duplicated (DG) layouts.
"""

from .reference_element import ReferenceElement, lobatto_points
from .mesh import (build_box_mesh, compute_metrics, build_cg_numbering,
                   partition_columns, morton_encode, morton_decode)
from .storage import PartitionLayout, halo_exchange
from .dynamics import GasConstants, Discretization
from .time_integration import RkScheme, TimestepControl, compute_dt
from .perf_model import MachineModel, SimConfig, KernelCost, count_costs
from .harness import BubbleConfig, run_bubble, scale_experiment

__all__ = [
    "ReferenceElement", "lobatto_points",
    "build_box_mesh", "compute_metrics", "build_cg_numbering",
    "partition_columns", "morton_encode", "morton_decode",
    "PartitionLayout", "halo_exchange",
    "GasConstants", "Discretization",
    "RkScheme", "TimestepControl", "compute_dt",
    "MachineModel", "SimConfig", "KernelCost", "count_costs",
    "BubbleConfig", "run_bubble", "scale_experiment",
]

__version__ = "0.1.0"

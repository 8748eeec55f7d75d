"""Numerical toolkit for holomorphic disks under non-standard complex
structures: a Cauchy-transform fixed-point disk solver, chain-based
hyperbolic distance estimation, and a derivative-normalizing rescaling
pipeline that extracts entire-line candidates.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, Diverged, GridMismatch, HypothesisViolated,
                     InvalidChain, InvalidGrid, InvalidParams, JDiskError,
                     NoChainFound, NotHolomorphicMap, OutsideDisk,
                     OutsideInterpolationRange, Singular, UnknownName,
                     ZeroDerivative)
from .structure import (ComplexConvention, DomainDescriptor, StructureField,
                        ValidationReport, gallery, q_field, q_matrix,
                        validate_structure)
from .diskgrid import (DiskGrid, DiskMap, MobiusAutomorphism, d_dz, d_dzbar,
                       eval_interp, make_grid, mobius_swap, poincare_distance,
                       sup_poincare_derivative, to_csv, to_json_obj)
from .cauchygreen import CGOperator, cg_apply, cg_build, cg_residual
from .solver import (DiskSolution, SolverConfig, affine_target, cr_residual,
                     derivative_disk, picard_solve, two_point_disk)
from .kobayashi import (BoundReport, Chain, ChainLink, DistanceEstimate,
                        KobayashiOptions, chain_cost, concatenate_chains,
                        derivative_bound, estimate_distance,
                        pushforward_chain, validate_chain)
from .brody import (LineCandidate, ReparamResult, RescalingReport,
                    brody_reparametrize, derivative_ladder_family,
                    dilation_family, extract_line, rescale_step, scaling_sup)

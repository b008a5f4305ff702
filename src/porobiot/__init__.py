"""Mixed finite-element solver for non-linear quasi-static Biot poromechanics.

Discretization: vector P1 displacements, lowest-order Raviart-Thomas
fluxes and P0 pressures on structured triangle meshes, backward Euler in
time.  The non-linear problem of each step is solved either by a
fixed-stress-type splitting iteration or by a monolithic constant-slope
iteration, both stabilized by tuning parameters L1 and L2; the splitting
sweep doubles as a block preconditioner for GMRES on the monolithic
system.
"""

from .mesh import Mesh, MeshError, Side, generate_rect_mesh
from .fem import DofMap, FeFunction, QuadratureRule, SpaceKind, interpolate, \
    l2_inner, l2_norm, quadrature
from .physics import MandelConfig, MaterialModel, NonlinearLaw, \
    ProblemDefinition, estimate_constants, law_catalog, make_material, \
    mandel_material, mandel_problem, manufactured_material, \
    manufactured_problem
from .assembly import BiotOperators, assemble_flow, assemble_loads, \
    assemble_mechanics, build_constraints, build_operators
from .schemes import BiotState, DivergenceError, IterationTrace, \
    SchemeConfig, SchemeSolver, build_initial_state, iterate_to_convergence, \
    march, residual_norms, time_march
from .linalg import CachedLU, FixedStressPreconditioner, SolverReport, gmres

__version__ = "0.1.0"

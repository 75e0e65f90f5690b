"""Eigenvalues of singular Sturm-Liouville problems by sinc collocation.

The solver expands the transformed eigenfunction in a sinc basis,
collocates at the mesh points, and solves the resulting symmetric
generalized eigensystem; the basis enters only through its order-2
differentiation matrix at those points.  Double-exponential variable
transformations give near-geometric convergence in the matrix dimension;
the single-exponential variants are kept as baselines.  The package
exports what the pipeline, the command line and the benchmark call.
"""

from .eigensolve import (AssemblyError, DefinitenessError, GeneralizedSystem,
                         SolverError, Spectrum, assemble, solve_generalized)
from .expressions import ExpressionError, parse_expression
from .maps import EvaluationError, TransformedProblem, map_catalog, transform_problem
from .meshing import (DEProfile, MeshConfig, SEProfile, de_mesh, de_mesh_symmetric,
                      diff_matrix, se_mesh)
from .problems import (ConfigError, SturmLiouvilleProblem, builtin, parse_problem_config,
                       reference_eigenvalue, transformed)
from .study import (InsufficientDataError, StudyError, StudyRecord, compare_methods,
                    convergence_study, emit_csv, rate_fit)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConfigError", "DEProfile",
    "DefinitenessError", "EvaluationError", "ExpressionError",
    "GeneralizedSystem", "InsufficientDataError", "MeshConfig",
    "SEProfile", "SolverError", "Spectrum", "StudyError", "StudyRecord",
    "SturmLiouvilleProblem", "TransformedProblem", "assemble",
    "builtin", "compare_methods", "convergence_study", "de_mesh",
    "de_mesh_symmetric", "diff_matrix", "emit_csv",
    "map_catalog", "parse_expression", "parse_problem_config",
    "rate_fit", "reference_eigenvalue", "se_mesh", "solve_generalized",
    "transform_problem", "transformed",
]

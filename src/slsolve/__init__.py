"""Eigenvalues of singular Sturm-Liouville problems by sinc collocation.

The solver expands the transformed eigenfunction in a sinc basis,
collocates at the mesh points, and solves the resulting symmetric
generalized eigensystem.  Double-exponential variable transformations
give near-geometric convergence in the matrix dimension; the
single-exponential variants are kept as baselines.
"""

from .eigensolve import (AssemblyError, DefinitenessError, GeneralizedSystem,
                         SolverError, Spectrum, assemble, solve_generalized)
from .expressions import ExpressionError, parse_expression
from .maps import (ConformalMap, EvaluationError, TransformedProblem,
                   map_catalog, qtilde_eval, transform_problem, weight_eval)
from .meshing import (DecayProfile, MeshConfig, de_mesh, de_mesh_symmetric,
                      lambert_w0, se_mesh)
from .problems import (ConfigError, SturmLiouvilleProblem, bessel_zero, builtin,
                       parse_problem_config, reference_eigenvalue, transformed)
from .sinc import diff_matrix, sinc, sinc_basis
from .study import (InsufficientDataError, StudyError, StudyRecord,
                    compare_methods, convergence_study, emit_csv, rate_fit,
                    read_csv, singular_comparison)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "ConfigError", "ConformalMap", "DecayProfile",
    "DefinitenessError", "EvaluationError", "ExpressionError",
    "GeneralizedSystem", "InsufficientDataError", "MeshConfig",
    "SolverError", "Spectrum", "StudyError", "StudyRecord",
    "SturmLiouvilleProblem", "TransformedProblem", "assemble", "bessel_zero",
    "builtin", "compare_methods", "convergence_study", "de_mesh",
    "de_mesh_symmetric", "diff_matrix", "emit_csv",
    "lambert_w0", "map_catalog", "parse_expression", "parse_problem_config",
    "qtilde_eval", "rate_fit", "read_csv", "reference_eigenvalue", "se_mesh",
    "sinc", "sinc_basis", "singular_comparison", "solve_generalized",
    "transform_problem", "transformed",
    "weight_eval",
]

"""Identifiability of direct causal effects in linear structural equation
models with explicitly modelled latent factor variables.

The package decides, graph by graph, which direct-effect coefficients are
rationally identifiable from the observed covariance matrix, produces the
witnessing certificates and closed-form rational formulas, and verifies
the formulas numerically against synthesized covariance matrices.
"""

from .catalog import BUILTIN_GRAPHS, builtin_graph
from .criteria import (
    CertRecord,
    DetCertificate,
    HtcCertificate,
    IdentificationState,
    SearchConfig,
    check_elf_htc,
    combined_algorithm,
    det_subprocedure,
    elf_htc_subprocedure,
    verify_certificate,
)
from .enumeration import (
    METHOD_PRESETS,
    PATTERNS,
    REFERENCE_COUNTS,
    BenchmarkRow,
    LatentPattern,
    OVERLAPPING_FACTORS_SIX,
    SINGLE_FACTOR_SIX,
    automorphisms,
    enumerate_dags,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
)
from .formulas import (
    Const,
    Cov,
    DegenerateInputError,
    DeletionContext,
    DependencyError,
    Det,
    FormulaMap,
    Lam,
    Neg,
    Prod,
    Quot,
    RationalExpr,
    SolveCoord,
    Sum,
    adjusted_cov,
    build_det_formula,
    build_elf_system,
    eval_expr,
    expr_to_dict,
    formula_map_from_state,
    render_latex,
    solve_alpha,
)
from .graph import (
    Edge,
    EdgeIntoLatentError,
    GraphError,
    LatentFactorGraph,
    NamespaceError,
    SelfLoopError,
    UnknownNodeError,
    graph_from_dict,
    graph_to_dict,
    load_graph,
)
from .numerics import (
    CovarianceMatrix,
    ModelParameters,
    SamplingError,
    SamplingSpec,
    covariance,
    covariance_from_csv,
    covariance_to_csv,
    estimate,
    sample_parameters,
    verify_identification,
)

__version__ = "1.0.0"

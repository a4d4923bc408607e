"""Identifiability of direct causal effects in linear structural equation
models with explicitly modelled latent factor variables.

The package decides, graph by graph, which direct-effect coefficients are
rationally identifiable from the observed covariance matrix, produces the
witnessing certificates and closed-form rational formulas, and verifies
the formulas numerically against synthesized covariance matrices.

The package root exports the names of the README's library example;
everything else is imported from its module, for example
`latentid.criteria.SearchConfig`.
"""

from .catalog import builtin_graph
from .criteria import combined_algorithm
from .formulas import formula_map_from_state, render_latex
from .numerics import covariance, estimate, sample_parameters

__version__ = "1.0.0"

"""The benchmark's trace mode still finds the program's span points."""

import importlib.util
from pathlib import Path

from latentid import criteria

from oracles import G7

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_search_counts_subgraphs_and_certificates():
    """With the tracer installed, a search on G7 completes and the tracer
    counts the subgraphs the subprocedures ran on and the certificates
    the search recorded; removing it restores the program's functions."""
    original = criteria.combined_algorithm
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        state = criteria.combined_algorithm(G7)
    finally:
        tracer.remove()
    assert criteria.combined_algorithm is original
    metrics = tracer.layer_metrics()
    assert len(state.solved_edges) == 10
    assert metrics["criteria.subgraphs"][0] > 0
    assert metrics["criteria.certificates"][0] == len(state.certificates) > 0
    assert metrics["criteria.det_calls"][0] > 0

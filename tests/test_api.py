"""The package root: the README's library example runs as written, and
the root exports exactly the names it imports."""

import ast
import re
from pathlib import Path
from types import ModuleType

import latentid

README = Path(__file__).parents[1] / "README.md"


def library_snippet() -> str:
    """The Python block of the README's *Library* section."""
    text = README.read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_example_recovers_coefficients(capsys):
    scope: dict = {}
    exec(compile(library_snippet(), str(README), "exec"), scope)
    assert capsys.readouterr().out
    g, fmap, sigma = scope["g"], scope["fmap"], scope["sigma"]
    params = scope["sample_parameters"](g, seed=1)
    results = scope["estimate"](g, sigma, fmap)
    assert set(results) == g.edges_obs
    for edge, res in results.items():
        assert not res.degenerate
        assert abs(res.value - params.coefficient(edge)) < 1e-8, edge


def test_root_exports_the_readme_names():
    (imports,) = [
        node
        for node in ast.walk(ast.parse(library_snippet()))
        if isinstance(node, ast.ImportFrom) and node.module == "latentid"
    ]
    readme_names = {alias.name for alias in imports.names}
    assert len(readme_names) == 7
    exported = {
        name
        for name, value in vars(latentid).items()
        if not isinstance(value, ModuleType)
        and (not name.startswith("_") or name == "__version__")
    }
    assert exported == readme_names | {"__version__"}

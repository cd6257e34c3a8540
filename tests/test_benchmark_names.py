"""The benchmark's instrumentation names every function it means to measure.

``benchmarks/traced_cli.py`` wraps the functions in ``SPANS`` and
``benchmarks/run.py`` reads cProfile call counts for ``CALL_METRICS``.  A
renamed or deleted function would only show up there as a missing span or a
count of 0, so both tables are read here as plain literals (nothing under
``benchmarks/`` is imported) and checked against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def literal(filename: str, name: str):
    """Value of the top-level assignment ``name = <literal>`` in a benchmark file."""
    tree = ast.parse((BENCHMARKS / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in benchmarks/{filename}")


def defined_functions(module) -> set[str]:
    """Names of every function and method defined in a module's source."""
    tree = ast.parse(inspect.getsource(module))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


SPANS = literal("traced_cli.py", "SPANS")
CALL_METRICS = literal("run.py", "CALL_METRICS")


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_names_a_module_function(span):
    module_name, attr = SPANS[span]
    module = importlib.import_module(module_name)
    function = getattr(module, attr, None)
    assert inspect.isfunction(function), f"{module_name}.{attr} is not a function"
    assert function.__module__ == module_name


@pytest.mark.parametrize(
    "metric",
    # calls into the standard library's fractions module are not ours to check
    [m for m in sorted(CALL_METRICS) if not CALL_METRICS[m].startswith("fractions.")],
)
def test_call_metric_names_a_defined_function(metric):
    module_name, _, func = CALL_METRICS[metric].partition(".")
    module = importlib.import_module(f"qcohom.{module_name}")
    assert func in defined_functions(module), f"qcohom.{module_name} defines no {func}"

"""The value-record base of the data classes, what start-up imports, the
package's lazy exports, and the library example of the README."""

import inspect
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qcohom
from qcohom.expr import parse_poly
from qcohom.jobs import job_from_dict
from qcohom.poly import GENERATOR, INSTANTON, Polynomial, Variable, VariableTable
from qcohom.rings import RingPresentation

SPECS = [("x", 1, GENERATOR), ("y", 1, GENERATOR), ("q", 2, INSTANTON)]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: without site, whose .pth files may import typing before the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qcohom.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_rings_import_loads_no_toric():
    # the ring constructors live in toric, which imports rings: the import
    # graph stays acyclic only while rings imports nothing from toric
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qcohom.rings; "
        "print('qcohom.toric' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_every_export_resolves_to_its_module():
    assert len(set(qcohom.__all__)) == len(qcohom.__all__)
    for module_name, names in qcohom._EXPORTS.items():
        module = import_module(f"qcohom.{module_name}")
        for name in names:
            value = getattr(qcohom, name)
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
            else:  # the block labels
                assert name.isupper() and isinstance(value, str), name


@pytest.mark.parametrize(
    "name",
    [
        "stanley_reisner_ring", "PARAMETER", "substitute",
        "TraceFunctional", "CorrelatorResult", "FrobeniusReport",
        "validate_deformation", "instanton_coefficient", "euler_matrix_default",
    ],
)
def test_removed_names_are_not_exported(name):
    assert name not in qcohom.__all__
    with pytest.raises(AttributeError):
        getattr(qcohom, name)


def test_classical_limit_is_exported():
    from qcohom.rings import classical_limit

    assert qcohom.classical_limit is classical_limit


def test_readme_example_prints_its_comments():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in example.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = "".join(line.split("#", 1)[1].strip() + "\n" for line in prints)
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r})\n" + example
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


class TestValueSemantics:
    def test_fields_come_from_annotations_only(self):
        assert VariableTable._fields == ("entries",)
        assert Polynomial._fields == ("table", "packed")

    def test_assigning_or_deleting_a_field_raises(self):
        table = VariableTable.make(SPECS)
        p = parse_poly("x + q", table)
        job = job_from_dict({"variety": {"type": "product_projective", "dims": [1]}})
        for record, name in ((table, "entries"), (p, "packed"), (job, "ring")):
            with pytest.raises(AttributeError, match=name):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(record, name)

    def test_separate_tables_are_equal_and_hash_alike(self):
        a, b = VariableTable.make(SPECS), VariableTable.make(SPECS)
        assert a is not b and a.entries is not b.entries
        assert a == b and hash(a) == hash(b)
        assert a != VariableTable.make(SPECS[:2])
        # the mixed-table check compares tables by value
        product = parse_poly("x + y", a) * parse_poly("x - q", b)
        assert product == parse_poly("x^2 - x*q + x*y - y*q", a)

    def test_equal_polynomials_are_equal_and_hash_alike(self):
        table = VariableTable.make(SPECS)
        p = parse_poly("(x + y)^2 - q", table)
        r = parse_poly("x^2 + 2*x*y + y^2 - q", VariableTable.make(SPECS))
        assert p is not r and p == r and hash(p) == hash(r)
        assert len({p, r}) == 1
        assert p != parse_poly("x^2 - q", table)
        assert p != "x^2"

    def test_repr_lists_the_fields(self):
        assert repr(Variable("x", 1, GENERATOR)) == (
            "Variable(name='x', degree=1, block='generator')"
        )

    def test_constructor_binds_fields_like_a_signature(self):
        assert Variable("x", 1, GENERATOR) == Variable(name="x", block=GENERATOR, degree=1)
        for args, kwargs in (
            (("x", 1), {}),
            (("x", 1, GENERATOR, 0), {}),
            (("x", 1, GENERATOR), {"name": "y"}),
            (("x", 1, GENERATOR), {"weight": 2}),
        ):
            with pytest.raises(TypeError, match="takes the fields name, degree, block"):
                Variable(*args, **kwargs)


class TestValidation:
    @pytest.mark.parametrize(
        "specs, message",
        [
            ([("x", 1, GENERATOR), ("x", 1, GENERATOR)], "duplicate variable names"),
            ([("q", 2, INSTANTON), ("x", 1, GENERATOR)], "blocks must appear in order"),
            ([("x", 1, GENERATOR), ("q", 0, INSTANTON)], "must have degree >= 1"),
        ],
    )
    def test_table_constructor_and_replace_validate(self, specs, message):
        with pytest.raises(ValueError, match=message):
            VariableTable.make(specs)
        good = VariableTable.make(SPECS)
        entries = tuple(Variable(*spec) for spec in specs)
        with pytest.raises(ValueError, match=message):
            good.replace(entries=entries)

    def test_presentation_constructor_and_replace_validate(self):
        table = VariableTable.make(SPECS)
        inhomogeneous = (parse_poly("x^2 - y", table),)
        with pytest.raises(ValueError, match="not homogeneous"):
            RingPresentation(table, inhomogeneous, "bad")
        good = RingPresentation(table, (parse_poly("x^2 - q", table),), "good")
        with pytest.raises(ValueError, match="not homogeneous"):
            good.replace(relations=inhomogeneous)
        renamed = good.replace(description="renamed")
        assert (renamed.table, renamed.relations) == (good.table, good.relations)
        assert renamed.description == "renamed" and good.description == "good"

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            VariableTable.make(SPECS).replace(order="lex")

    def test_replace_does_not_carry_cached_values(self):
        table = VariableTable.make(SPECS)
        assert table.names == ("x", "y", "q")
        copy = table.replace()
        assert copy == table and copy is not table
        assert "names" not in vars(copy)

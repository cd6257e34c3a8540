"""The value-record base of the data classes, and what start-up imports."""

import subprocess
import sys
from pathlib import Path

import pytest

from qcohom.expr import parse_poly
from qcohom.frobenius import CorrelatorResult
from qcohom.jobs import job_from_dict
from qcohom.poly import GENERATOR, INSTANTON, PARAMETER, Polynomial, Variable, VariableTable
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
            ([("x", 1, GENERATOR), ("a", 1, PARAMETER)], "must have degree 0"),
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

    def test_correlator_result_validates(self):
        table = VariableTable.make(SPECS)
        result = CorrelatorResult(parse_poly("2*q", table))
        with pytest.raises(ValueError, match="generator variables"):
            CorrelatorResult(parse_poly("x*q", table))
        with pytest.raises(ValueError, match="generator variables"):
            result.replace(value=parse_poly("y", table))

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            VariableTable.make(SPECS).replace(order="lex")

    def test_replace_does_not_carry_cached_values(self):
        table = VariableTable.make(SPECS)
        assert table.names == ("x", "y", "q")
        copy = table.replace()
        assert copy == table and copy is not table
        assert "names" not in vars(copy)

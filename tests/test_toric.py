"""Toric data, deformation matrices, regularity, and Chern comparisons."""

import math
import random
import time
from fractions import Fraction

import pytest

from qcohom import groebner, toric as toric_module
from qcohom.expr import parse_poly, render
from qcohom.frobenius import frobenius_check, gram_matrix
from qcohom.groebner import GroebnerBasis, buchberger
from qcohom.poly import GENERATOR, Polynomial, VariableTable
from qcohom.rings import DegeneratePresentationError, RingPresentation, quotient_algebra
from qcohom.toric import (
    DeformationMatrix,
    ToricData,
    check_bundle_regularity,
    check_omalous,
    chern_of_twisted_sum,
    deformation_ring,
    p1p1_deformation,
    product_projective_toric,
    qsc_presentation_p1p1,
)

from oracle_tools import (
    bundle_regularity_by_radical,
    chern_by_truncation,
    determinant_by_subsets,
    exponent_terms,
    irrelevant_generators,
    minors_by_subset,
    packed_with_types,
    projective_relations,
    qsc_relations,
    qsc_resultant,
    random_deformation,
    sigma_forms_by_subsets,
)
from test_cli import count_calls
from test_frobenius import top_cell_frobenius, tripled_tails

P1XP1 = product_projective_toric([1, 1])

def rendered_rows(matrix):
    return [[render(e) for e in row] for row in matrix.entries]


def rendered_minors(matrix):
    return [render(g) for g in minors_by_subset(matrix)]


class TestToricData:
    def test_projective_plane(self):
        toric = product_projective_toric([2])
        assert toric.dims == (2,)
        assert toric.coordinates == ("x0", "x1", "x2")
        assert toric.picard_rank == 1
        assert toric.factors == (0, 0, 0)
        assert irrelevant_generators(toric) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_p1p2(self):
        toric = product_projective_toric([1, 2])
        assert toric.coordinates == ("x0", "x1", "x2", "x3", "x4")
        assert toric.factors == (0, 0, 1, 1, 1)
        assert toric.factor_coordinates == ((0, 1), (2, 3, 4))
        assert toric.coordinate_table.names == toric.coordinates
        assert len(irrelevant_generators(toric)) == 6
        assert irrelevant_generators(toric)[1] == (1, 0, 0, 1, 0)

    def test_p1p1(self):
        toric = product_projective_toric([1, 1])
        assert toric.coordinates == ("x0", "x1", "x2", "x3")
        assert toric.picard_rank == 2
        assert toric.factors == (0, 0, 1, 1)
        assert irrelevant_generators(toric) == (
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        )

    def test_bad_dims_rejected(self):
        for dims in ([], [0], [2.0], [1, True]):
            with pytest.raises(ValueError):
                product_projective_toric(dims)

    @pytest.mark.parametrize(
        "dims", [(), (0,), (-1, 2), (True,), (1, 2.0), [1, 1]], ids=repr
    )
    def test_invalid_dims_refused_when_built(self, dims):
        # each of these once built a record, some reported a regular Euler
        # matrix, and raised only later in chern_of_twisted_sum
        with pytest.raises(ValueError, match="dims must be a nonempty tuple"):
            ToricData(dims)

    def test_equal_dims_give_equal_records(self):
        assert product_projective_toric([1, 1]) == product_projective_toric((1, 1))
        assert p1p1_deformation(P1XP1, [1, 2, 3], [4, 5, 6]).toric is P1XP1
        assert product_projective_toric([1, 2]) != product_projective_toric([2, 1])


class TestDeformationMatrices:
    def test_euler_default_is_block_diagonal(self):
        matrix = product_projective_toric([1, 1]).euler_matrix
        assert rendered_rows(matrix) == [
            ["x0", "0"],
            ["x1", "0"],
            ["0", "x2"],
            ["0", "x3"],
        ]

    def test_p1p1_deformation_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            p1p1_deformation(P1XP1, [0.1, 0, 0], [0, 0, 0])

    def test_p1p1_deformation_rows(self):
        matrix = p1p1_deformation(P1XP1, [1, 2, 3], [4, 5, 6])
        assert rendered_rows(matrix) == [
            ["x0", "x0 + 2*x1"],
            ["x1", "3*x0"],
            ["4*x2 + 5*x3", "x2"],
            ["6*x2", "x3"],
        ]

    def test_zero_deformation_is_euler_default(self):
        toric = product_projective_toric([1, 1])
        assert p1p1_deformation(P1XP1, [0, 0, 0], [0, 0, 0]).entries == (
            toric.euler_matrix.entries
        )

    @pytest.mark.parametrize("dims", [[1], [2, 1], [1, 1, 1]])
    def test_p1p1_deformation_needs_p1xp1(self, dims):
        with pytest.raises(ValueError, match=r"toric data of P\^1 x P\^1"):
            p1p1_deformation(product_projective_toric(dims), [1, 2, 3], [4, 5, 6])

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError):
            p1p1_deformation(P1XP1, [1, 2], [0, 0, 0])

    def test_validation_accepts_homogeneous_entries(self):
        # every valid shape: deformed linear forms, zero entries, the Euler
        # matrices, and replace() with entries that keep the matrix valid
        matrices = [p1p1_deformation(P1XP1, [1, 2, 3], [4, 5, 6]), hand_built_p1p1_matrix()]
        for dims in ([1], [2], [1, 2], [2, 2], [1, 1, 1]):
            matrices.append(product_projective_toric(dims).euler_matrix)
        for matrix in matrices:
            assert matrix.replace(entries=matrix.entries) == matrix
        toric = product_projective_toric([1, 2])
        table = toric.coordinate_table
        rows = [
            ("-x0 + 1/2*x1", "0"),
            ("x1", "0"),
            ("0", "x2 + 2*x3 - x4"),
            ("0", "x3"),
            ("0", "0"),
        ]
        entries = tuple(tuple(parse_poly(e, table) for e in row) for row in rows)
        assert DeformationMatrix(toric, entries).entries == entries
        assert toric.euler_matrix.replace(entries=entries).entries == entries

    def test_validation_flags_wrong_class(self):
        toric = product_projective_toric([1, 1])
        table = toric.coordinate_table
        rows = list(toric.euler_matrix.entries)
        rows[0] = (parse_poly("x2", table), rows[0][1])
        assert_rejected(
            toric, rows, "row 0 column 0: entry is not homogeneous of the row coordinate class"
        )
        for text in ("1", "x0*x1", "x0 + 1"):  # degree 0, degree 2, mixed degrees
            rows[0] = (parse_poly(text, table), rows[0][1])
            assert_rejected(
                toric, rows, "row 0 column 0: entry is not homogeneous of the row coordinate class"
            )

    def test_validation_flags_mixed_classes(self):
        toric = product_projective_toric([1, 1])
        table = toric.coordinate_table
        rows = list(toric.euler_matrix.entries)
        rows[2] = (rows[2][0], parse_poly("x2 + x0", table))
        assert_rejected(
            toric, rows, "row 2 column 1: entry is not homogeneous of the row coordinate class"
        )

    def test_validation_flags_shape_problems(self):
        toric = product_projective_toric([1, 1])
        good = toric.euler_matrix
        assert_rejected(toric, good.entries[:3], "matrix must have one row per coordinate")
        assert_rejected(
            toric,
            (good.entries[0][:1],) + good.entries[1:],
            "row 0: row must have picard_rank entries",
        )

    def test_validation_flags_foreign_table(self):
        toric = product_projective_toric([1, 1])
        other = product_projective_toric([4]).coordinate_table
        rows = list(toric.euler_matrix.entries)
        rows[1] = (Polynomial.variable(other, "x1"), rows[1][1])
        assert_rejected(toric, rows, "row 1 column 0: entry over a different coordinate table")


def assert_rejected(toric, rows, reason):
    """Building the matrix, and replacing the entries of a valid one, raise
    ``ValueError`` with this reason."""
    message = f"invalid deformation matrix: {reason}"
    with pytest.raises(ValueError) as built:
        DeformationMatrix(toric, tuple(rows))
    with pytest.raises(ValueError) as replaced:
        toric.euler_matrix.replace(entries=tuple(rows))
    assert str(built.value) == str(replaced.value) == message


class TestMinorsIdeal:
    def test_euler_minors_are_irrelevant_generators(self):
        matrix = product_projective_toric([1, 1]).euler_matrix
        assert rendered_minors(matrix) == ["x0*x2", "x0*x3", "x1*x2", "x1*x3"]

    def test_deformed_minors_exact(self):
        # rows (x0, x0), (x1, 0), (x2, x2), (0, x3): the (x0, x2) pair is
        # proportional, so its minor vanishes and is dropped
        matrix = p1p1_deformation(P1XP1, [1, 0, 0], [1, 0, 0])
        assert rendered_minors(matrix) == [
            "-x0*x1",
            "x0*x3",
            "x1*x2",
            "x1*x3",
            "x2*x3",
        ]

    def test_generic_deformation_has_all_minors(self):
        assert len(rendered_minors(p1p1_deformation(P1XP1, [1, 2, 3], [4, 5, 6]))) == 6

    def test_duplicate_minors_kept(self):
        toric = product_projective_toric([1, 1])
        rows = list(toric.euler_matrix.entries)
        rows[1] = rows[0]
        matrix = DeformationMatrix(toric, tuple(rows))
        assert rendered_minors(matrix) == ["x0*x2", "x0*x3", "x0*x2", "x0*x3"]

    @pytest.mark.parametrize(
        "dims",
        [[1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2], [1] * 8, [1, 1, 63], [31, 1, 1, 1]],
        ids=str,
    )
    def test_euler_minors_match_the_subset_oracle(self, dims):
        # the closed form: a row subset picking one coordinate of each factor
        # is a diagonal block with minor +x_pick, and every other minor is zero
        toric = product_projective_toric(dims)
        matrix = toric.euler_matrix
        table = toric.coordinate_table
        generators = tuple(
            Polynomial(table, ((table.pack(e), 1),)) for e in irrelevant_generators(toric)
        )
        assert minors_by_subset(matrix) == generators  # in order and sign
        assert len(generators) == math.prod(n + 1 for n in dims)
        assert check_bundle_regularity(matrix)


class TestBundleRegularity:
    def test_euler_matrices_are_regular(self):
        for dims in ([1], [2], [1, 1], [1, 2], [2, 2]):
            matrix = product_projective_toric(dims).euler_matrix
            assert check_bundle_regularity(matrix)

    def test_generic_deformations_are_regular(self):
        rng = random.Random(83)
        checked = 0
        while checked < 10:
            eps = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            if qsc_resultant(eps, gam) == 0:
                continue
            assert check_bundle_regularity(p1p1_deformation(P1XP1, eps, gam))
            checked += 1

    def test_degenerate_row_fails(self):
        toric = product_projective_toric([1, 1])
        rows = list(toric.euler_matrix.entries)
        rows[1] = rows[0]
        assert not check_bundle_regularity(DeformationMatrix(toric, tuple(rows)))

    def test_packs_and_unpacks_no_exponent_vector(self, monkeypatch):
        # an Euler matrix and its generators are built and checked on packed
        # monomials alone, without a walk over all N coordinate fields
        calls = []

        def counted(name):
            original = getattr(VariableTable, name)

            def counting(self, monomial):
                calls.append(name)
                return original(self, monomial)

            return counting

        for name in ("pack", "unpack"):
            monkeypatch.setattr(VariableTable, name, counted(name))
        for dims in ([1, 2], [3], [1, 1, 1]):
            assert check_bundle_regularity(product_projective_toric(dims).euler_matrix)
        assert calls == []

    def test_invalid_matrix_rejected(self):
        toric = product_projective_toric([1, 1])
        table = toric.coordinate_table
        rows = list(toric.euler_matrix.entries)
        rows[0] = (parse_poly("x2", table), rows[0][1])
        with pytest.raises(ValueError, match="invalid deformation matrix"):
            check_bundle_regularity(DeformationMatrix(toric, tuple(rows)))

    @pytest.mark.parametrize("n", [11, 15])
    def test_dense_single_sigma_blocks(self, n):
        # On P^n the one block reads sigma_0 alone: sigma_0*A, with
        # det = det(A)*sigma_0^(n+1).  A = L*U, seeded unit triangular L and
        # U, is dense with det 1; putting the sum of its first two rows last
        # makes it singular.  Fraction-free elimination keeps every entry a
        # single term.
        rng = random.Random(f"single-sigma/{n}")
        toric = product_projective_toric([n])
        table = toric.coordinate_table
        size = n + 1

        def triangular(below):
            return [
                [int(i == j) if i == j or (j < i) != below else rng.randint(-2, 2)
                 for j in range(size)]
                for i in range(size)
            ]

        lower, upper = triangular(True), triangular(False)
        a = [[sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)]
             for i in range(size)]
        singular = a[:-1] + [[x + y for x, y in zip(a[0], a[1])]]
        for rows, regular in ((a, True), (singular, False)):
            entries = tuple(
                (Polynomial.from_packed(
                    table, ((1 << table.field_width * j, c) for j, c in enumerate(row))
                ),)
                for row in rows
            )
            start = time.perf_counter()
            assert check_bundle_regularity(DeformationMatrix(toric, entries)) is regular
            assert time.perf_counter() - start < 2


def dense_deformation(dims, seed):
    """A seeded deformation of ``dims`` with every entry, in every column, a
    linear form in all the coordinates of its row's factor, coefficients 1 to
    3: each block M_a(sigma) reads every sigma_k in every entry."""
    rng = random.Random(seed)
    toric = product_projective_toric(dims)
    table = toric.coordinate_table

    def form(coords):
        return parse_poly(" + ".join(f"{rng.randint(1, 3)}*x{j}" for j in coords), table)

    rows = tuple(tuple(form(toric.factor_coordinates[f]) for _ in dims) for f in toric.factors)
    return DeformationMatrix(toric, rows)


class TestDenseSigmaBlocks:
    def test_dense_two_column_deformations_take_polynomial_time(self):
        # a 16 x 16 block dense in sigma_0 and sigma_1; the singular twin
        # repeats row 0 as row 1, so its first sigma-form is 0
        matrix = dense_deformation([15, 1], "dense/15")
        rows = list(matrix.entries)
        rows[1] = rows[0]
        twin = DeformationMatrix(matrix.toric, tuple(rows))
        for deformation, regular in ((matrix, True), (twin, False)):
            start = time.perf_counter()
            assert check_bundle_regularity(deformation) is regular
            assert time.perf_counter() - start < 2

    def test_dense_two_column_forms_match_the_subset_oracle(self):
        sigma = VariableTable.make([("s0", 1, GENERATOR), ("s1", 1, GENERATOR)])
        for seed in range(2):
            matrix = dense_deformation([9, 1], f"dense/9/{seed}")
            assert packed_with_types(matrix.sigma_forms) == packed_with_types(
                sigma_forms_by_subsets(matrix, sigma)
            )


def single_sigma_matrix(dims, block, column):
    """The matrix on ``dims`` whose first factor's block is ``block`` in
    ``column`` (sigma_column times it) and whose other factors are Euler."""
    toric = product_projective_toric(dims)
    table = toric.coordinate_table
    euler = toric.euler_matrix.entries
    width = table.field_width
    rows = list(euler)
    for i, row in enumerate(block):
        form = Polynomial.from_packed(table, ((1 << width * j, c) for j, c in enumerate(row) if c))
        rows[i] = tuple(form if k == column else Polynomial.zero(table) for k in range(len(dims)))
    return DeformationMatrix(toric, tuple(rows))


class TestRingBuilder:
    LADDER = ((1, 1), (2, 2), (1, 1, 1), (2, 2, 1), (2, 2, 2))
    VALUES = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))

    @pytest.mark.parametrize("dims", LADDER + ((1,), (2,), (3,), (1, 2)), ids=str)
    def test_projective_relations_match_the_hand_written_ones(self, dims):
        quantum = product_projective_toric(dims).quantum_ring
        assert packed_with_types(quantum.relations) == packed_with_types(
            projective_relations(quantum.table, dims)
        )
        classical = product_projective_toric(dims).classical_ring
        assert packed_with_types(classical.relations) == packed_with_types(
            projective_relations(classical.table, dims)
        )

    def test_qsc_relations_match_the_hand_written_ones(self):
        rng = random.Random("builder/qsc")
        for _ in range(250):
            eps, gam = ([rng.choice(self.VALUES) for _ in range(3)] for _ in range(2))
            pres = qsc_presentation_p1p1(eps, gam)
            assert packed_with_types(pres.relations) == packed_with_types(
                qsc_relations(pres.table, eps, gam)
            ), (eps, gam)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_single_sigma_forms_match_the_subset_determinant(self, size):
        # dense blocks, sparse ones whose rows pivot out of order, and row
        # permutations of dense ones; the block is read once in column 0 of
        # P^n and once in column 1 of P^n x P^1
        rng = random.Random(f"builder/sign/{size}")
        sigma = VariableTable.make([("s0", 1, GENERATOR), ("s1", 1, GENERATOR)])
        seen = set()
        for draw in range(40):
            density = (1, 0.6, 1)[draw % 3]
            block = [
                [rng.choice(self.VALUES[1:]) if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)
            ]
            if draw % 3 == 2:
                rng.shuffle(block)
            for dims, column in (((size - 1,), 0), ((size - 1, 1), 1)):
                form = single_sigma_matrix(dims, block, column).sigma_forms[0]
                s = 1 << sigma.field_width * column
                rows = [
                    {j: Polynomial.from_packed(sigma, ((s, c),)) for j, c in enumerate(row) if c}
                    for row in block
                ]
                assert packed_with_types([form]) == packed_with_types(
                    [determinant_by_subsets(sigma, rows)]
                )
                seen.add(form.coefficient(size * s) > 0 if form else None)
        assert seen == {True, False, None}

    def test_odd_permutation_blocks_are_negative(self):
        sigma = VariableTable.make([("s0", 1, GENERATOR)])
        s3 = sigma.pack((3,))
        swap = [[0, 2, 0], [3, 0, 0], [0, 0, 5]]
        cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]  # a 3-cycle, even
        for block, det in ((swap, -30), (cycle, 1)):
            (form,) = single_sigma_matrix((2,), block, 0).sigma_forms
            assert form.packed == ((s3, det),)
        four_cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        (form,) = single_sigma_matrix((3,), four_cycle, 0).sigma_forms
        assert form.packed == ((sigma.pack((4,)), -1),)

    def test_non_euler_single_sigma_ring_of_p2(self):
        # det A = 2*(3 - 0) - 1*(0 + 1) = 5: the relation is 5*s^3 - q
        matrix = single_sigma_matrix((2,), [[2, 1, 0], [0, 1, -1], [1, 0, 3]], 0)
        assert check_bundle_regularity(matrix)
        pres = deformation_ring(matrix, ["s"], "a deformation of P^2")
        assert pres.table.names == ("s", "q")
        assert pres.table.degrees == (1, 3)
        assert [render(r) for r in pres.relations] == ["5*s^3 - q"]
        assert quotient_algebra(pres).graded_dimensions() == (1, 1, 1)

    def test_one_generator_name_per_factor(self):
        matrix = product_projective_toric([1, 1]).euler_matrix
        with pytest.raises(ValueError, match="one generator name per factor"):
            deformation_ring(matrix, ["s"], "too few names")


def hand_built_p1p1_matrix():
    """P^1 x P^1 matrix whose minors ideal J = (2*x0*x2, 3*x0*x2 + 4*x0*x3,
    x2^2) holds x0*x2 and x0*x3, misses x1*x2 but not its radical, and misses
    x1*x3 and its radical.  Its row x1 is zero, so the block of the first
    factor is singular for every sigma."""
    toric = product_projective_toric([1, 1])
    table = toric.coordinate_table
    rows = [
        ("2*x0", "-x0"),
        ("0", "0"),
        ("0", "x2"),
        ("-x2", "2*x3 + 2*x2"),
    ]
    entries = tuple(tuple(parse_poly(e, table) for e in row) for row in rows)
    return DeformationMatrix(toric, entries)


class TestRegularityOracle:
    def test_ladder_euler_matrices(self):
        for dims in ([1, 1], [2, 2], [1, 1, 1], [2, 2, 1], [2, 2, 2]):
            matrix = product_projective_toric(dims).euler_matrix
            assert check_bundle_regularity(matrix) == bundle_regularity_by_radical(
                matrix
            )

    def test_p1p1_draws_generic_and_degenerate(self):
        # the draws of test_generic_deformations_are_regular, with the
        # degenerate ones it skips
        rng = random.Random(83)
        verdicts = {True: [], False: []}
        while len(verdicts[True]) < 10:
            eps = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            gam = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            matrix = p1p1_deformation(P1XP1, eps, gam)
            verdict = check_bundle_regularity(matrix)
            assert verdict == bundle_regularity_by_radical(matrix)
            verdicts[qsc_resultant(eps, gam) != 0].append(verdict)
        assert all(verdicts[True])
        assert verdicts[False] and not any(verdicts[False])

    def test_non_regular_matrices_take_at_most_one_basis(self, monkeypatch):
        hand_built = hand_built_p1p1_matrix()
        assert rendered_minors(hand_built) == [
            "2*x0*x2",
            "3*x0*x2 + 4*x0*x3",
            "x2^2",
        ]
        # rows (x0, x1), (x1, x0), (x3, x2), (x2, x3): the sigma-determinants
        # are s0^2 - s1^2 and its negative, with the common zeros s0 = +-s1
        degenerate = p1p1_deformation(P1XP1, [0, 1, 1], [0, 1, 1])
        for matrix, basis_count in ((hand_built, 0), (degenerate, 1)):
            assert not bundle_regularity_by_radical(matrix)
            bases = count_calls(monkeypatch, groebner, "buchberger")
            radicals = count_calls(monkeypatch, groebner, "radical_member")
            assert not check_bundle_regularity(matrix)
            # the hand-built matrix has a zero sigma-determinant: no basis
            assert (len(bases), len(radicals)) == (basis_count, 0)
            monkeypatch.undo()

    def test_euler_matrix_takes_one_basis(self, monkeypatch):
        matrix = product_projective_toric([2, 2, 2]).euler_matrix
        bases = count_calls(monkeypatch, groebner, "buchberger")
        radicals = count_calls(monkeypatch, groebner, "radical_member")
        assert check_bundle_regularity(matrix)
        # the basis of (s0^3, s1^3, s2^3); a Rabinowitsch basis per irrelevant
        # generator took 27 and 27
        assert (len(bases), len(radicals)) == (1, 0)

    def test_p1p1_draws_match_the_resultant(self):
        # regular exactly when the two qsc relations at q = 0 have no common
        # zero, that is when their Sylvester resultant is nonzero
        rng = random.Random("regularity/p1p1")
        values = (0, 1, -1, 2, -2, Fraction(1, 2), 3)
        verdicts = set()
        for _ in range(2000):
            eps, gam = ([rng.choice(values) for _ in range(3)] for _ in range(2))
            regular = check_bundle_regularity(p1p1_deformation(P1XP1, eps, gam))
            assert regular == (qsc_resultant(eps, gam) != 0), (eps, gam)
            verdicts.add(regular)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "dims", [[1], [2], [1, 1], [2, 1], [1, 1, 1], [2, 2], [3, 1]], ids=str
    )
    def test_seeded_deformations_match_the_radical_oracle(self, dims):
        # sparse and dense entries; a third of the draws keep each row to its
        # own factor's column, so that every block reads one sigma_k
        rng = random.Random(f"regularity/{dims}")
        toric = product_projective_toric(dims)
        table = toric.coordinate_table
        values = (0, 1, -1, 2, -2, Fraction(1, 2), 3)
        verdicts = set()
        for _ in range(12):
            density = rng.choice((0.3, 0.5, 0.8))
            single = rng.random() < 1 / 3
            rows = tuple(
                tuple(
                    Polynomial.from_packed(table, (
                        (1 << table.field_width * j, rng.choice(values))
                        for j in toric.factor_coordinates[f]
                        if rng.random() < density and not (single and k != f)
                    ))
                    for k in range(len(dims))
                )
                for f in toric.factors
            )
            matrix = DeformationMatrix(toric, rows)
            regular = check_bundle_regularity(matrix)
            assert regular == bundle_regularity_by_radical(matrix)
            verdicts.add(regular)
        assert verdicts == {True, False}


LAW_DIMS = ([1], [2], [1, 1], [2, 1], [1, 2], [1, 1, 1], [2, 2], [3, 1])


def box_dimensions(dims):
    """The coefficients of the product of 1 + t + ... + t^n over dims."""
    coefficients = [1]
    for n in dims:
        coefficients = [
            sum(coefficients[max(0, d - n) : d + 1]) for d in range(len(coefficients) + n)
        ]
    return tuple(coefficients)


def law_draws(rng, dims, count):
    """count seeded draws of :func:`random_deformation` on the product, each
    at a density drawn from 0.3 to 1, with the quotient algebra of its ring in
    generators s0, s1, ..., or None when the ring is degenerate."""
    names = [f"s{k}" for k in range(len(dims))]
    for _ in range(count):
        matrix = random_deformation(rng, dims, rng.choice((0.3, 0.5, 0.8, 1)))
        try:
            qa = quotient_algebra(deformation_ring(matrix, names, "a seeded deformation"))
        except DegeneratePresentationError:
            qa = None
        yield matrix, qa


class TestDeformationRingLaws:
    """Laws that the ring of every deformation matrix obeys, over seeded
    draws of random linear entries, singular draws included."""

    @pytest.mark.parametrize("dims", LAW_DIMS, ids=str)
    def test_every_draw_obeys_the_laws(self, dims):
        # bundle regularity, which reads the sigma-forms through one basis,
        # is the finiteness of the ring built from the same forms; a regular
        # ring is free of rank prod(n_i + 1) with the graded dimensions of
        # the classical ring, its multiplication matrices commute, and its
        # pairing is nondegenerate at q = 0
        rank, dimensions, verdicts = math.prod(n + 1 for n in dims), box_dimensions(dims), set()
        for matrix, qa in law_draws(random.Random(f"laws/{dims}"), dims, 60):
            regular = check_bundle_regularity(matrix)
            assert regular == (qa is not None)
            verdicts.add(regular)
            if regular:
                assert len(qa.module_basis) == rank
                assert qa.graded_dimensions() == dimensions
                fa = top_cell_frobenius(qa)
                assert frobenius_check(fa) == ()
                assert gram_matrix(fa).determinant.coefficient(0)
        assert verdicts == {True, False}

    def test_tampered_tail_fails_exactly_off_a_groebner_basis(self):
        # tripling a tail coefficient keeps the staircase; the multiplication
        # matrices then commute exactly when the tampered elements are still
        # a Groebner basis, which their own basis tells: it has other leading
        # monomials when they are not.  Pairwise coprime leading monomials,
        # as on s0^3 - ..., s1^3 - ..., always are one.
        rng, verdicts = random.Random("laws/tamper"), set()
        for dims in (d for d in LAW_DIMS if len(d) > 1):
            for _, qa in law_draws(rng, dims, 20):
                if qa is None:
                    continue
                tampered = rng.choice(list(tripled_tails(top_cell_frobenius(qa))))
                table, records = qa.presentation.table, tampered.algebra.gb.leading_terms
                still = buchberger(table, [g for _, g in records]).leading_terms
                failed = bool(frobenius_check(tampered))
                assert failed == ([lm for lm, _ in still] != [lm for lm, _ in records])
                verdicts.add(failed)
        assert verdicts == {True, False}


class TestChernClasses:
    def test_tangent_of_projective_spaces(self):
        cases = {
            (2,): ("3*h", "3*h^2"),
            (3,): ("4*h", "6*h^2"),
        }
        for dims, (c1, c2) in cases.items():
            chern = chern_of_twisted_sum(product_projective_toric(list(dims)))
            assert render(chern.c1) == c1
            assert render(chern.c2) == c2

    def test_tangent_of_p1p1(self):
        chern = chern_of_twisted_sum(product_projective_toric([1, 1]))
        assert render(chern.c1) == "2*h1 + 2*h2"
        assert render(chern.c2) == "4*h1*h2"

    def test_explicit_twists(self):
        chern = chern_of_twisted_sum(product_projective_toric([2]), [[2], [1]])
        assert render(chern.c1) == "3*h"
        assert render(chern.c2) == "2*h^2"

    def test_twist_length_validated(self):
        with pytest.raises(ValueError):
            chern_of_twisted_sum(product_projective_toric([1, 1]), [[1]])

    def test_twist_rows_reject_floats(self):
        toric = product_projective_toric([1, 1])
        with pytest.raises(TypeError, match="float"):
            chern_of_twisted_sum(toric, [[1, 0], [0.1, 1]])
        with pytest.raises(TypeError, match="float"):
            check_omalous(toric, [[0.1, 0]])
        # rational strings stay exact
        assert render(chern_of_twisted_sum(toric, [["1/3", "2"]]).c1) == "1/3*h1 + 2*h2"


def chern_terms(chern):
    return tuple({m: Fraction(c) for m, c in exponent_terms(p)} for p in (chern.c1, chern.c2))


def tangent_rows(dims):
    rank = len(dims)
    return [[int(j == i) for j in range(rank)] for i, n in enumerate(dims) for _ in range(n + 1)]


ORACLE_DIMS = ([1], [2], [3], [1, 1], [1, 2], [2, 2], [1, 1, 1])
TWIST_VALUES = (0, 0, 1, 2, -1, Fraction(1, 2), Fraction(-2, 3), 3)


class TestChernOracle:
    def test_tangent_bundle(self):
        for dims in ORACLE_DIMS + ([2, 2, 2],):
            toric = product_projective_toric(dims)
            expected = chern_by_truncation(dims, tangent_rows(dims))
            assert chern_terms(chern_of_twisted_sum(toric)) == expected
            assert chern_terms(chern_of_twisted_sum(toric, tangent_rows(dims))) == expected

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_seeded_twist_lists(self, dims):
        rng = random.Random(f"chern/{dims}")
        toric = product_projective_toric(dims)
        tangent = chern_by_truncation(dims, tangent_rows(dims))
        verdicts = set()
        for _ in range(20):
            if rng.random() < 0.3:  # the tangent classes reordered: anomaly-free
                rows = tangent_rows(dims)
                rng.shuffle(rows)
            else:
                count = rng.randint(1, len(toric.coordinates) + 1)
                rows = [[rng.choice(TWIST_VALUES) for _ in dims] for _ in range(count)]
            expected = chern_by_truncation(dims, rows)
            assert chern_terms(chern_of_twisted_sum(toric, rows)) == expected
            bundle, tangent_chern = check_omalous(toric, rows)
            assert chern_terms(bundle) == expected
            assert chern_terms(tangent_chern) == tangent
            ok = bundle == tangent_chern
            assert ok == (expected == tangent)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_long_twist_list_takes_no_normal_form(self, monkeypatch):
        # c1 and c2 are summed in closed form over the 200 rows (1, 2, 3), and
        # c2 is reduced modulo the monomial ideal (h_k^(n_k + 1)) by dropping
        # terms: no ring, no Groebner basis and no normal form
        dims, rows = [1, 1, 1], [["1", "2", "3"]] * 200
        toric = product_projective_toric(dims)

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(GroebnerBasis, "reduce", refused("reduce"))
        monkeypatch.setattr(GroebnerBasis, "parts", refused("parts"))
        monkeypatch.setattr(RingPresentation, "__init__", refused("RingPresentation"))
        for module in (groebner, toric_module):
            monkeypatch.setattr(module, "buchberger", refused("buchberger"))
        for twists in (rows, None):
            chern = chern_of_twisted_sum(toric, twists)
            assert chern_terms(chern) == chern_by_truncation(dims, twists or tangent_rows(dims))


class TestOmalous:
    def test_tangent_deformation_is_omalous(self):
        # a deformation of the tangent bundle has no twists of its own
        toric = product_projective_toric([1, 1])
        bundle, tangent = check_omalous(toric, None)
        assert bundle == tangent == chern_of_twisted_sum(toric)
        assert render(bundle.c1) == "2*h1 + 2*h2"

    def test_non_tangent_twists_can_still_cancel(self):
        toric = product_projective_toric([1, 1])
        bundle, tangent = check_omalous(toric, [[2, 0], [0, 1], [0, 1], [0, 0]])
        assert bundle == tangent

    def test_altered_twists_fail(self):
        toric = product_projective_toric([1, 1])
        bundle, tangent = check_omalous(toric, [[1, 0], [1, 0], [0, 1], [1, 1]])
        assert bundle != tangent
        assert bundle.c1 != tangent.c1
        assert bundle.c2 != tangent.c2
        assert render(bundle.c1) == "3*h1 + 2*h2"
        assert render(tangent.c1) == "2*h1 + 2*h2"
        assert render(bundle.c2) == "5*h1*h2"
        assert render(tangent.c2) == "4*h1*h2"

    def test_invalid_matrix_rejected(self):
        # an invalid deformation never reaches the anomaly check: its matrix
        # is refused when built
        toric = product_projective_toric([1, 1])
        table = toric.coordinate_table
        rows = list(toric.euler_matrix.entries)
        rows[0] = (parse_poly("x3", table), rows[0][1])
        with pytest.raises(ValueError, match="invalid deformation matrix"):
            DeformationMatrix(toric, tuple(rows))

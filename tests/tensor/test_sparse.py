"""Tests for the SparseMatrix workhorse."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.coords import Range
from repro.tensor.sparse import SparseMatrix


class TestConstruction:
    def test_from_dense_drops_zeros(self, tiny_dense_matrix):
        assert tiny_dense_matrix.nnz == 5

    def test_from_coo(self):
        m = SparseMatrix.from_coo([0, 1, 2], [2, 0, 1], [1.0, 2.0, 3.0], (3, 3))
        assert m.nnz == 3
        assert m.to_dense()[0, 2] == 1.0

    def test_from_coo_defaults_to_ones(self):
        m = SparseMatrix.from_coo([0, 1], [1, 0], None, (2, 2))
        assert np.all(m.values() == 1.0)

    def test_from_coo_duplicates_are_summed(self):
        m = SparseMatrix.from_coo([0, 0], [0, 0], [1.0, 2.0], (1, 1))
        assert m.nnz == 1
        assert m.to_dense()[0, 0] == 3.0

    def test_from_coo_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo([0], [0, 1], None, (2, 2))

    def test_identity(self):
        eye = SparseMatrix.identity(4)
        assert eye.nnz == 4
        assert np.array_equal(eye.to_dense(), np.eye(4))

    def test_explicit_zeros_eliminated(self):
        m = SparseMatrix.from_coo([0, 1], [0, 1], [0.0, 2.0], (2, 2))
        assert m.nnz == 1

    def test_equality(self, tiny_dense_matrix):
        clone = SparseMatrix(tiny_dense_matrix.csr, name="other-name")
        assert tiny_dense_matrix == clone

    def test_inequality(self, tiny_dense_matrix):
        assert tiny_dense_matrix != SparseMatrix.identity(4)


class TestProperties:
    def test_shape_and_size(self, tiny_dense_matrix):
        assert tiny_dense_matrix.num_rows == 4
        assert tiny_dense_matrix.num_cols == 4
        assert tiny_dense_matrix.size == 16

    def test_density_and_sparsity_sum_to_one(self, tiny_dense_matrix):
        assert tiny_dense_matrix.density + tiny_dense_matrix.sparsity == pytest.approx(1.0)

    def test_sparsity_value(self, tiny_dense_matrix):
        assert tiny_dense_matrix.sparsity == pytest.approx(11 / 16)

    def test_name(self, tiny_dense_matrix):
        assert tiny_dense_matrix.name == "tiny"


class TestStructureQueries:
    def test_row_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.row_occupancies()) == [2, 0, 2, 1]

    def test_col_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.col_occupancies()) == [2, 1, 1, 1]

    def test_occupancy_sums_match_nnz(self, powerlaw):
        assert powerlaw.row_occupancies().sum() == powerlaw.nnz
        assert powerlaw.col_occupancies().sum() == powerlaw.nnz

    def test_coordinates_roundtrip(self, tiny_dense_matrix):
        rows, cols = tiny_dense_matrix.coordinates()
        rebuilt = SparseMatrix.from_coo(rows, cols, tiny_dense_matrix.values(), (4, 4))
        assert rebuilt == tiny_dense_matrix

    def test_iter_nonzeros_in_row_major_order(self, tiny_dense_matrix):
        triples = list(tiny_dense_matrix.iter_nonzeros())
        assert triples[0] == (0, 0, 1.0)
        rows = [t[0] for t in triples]
        assert rows == sorted(rows)

    def test_row_slice_nnz(self, tiny_dense_matrix):
        assert tiny_dense_matrix.row_slice_nnz(Range(0, 2)) == 2
        assert tiny_dense_matrix.row_slice_nnz(Range(2, 4)) == 3

    def test_row_slice_nnz_clamps(self, tiny_dense_matrix):
        assert tiny_dense_matrix.row_slice_nnz(Range(0, 100)) == 5

    def test_submatrix(self, tiny_dense_matrix):
        block = tiny_dense_matrix.submatrix(Range(0, 2), Range(0, 4))
        assert block.num_rows == 2
        assert block.nnz == 2

    def test_transpose_preserves_nnz(self, powerlaw):
        assert powerlaw.transpose().nnz == powerlaw.nnz

    def test_transpose_is_involution(self, tiny_dense_matrix):
        assert tiny_dense_matrix.transpose().transpose() == tiny_dense_matrix


class TestTileOccupancies:
    def test_grid_size(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(2, 2)
        assert occ.shape == (4,)

    def test_counts(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(2, 2)
        assert list(occ) == [1, 1, 2, 1]

    def test_sum_equals_nnz(self, banded):
        for tile in (7, 16, 33):
            assert banded.tile_occupancies(tile, tile).sum() == banded.nnz

    def test_exclude_empty(self, tiny_dense_matrix):
        occ = tiny_dense_matrix.tile_occupancies(1, 1, include_empty=False)
        assert len(occ) == 5
        assert all(occ == 1)

    def test_row_block_occupancies_sum(self, powerlaw):
        for block in (1, 7, 64, 1000):
            assert powerlaw.row_block_occupancies(block).sum() == powerlaw.nnz

    def test_row_block_matches_row_occupancies(self, tiny_dense_matrix):
        assert list(tiny_dense_matrix.row_block_occupancies(1)) == [2, 0, 2, 1]

    def test_max_tile_occupancy(self, tiny_dense_matrix):
        assert tiny_dense_matrix.max_tile_occupancy(4, 4) == 5
        assert tiny_dense_matrix.max_tile_occupancy(2, 2) == 2

    def test_invalid_tile_shape_raises(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            tiny_dense_matrix.tile_occupancies(0, 4)


class TestAlgebra:
    def test_matmul_matches_numpy(self, tiny_dense_matrix):
        other = SparseMatrix.identity(4)
        product = tiny_dense_matrix.matmul(other)
        assert product == tiny_dense_matrix

    def test_gram_matches_dense(self, tiny_dense_matrix):
        dense = tiny_dense_matrix.to_dense()
        expected = dense @ dense.T
        assert np.allclose(tiny_dense_matrix.gram().to_dense(), expected)

    def test_matmul_dimension_mismatch_raises(self, tiny_dense_matrix):
        with pytest.raises(ValueError):
            tiny_dense_matrix.matmul(SparseMatrix.identity(3))


def _dense_cases():
    """The dtype and shape cases ``from_dense`` must store exactly as SciPy."""
    rng = np.random.default_rng(7)
    sparse_values = np.where(rng.random((8, 9)) < 0.5, 0.0, rng.random((8, 9)))
    return {
        "float64": rng.random((7, 5)),
        "float32": rng.random((7, 5)).astype(np.float32),
        "int": rng.integers(-2, 3, (6, 4)),
        "bool": rng.random((5, 5)) < 0.5,
        "with-zeros": sparse_values,
        "signed-zero": np.array([[-0.0, 1.0], [0.0, -2.0]]),
        "all-zero": np.zeros((3, 3)),
        "0xn": np.zeros((0, 5)),
        "nx0": np.zeros((5, 0)),
        "nx1": rng.random((6, 1)),
        "1-d": rng.random(5),
        "fortran-order": np.asfortranarray(sparse_values),
        "strided-view": sparse_values[:, ::2],
    }


@pytest.mark.parametrize("case", sorted(_dense_cases()))
def test_from_dense_matches_scipy_conversion(case):
    """``from_dense`` stores exactly what the SciPy dense conversion does."""
    array = _dense_cases()[case]
    got = SparseMatrix.from_dense(array).csr
    expected = SparseMatrix(sp.csr_matrix(array)).csr
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    for field in ("indptr", "indices", "data"):
        assert getattr(got, field).dtype == getattr(expected, field).dtype
        assert np.array_equal(getattr(got, field), getattr(expected, field))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=30),
    cols=st.integers(min_value=1, max_value=30),
    tile_rows=st.integers(min_value=1, max_value=8),
    tile_cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_tile_occupancies_partition_nnz(rows, cols, tile_rows, tile_cols, seed):
    """Every nonzero lands in exactly one tile, for any matrix and tile shape."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < 0.3).astype(float)
    matrix = SparseMatrix.from_dense(dense)
    occupancies = matrix.tile_occupancies(tile_rows, tile_cols)
    grid = matrix.shape.tile_grid((tile_rows, tile_cols))
    assert len(occupancies) == grid[0] * grid[1]
    assert occupancies.sum() == matrix.nnz


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    block=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_row_blocks_partition_nnz(rows, block, seed):
    """Row-block occupancies always partition the matrix occupancy."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, 17)) < 0.25).astype(float)
    matrix = SparseMatrix.from_dense(dense)
    occupancies = matrix.row_block_occupancies(block)
    assert occupancies.sum() == matrix.nnz
    assert len(occupancies) == -(-rows // block)

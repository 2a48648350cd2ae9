"""Tests for position-space (uniform occupancy) tiling."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor.sparse import SparseMatrix
from repro.tiling.position import position_space_tiling


def lexsort_reference_bounds(matrix, capacity):
    """Per-tile bounding rectangles from explicitly row-major-sorted nonzeros."""
    rows, cols = matrix.coordinates()
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    bounds = []
    for start in range(0, len(rows), capacity):
        run_rows = rows[start:start + capacity]
        run_cols = cols[start:start + capacity]
        bounds.append((len(run_rows), run_rows.min(), run_rows.max() + 1,
                       run_cols.min(), run_cols.max() + 1))
    return bounds


def tile_bounds(tiling):
    return [(tile.occupancy, tile.row_range.start, tile.row_range.stop,
             tile.col_range.start, tile.col_range.stop) for tile in tiling]


class TestPositionSpaceTiling:
    def test_uniform_occupancy(self, powerlaw):
        capacity = 100
        tiling = position_space_tiling(powerlaw, capacity)
        occupancies = tiling.occupancies()
        assert all(occupancies[:-1] == capacity)
        assert 0 < occupancies[-1] <= capacity

    def test_partition(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 128)
        tiling.validate()

    def test_number_of_tiles(self, powerlaw):
        capacity = 250
        tiling = position_space_tiling(powerlaw, capacity)
        assert tiling.num_tiles == -(-powerlaw.nnz // capacity)

    def test_perfect_buffer_utilization(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 100)
        assert tiling.buffer_utilization(100) > 0.95

    def test_never_overbooks(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 77)
        assert tiling.overbooking_rate(77) == 0.0

    def test_bounding_boxes_cover_nonzeros(self, tiny_dense_matrix):
        tiling = position_space_tiling(tiny_dense_matrix, 2)
        for tile in tiling:
            assert tile.num_rows >= 1 and tile.num_cols >= 1

    def test_operand_matching_tax(self, powerlaw):
        other_nnz = 12_345
        tiling = position_space_tiling(powerlaw, 100, other_operand_nnz=other_nnz)
        assert tiling.tax.runtime_matching_elements == other_nnz * tiling.num_tiles

    def test_no_tax_without_other_operand(self, powerlaw):
        tiling = position_space_tiling(powerlaw, 100)
        assert tiling.tax.total_elements == 0

    def test_invalid_capacity_raises(self, powerlaw):
        with pytest.raises(ValueError):
            position_space_tiling(powerlaw, 0)

    def test_capacity_larger_than_nnz(self, tiny_dense_matrix):
        tiling = position_space_tiling(tiny_dense_matrix, 1000)
        assert tiling.num_tiles == 1
        assert tiling[0].occupancy == tiny_dense_matrix.nnz

    @pytest.mark.parametrize("capacity", [1, 7, 64, 5000])
    def test_shuffled_coo_input_matches_lexsort_reference(self, capacity):
        """Tiles need no re-sort: the matrix keeps its nonzeros row-major."""
        rng = np.random.default_rng(capacity)
        rows = rng.integers(0, 60, 900)
        cols = rng.integers(0, 45, 900)
        order = rng.permutation(900)
        matrix = SparseMatrix.from_coo(rows[order], cols[order], None, (60, 45))
        tiling = position_space_tiling(matrix, capacity)
        assert tile_bounds(tiling) == lexsort_reference_bounds(matrix, capacity)

    def test_unsorted_csr_input_matches_lexsort_reference(self):
        """Column indices given out of order within rows are sorted on entry."""
        indptr = np.array([0, 3, 3, 6])
        indices = np.array([4, 0, 2, 5, 1, 3])
        data = np.arange(1.0, 7.0)
        matrix = SparseMatrix(sp.csr_matrix((data, indices, indptr),
                                            shape=(3, 6)))
        tiling = position_space_tiling(matrix, 2)
        assert tile_bounds(tiling) == lexsort_reference_bounds(matrix, 2)
        assert tile_bounds(tiling)[0] == (2, 0, 1, 0, 3)

"""Unit tests for Matrix Market IO."""

import numpy as np
import pytest

from repro.graph import (
    MatrixMarketError,
    from_edge_list,
    load_mtx,
    save_mtx,
)
from tests.conftest import edge_set


def write(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    return path


class TestLoad:
    def test_pattern_general(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n"
            "1 2\n"
            "2 3\n"
        ))
        g = load_mtx(path)
        assert g.num_vertices == 3
        assert edge_set(g) == {(0, 1), (1, 2)}
        assert g.weights is None

    def test_real_weights(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 2 4.5\n"
        ))
        g = load_mtx(path)
        assert g.weights.tolist() == [4.5]

    def test_symmetric_expansion(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n"
            "2 1\n"
            "3 1\n"
        ))
        g = load_mtx(path)
        assert edge_set(g) == {(0, 1), (1, 0), (0, 2), (2, 0)}

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n"
            "% another\n"
            "2 2 1\n"
            "1 2\n"
        ))
        assert load_mtx(path).num_edges == 1

    def test_name_from_filename(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "1 1 0\n"
        ))
        assert load_mtx(path).name == "g"

    def test_rejects_missing_header(self, tmp_path):
        path = write(tmp_path, "1 1 0\n")
        with pytest.raises(MatrixMarketError, match="header"):
            load_mtx(path)

    def test_rejects_rectangular(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 0\n"
        ))
        with pytest.raises(MatrixMarketError, match="square"):
            load_mtx(path)

    def test_rejects_unknown_field(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 0\n"
        ))
        with pytest.raises(MatrixMarketError, match="field"):
            load_mtx(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = write(tmp_path, (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n"
            "1 2\n"
        ))
        with pytest.raises(MatrixMarketError, match="expected 2 entries"):
            load_mtx(path)


class TestRoundTrip:
    def test_pattern_round_trip(self, tmp_path, star):
        path = tmp_path / "star.mtx"
        save_mtx(star, path)
        again = load_mtx(path)
        assert edge_set(again) == edge_set(star)

    def test_weighted_round_trip(self, tmp_path):
        g = from_edge_list(3, [0, 1, 2], [1, 2, 0], weights=[1.5, 2.5, 3.5])
        path = tmp_path / "w.mtx"
        save_mtx(g, path)
        again = load_mtx(path)
        assert np.allclose(again.weights, g.weights)

    def test_random_round_trip(self, tmp_path, small_random):
        path = tmp_path / "r.mtx"
        save_mtx(small_random, path)
        again = load_mtx(path)
        assert edge_set(again) == edge_set(small_random)
        assert np.allclose(again.weights, small_random.weights)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetwarn.core import ROW_BLOCK, NormalRows, TelemetryPanel
from fleetwarn.grouping import (
    DependenceMatrix,
    ParameterGrouping,
    build_groups,
    dependence_from_rows,
    write_groups_json,
)
from oracles import (
    bfs_components,
    mutual_info_reference,
    pearson_matrix_reference,
    pearson_reference,
    scipy_components,
)
from support import rows_of, split_rows


def read_groups_json(path):
    """Parse a groups.json back into its grouping and measure (the CLI only writes it)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    grouping = ParameterGrouping(
        groups=tuple(tuple(g) for g in payload["groups"]),
        rho=float(payload["rho"]),
    )
    return grouping, payload["measure"]


def panel_from(values, columns):
    values = np.asarray(values, dtype=float)
    return TelemetryPanel("u", np.arange(1, len(values) + 1), tuple(columns), values)


class TestPearson:
    def test_perfect_linear(self):
        x = np.linspace(0, 1, 20)
        dep = dependence_from_rows(rows_of(np.column_stack([x, 2 * x]), ("x", "y")))
        assert dep.values[0, 1] == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.linspace(0, 1, 20)
        dep = dependence_from_rows(rows_of(np.column_stack([x, -x]), ("x", "y")))
        assert dep.values[0, 1] == pytest.approx(-1.0)

    def test_hand_computed(self):
        # r = 4/5 by direct computation
        data = np.column_stack([[1, 2, 3, 4], [1, 3, 2, 4]])
        dep = dependence_from_rows(rows_of(data, ("x", "y")))
        assert dep.values[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        for a in (2.5, -0.7):
            dep = dependence_from_rows(rows_of(np.column_stack([x, a * x + 4.0]), ("x", "y")))
            assert dep.values[0, 1] == pytest.approx(math.copysign(1.0, a))

    def test_pairwise_complete(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        dep = dependence_from_rows(rows_of(np.column_stack([x, y]), ("x", "y")))
        # complete rows are (1,1),(2,2),(4,4): perfectly linear
        assert dep.values[0, 1] == pytest.approx(1.0)

    def test_too_little_overlap_is_missing(self):
        x = np.array([1.0, np.nan, 3.0, np.nan])
        y = np.array([np.nan, 2.0, np.nan, 4.0])
        dep = dependence_from_rows(rows_of(np.column_stack([x, y]), ("x", "y")))
        assert math.isnan(dep.values[0, 1])

    def test_constant_column_is_missing(self):
        # three copies of 0.1 have a nonzero float std around their mean; x constant
        # on the pair's rows after an outlying first value cancels the shifted sums,
        # and the pair's two-pass recomputation finds it constant
        for x, y in (([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([0.1, 0.1, 0.1], [1.0, 2.0, 4.0]),
                     ([1e6, 0.1, 0.1, 0.1], [np.nan, 1.0, 2.0, 4.0])):
            dep = dependence_from_rows(rows_of(np.column_stack([x, y]), ("x", "y")))
            assert math.isnan(dep.values[0, 1])
            assert dep.values[0, 0] == 1.0

    def test_outlying_first_value_keeps_precision(self):
        # the pair's rows sit far from the column's first value, so the
        # shifted sums cancel; the pair must still match the two-pass value
        x = np.array([1e6, np.nan, 1.0, 1.1, 1.3, 0.7])
        y = np.array([np.nan, 5.0, 1.0, 2.0, 5.0, 3.0])
        data = np.column_stack([x, y])
        got = dependence_from_rows(rows_of(data, ("x", "y"))).values[0, 1]
        assert got == pytest.approx(pearson_reference(data)[0, 1], abs=1e-12)

    def test_panel_entry_point(self):
        panel = panel_from([[1, 2], [2, 4], [3, 6]], ("x", "y"))
        dep = dependence_from_rows(NormalRows((panel,), (np.ones(3, dtype=bool),)), "pearson")
        assert dep.values[0, 1] == pytest.approx(1.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            dependence_from_rows(rows_of(np.array([[1.0, 2.0]]), ("x", "y")))


@st.composite
def pearson_inputs(draw):
    """Rows of noisy, constant, offset and outlier columns under assorted NaN masks.

    An outlier column's first value lies far from its others, and the next column misses
    that row, so the pair's shifted sums cancel."""
    n_rows = draw(
        st.one_of(
            st.integers(2, 12),
            st.sampled_from([ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37]),
        )
    )
    n_cols = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(["noise", "constant", "offset", "outlier"]),
                          min_size=n_cols, max_size=n_cols))
    masking = draw(st.sampled_from(["none", "random", "disjoint", "one_overlap"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latent = rng.normal(size=(n_rows, 1))
    data = latent * rng.normal(size=n_cols) + rng.normal(size=(n_rows, n_cols))
    for j, kind in enumerate(kinds):
        if kind == "constant":
            data[:, j] = float(rng.integers(-5, 6))
        elif kind == "offset":
            data[:, j] += 1e6
        elif kind == "outlier":
            data[0, j] = 1e6
            data[0, (j + 1) % n_cols] = np.nan
    if masking != "none":
        data[rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.1, 0.5, 0.9]))] = np.nan
    if masking == "disjoint":
        data[::2, 0] = np.nan
        data[1::2, 1] = np.nan
    elif masking == "one_overlap":
        split = n_rows // 2
        data[split + 1 :, 0] = np.nan
        data[:split, 1] = np.nan
    return data


class TestPearsonOracle:
    @settings(max_examples=150, deadline=None)
    @given(pearson_inputs())
    def test_matches_pairwise_loop(self, data):
        names = tuple(f"p{i}" for i in range(data.shape[1]))
        got = dependence_from_rows(rows_of(data, names)).values
        expect = pearson_reference(data)
        assert np.array_equal(np.isnan(got), np.isnan(expect))
        both = ~np.isnan(expect)
        assert np.max(np.abs(got[both] - expect[both])) <= 1e-12


class TestPearsonBlocks:
    @settings(max_examples=150, deadline=None)
    @given(pearson_inputs(), st.integers(0, 2**32 - 1))
    def test_row_source_equals_the_stacked_matrix(self, data, seed):
        """Spread over panels with masked-out rows between them, the rows give the Pearson
        matrix of their stack bit for bit, cancelled pairs included."""
        panels, masks = split_rows(data, np.random.default_rng(seed))
        got = dependence_from_rows(NormalRows(panels, masks)).values
        expect, _ = pearson_matrix_reference(data)
        assert got.tobytes() == expect.tobytes()

    def test_a_column_first_observed_after_the_first_block(self):
        # its shift is a value of the second block, not zero
        rng = np.random.default_rng(31)
        data = rng.normal(size=(2 * ROW_BLOCK + 37, 3)) + 3.0
        data[: ROW_BLOCK + 5, 1] = np.nan
        panels, masks = split_rows(data, rng)
        expect, cancelled = pearson_matrix_reference(data)
        assert cancelled == 0
        assert dependence_from_rows(NormalRows(panels, masks)).values.tobytes() == expect.tobytes()

    def test_cancelled_pairs_across_blocks(self):
        rng = np.random.default_rng(29)
        data = rng.normal(size=(2 * ROW_BLOCK + 37, 4))
        data[:, 1] += data[:, 0]
        data[0, 0], data[0, 1] = 1e6, np.nan  # pairs of column 0 without row 0 cancel
        expect, cancelled = pearson_matrix_reference(data)
        assert cancelled >= 2
        panels, masks = split_rows(data, rng)
        assert dependence_from_rows(NormalRows(panels, masks)).values.tobytes() == expect.tobytes()


class TestMutualInfoBlocks:
    @settings(max_examples=150, deadline=None)
    @given(pearson_inputs(), st.integers(0, 2**32 - 1))
    def test_row_source_equals_the_stacked_matrix(self, data, seed):
        """Spread over panels with masked-out rows between them, the rows give the mutual
        information matrix of their stack bit for bit."""
        rows = NormalRows(*split_rows(data, np.random.default_rng(seed)))
        got = dependence_from_rows(rows, "mutual_info").values
        assert got.tobytes() == mutual_info_reference(data).tobytes()


class TestMutualInformation:
    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(200, 4))
        dep = dependence_from_rows(rows_of(data, ("a", "b", "c", "d")), "mutual_info")
        off = dep.values[~np.eye(4, dtype=bool)]
        assert (off >= 0).all()
        assert np.allclose(dep.values, dep.values.T, equal_nan=True)

    def test_dependence_beats_independence(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=400)
        y = x + 0.01 * rng.normal(size=400)
        z = rng.normal(size=400)
        dep = dependence_from_rows(rows_of(np.column_stack([x, y, z]), ("x", "y", "z")),
                                   "mutual_info")
        assert dep.values[0, 1] > 5 * dep.values[0, 2]

    def test_diagonal_is_entropy(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=100)
        dep = dependence_from_rows(rows_of(np.column_stack([x, x]), ("x", "y")), "mutual_info")
        # equal-frequency bins on 100 points: 10 bins of 10 -> entropy ln 10
        assert dep.values[0, 0] == pytest.approx(math.log(10))

    @pytest.mark.parametrize("y", [[np.nan] * 4 + [5.0], [np.nan] * 3 + [4.0, 5.0]],
                             ids=["no-complete-row", "one-complete-row"])
    def test_pair_with_fewer_than_two_complete_rows_is_missing(self, y):
        x = [1.0, 2.0, 3.0, 4.0, np.nan]
        dep = dependence_from_rows(rows_of(np.column_stack([x, y]), ("x", "y")), "mutual_info")
        assert math.isnan(dep.values[0, 1]) and math.isnan(dep.values[1, 0])
        # x's own four values fill two bins of two
        assert dep.values[0, 0] == pytest.approx(math.log(2))

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            dependence_from_rows(rows_of(np.zeros((3, 2)), ("a", "b")), "kendall")


class TestBuildGroups:
    def matrix(self, names, strong_pairs):
        n = len(names)
        values = np.zeros((n, n))
        np.fill_diagonal(values, 1.0)
        for i, j in strong_pairs:
            values[i, j] = values[j, i] = 0.95
        return DependenceMatrix(columns=tuple(names), values=values)

    def test_single_edge(self):
        dep = self.matrix(("a", "b", "c"), [(0, 1)])
        grouping = build_groups(dep, rho=0.9)
        assert grouping.groups == (("a", "b"), ("c",))

    def test_complete_graph_is_one_group(self):
        dep = self.matrix(("a", "b", "c"), [(0, 1), (0, 2), (1, 2)])
        assert build_groups(dep, rho=0.9).groups == (("a", "b", "c"),)

    def test_chain_transitivity(self):
        dep = self.matrix(("a", "b", "c"), [(0, 1), (1, 2)])
        assert build_groups(dep, rho=0.9).groups == (("a", "b", "c"),)

    def test_negative_correlation_counts_via_abs(self):
        values = np.array([[1.0, -0.9], [-0.9, 1.0]])
        dep = DependenceMatrix(("a", "b"), values)
        assert build_groups(dep, rho=0.7).groups == (("a", "b"),)

    def test_missing_entries_are_non_edges(self):
        values = np.array([[1.0, np.nan], [np.nan, 1.0]])
        dep = DependenceMatrix(("a", "b"), values)
        assert build_groups(dep, rho=0.1).groups == (("a",), ("b",))

    def test_matches_bfs_oracle_random(self):
        rng = np.random.default_rng(21)
        names = tuple(f"p{i}" for i in range(8))
        for _ in range(50):
            vals = rng.uniform(-1, 1, size=(8, 8))
            vals = (vals + vals.T) / 2
            np.fill_diagonal(vals, 1.0)
            dep = DependenceMatrix(names, vals)
            rho = float(rng.uniform(0.2, 0.9))
            got = build_groups(dep, rho).groups
            edges = [
                (i, j)
                for i in range(8)
                for j in range(i + 1, 8)
                if abs(vals[i, j]) >= rho
            ]
            expect = sorted(
                tuple(sorted(names[i] for i in comp))
                for comp in bfs_components(8, edges)
            )
            assert sorted(got) == expect

    def test_partition_property(self):
        rng = np.random.default_rng(22)
        names = tuple(f"p{i}" for i in range(6))
        vals = rng.uniform(0, 1, size=(6, 6))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 1.0)
        dep = DependenceMatrix(names, vals)
        for rho in (0.1, 0.4, 0.8):
            grouping = build_groups(dep, rho)
            assert tuple(sorted(n for g in grouping.groups for n in g)) == tuple(sorted(names))

    def test_raising_rho_refines(self):
        rng = np.random.default_rng(23)
        names = tuple(f"p{i}" for i in range(7))
        vals = rng.uniform(0, 1, size=(7, 7))
        vals = (vals + vals.T) / 2
        np.fill_diagonal(vals, 1.0)
        dep = DependenceMatrix(names, vals)
        coarse = build_groups(dep, 0.3).groups
        fine = build_groups(dep, 0.6).groups
        for small in fine:
            assert any(set(small) <= set(big) for big in coarse)

    def test_group_order_by_smallest_member(self):
        dep = self.matrix(("d", "a", "c", "b"), [(0, 3)])  # d-b edge
        grouping = build_groups(dep, rho=0.9)
        assert grouping.groups == (("a",), ("b", "d"), ("c",))


@st.composite
def dependence_graphs(draw):
    """Symmetric r with NaN and negative entries, rho equal to some |r|.

    A chain threads a shuffled node order with the strongest entries, so its
    component has the longest possible diameter; isolated nodes have no
    entry at or above rho.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, size=(n, n))
    chain = draw(st.booleans()) and n > 1
    if chain:
        values *= 0.5
        order = rng.permutation(n)
        values[order[:-1], order[1:]] = rng.uniform(0.6, 1.0, n - 1) * rng.choice([-1, 1], n - 1)
    values[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    values = np.triu(values, 1)
    values += values.T  # NaN above the diagonal stays NaN below it
    isolated = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    values[isolated, :] = values[:, isolated] = rng.choice([0.0, np.nan])
    np.fill_diagonal(values, 1.0)
    off = np.abs(values[~np.eye(n, dtype=bool)])
    candidates = off[np.isfinite(off) & (off > 0)]
    if chain and not isolated.any() and draw(st.booleans()):
        links = np.abs(values[order[:-1], order[1:]])
        rho = float(np.nanmin(links)) if np.isfinite(links).any() else 0.5
    elif candidates.size:
        rho = float(candidates[draw(st.integers(0, candidates.size - 1))])
    else:
        rho = 0.5
    return values, rho


class TestBuildGroupsOracle:
    @settings(max_examples=300, deadline=None)
    @given(dependence_graphs())
    def test_matches_scipy_connected_components(self, graph):
        values, rho = graph
        names = tuple(f"p{7 * i % 41:02d}" for i in range(values.shape[0]))  # out of order
        got = build_groups(DependenceMatrix(names, values), rho).groups
        expect = [tuple(sorted(names[i] for i in c)) for c in scipy_components(values, rho)]
        assert got == tuple(sorted(expect))


class TestGroupsJson:
    def test_round_trip(self, tmp_path):
        dep = DependenceMatrix(("a", "b"), np.array([[1.0, 0.9], [0.9, 1.0]]))
        grouping = build_groups(dep, rho=0.7)
        path = tmp_path / "groups.json"
        write_groups_json(path, grouping, "pearson")
        back, measure = read_groups_json(path)
        assert back == grouping
        assert measure == "pearson"
        assert '"rho": 0.7' in path.read_text()

import contextlib
import csv
import io
import json
import math
import os
import struct
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetwarn import core
from fleetwarn.core import (
    CSV_BLOCK_ROWS,
    AlarmSeries,
    ColumnStats,
    EventRecord,
    FleetAxis,
    ROW_BLOCK,
    MatchParams,
    NormalRows,
    TelemetryPanel,
    apply_column_stats,
    csv_float,
    fit_column_stats,
    json_number,
    read_events_csv,
    read_scores_csv,
    read_telemetry_csv,
    write_alarms_csv,
    write_csv,
    write_events_csv,
    write_json,
    write_telemetry_csv,
)
from fleetwarn.detect import SubspaceDetector
from fleetwarn.grouping import DependenceMatrix
from fleetwarn.synth import pool_or
from oracles import (
    apply_column_stats_reference,
    fit_column_stats_reference,
    read_telemetry_reference,
    read_telemetry_row_loop,
    write_alarms_reference,
    write_telemetry_reference,
)
from support import alarm_series, firings, run_python, split_rows, write_scores_csv


def make_panel(values, columns=("x",), unit="u1", flights=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if flights is None:
        flights = np.arange(1, len(values) + 1)
    return TelemetryPanel(unit_id=unit, flights=flights, columns=columns, values=values)


def read_alarms_csv(path):
    """Parse an alarms CSV back into sorted AlarmSeries (the CLI only writes them)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["unit_id", "flight", "alarm_id"]
        sets = {}
        for unit, flight, alarm_id in reader:
            sets.setdefault(alarm_id, {}).setdefault(unit, set()).add(int(flight))
    return [
        alarm_series(aid, {u: frozenset(ts) for u, ts in units.items()})
        for aid, units in sorted(sets.items())
    ]


class TestTelemetryPanel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TelemetryPanel("u", np.arange(3), ("a", "b"), np.zeros((3, 3)))

    def test_flights_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TelemetryPanel("u", np.array([1, 1, 2]), ("a",), np.zeros((3, 1)))

    def test_flight_order_does_not_wrap(self):
        bounds = np.array([-(2**63), 2**63 - 1])
        assert TelemetryPanel("u", bounds, ("a",), np.zeros((2, 1))).n_flights == 2
        with pytest.raises(ValueError, match="increasing"):
            TelemetryPanel("u", bounds[::-1], ("a",), np.zeros((2, 1)))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TelemetryPanel("u", np.arange(2), ("a", "a"), np.zeros((2, 2)))

    def test_values_immutable(self):
        panel = make_panel([1.0, 2.0])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0

    def test_observation_range(self):
        panel = make_panel([1.0, 2.0, 3.0], flights=np.array([5, 7, 11]))
        assert panel.observation_range() == (5, 11)


class TestMatchParams:
    def test_defaults(self):
        p = MatchParams()
        assert (p.window, p.horizon, p.delay) == (20, 0, 0)

    def test_window_at_least_one(self):
        with pytest.raises(ValueError):
            MatchParams(window=0)

    def test_nonnegative_horizon_delay(self):
        with pytest.raises(ValueError):
            MatchParams(horizon=-1)


class TestEventRecord:
    def test_end_after_onset(self):
        with pytest.raises(ValueError):
            EventRecord("u", 5, 5, "X")


def zscored(panel, mask):
    """``panel``'s values z-scored with stats fitted on its ``mask`` rows alone."""
    return apply_column_stats(panel, fit_column_stats(NormalRows((panel,), (mask,))))


def assert_stats_equal(stats, mean, std):
    """``stats`` holds ``mean`` and ``std`` bit for bit, bar the bits of a NaN mean."""
    assert np.array_equal(np.isnan(stats.mean), np.isnan(mean))
    observed = ~np.isnan(mean)
    assert stats.mean[observed].tobytes() == mean[observed].tobytes()
    assert stats.std.tobytes() == std.tobytes()


class TestNormalRows:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37]),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_blocks_and_gathers_are_the_stacked_rows(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_rows, n_cols))
        values[rng.random(values.shape) < 0.2] = np.nan
        panels, masks = split_rows(values, rng)
        rows = NormalRows(panels, masks)
        blocks = [block.copy() for block in rows.blocks()]
        assert [len(b) for b in blocks] == [min(ROW_BLOCK, n_rows - lo)
                                           for lo in range(0, n_rows, ROW_BLOCK)]
        stacked = np.concatenate(blocks) if blocks else np.empty((0, n_cols))
        assert rows.n_rows == n_rows and stacked.tobytes() == values.tobytes()
        cols = rng.permutation(n_cols)[: rng.integers(1, n_cols + 1)]
        gathered = rows.gather(cols)
        assert gathered.flags.f_contiguous
        assert gathered.tobytes() == np.ascontiguousarray(values[:, cols]).tobytes()

    def test_every_block_is_written_into_one_buffer(self):
        values = np.arange(3.0 * ROW_BLOCK).reshape(-1, 1)
        panels, masks = split_rows(values, np.random.default_rng(4))
        bases = {block.__array_interface__["data"][0]
                 for block in NormalRows(panels, masks).blocks()}
        assert len(bases) == 1

    def test_refuses_stats_or_masks_that_do_not_fit(self):
        a = TelemetryPanel("a", np.arange(3), ("x", "y"), np.ones((3, 2)))
        stats = ColumnStats(("x", "z"), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="stats columns do not match panel columns"):
            NormalRows((a,), (np.ones(3, dtype=bool),), stats)
        with pytest.raises(ValueError, match="one mask per panel"):
            NormalRows((a,), ())


class TestNormalize:
    def test_zscore_known_values(self):
        # mean 4, population std sqrt(8/3)
        panel = make_panel([2.0, 4.0, 6.0])
        out = zscored(panel, np.ones(3, dtype=bool))
        expect = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(out.ravel(), expect, atol=1e-12)

    def test_stats_rows_restrict_reference(self):
        panel = make_panel([0.0, 10.0, 100.0])
        mask = np.array([True, True, False])
        out = zscored(panel, mask)
        # mean 5, std 5 from the first two rows only
        assert np.allclose(out.ravel(), [-1.0, 1.0, 19.0])

    def test_constant_column_passes_through_centered(self):
        panel = make_panel([3.0, 3.0, 3.0])
        out = zscored(panel, np.ones(3, dtype=bool))
        assert np.allclose(out.ravel(), [0.0, 0.0, 0.0])

    def test_missing_stays_missing(self):
        panel = make_panel([1.0, float("nan"), 3.0])
        out = zscored(panel, np.ones(3, dtype=bool))
        assert math.isnan(out[1, 0])
        assert not np.isnan(out[[0, 2], 0]).any()

    def test_no_reference_rows_errors(self):
        panel = make_panel([1.0, 2.0])
        with pytest.raises(ValueError, match="no reference rows"):
            zscored(panel, np.zeros(2, dtype=bool))

    def test_all_missing_column_untouched(self):
        panel = make_panel([float("nan"), float("nan")])
        out = zscored(panel, np.ones(2, dtype=bool))
        assert np.isnan(out).all()

    def test_fleet_pooled_stats(self):
        a = make_panel([0.0, 2.0], unit="a")
        b = make_panel([4.0, 6.0], unit="b")
        stats = fit_column_stats(NormalRows((a, b), (np.ones(2, dtype=bool),) * 2))
        assert stats.mean[0] == pytest.approx(3.0)
        out = apply_column_stats(b, stats)
        assert out[1, 0] == pytest.approx((6.0 - 3.0) / stats.std[0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_broadcast_bit_equal_to_column_loop(self, data):
        n_rows = data.draw(st.integers(0, 30))
        n_cols = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-3, 4, size=n_cols)
        values[rng.random(values.shape) < 0.2] = np.nan
        values[rng.random(values.shape) < 0.1] = -0.0
        mean = rng.normal(size=n_cols)
        std = np.abs(rng.normal(size=n_cols))
        mean[rng.random(n_cols) < 0.3] = np.nan
        std[rng.random(n_cols) < 0.3] = 0.0
        mean[rng.random(n_cols) < 0.2] = 0.0
        columns = tuple(f"p{j}" for j in range(n_cols))
        panel = TelemetryPanel("u", np.arange(1, n_rows + 1), columns, values)
        got = apply_column_stats(panel, ColumnStats(columns, mean, std))
        expect = apply_column_stats_reference(values, mean, std)
        assert got.tobytes() == expect.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fit_bit_equal_to_silenced_reference(self, data):
        n_cols = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        panels, masks = [], []
        for u in range(data.draw(st.integers(1, 3))):
            n_rows = data.draw(st.integers(1, 25))
            values = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-3, 4, size=n_cols)
            values[rng.random(values.shape) < 0.3] = np.nan
            values[:, rng.random(n_cols) < 0.3] = np.nan  # all-missing columns
            columns = tuple(f"p{j}" for j in range(n_cols))
            panels.append(TelemetryPanel(f"u{u}", np.arange(n_rows), columns, values))
            masks.append(rng.random(n_rows) < 0.8)
        if not any(m.any() for m in masks):
            masks[0][0] = True
        rows = np.vstack([p.values[m] for p, m in zip(panels, masks)])
        got = fit_column_stats(NormalRows(panels, masks))
        assert_stats_equal(got, *fit_column_stats_reference(rows))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_blocked_fit_bit_equal_to_numpy_on_the_stack(self, data):
        """Read in blocks of ``ROW_BLOCK`` rows, the stats are ``np.nanmean`` and
        ``np.nanstd`` of the stacked rows bit for bit: on both sides of one and two block
        heights, for one column (which numpy sums pairwise) and for several (row by row),
        with -0.0 cells and all-missing columns."""
        n_rows = data.draw(st.sampled_from([1, 2, 9, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                            2 * ROW_BLOCK - 1, 2 * ROW_BLOCK,
                                            2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 229]))
        n_cols = data.draw(st.sampled_from([1, 1, 2, 3, 8, 41]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = (rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-3, 4, size=n_cols)
                  + rng.normal(size=n_cols) * 10.0 ** rng.integers(0, 7, size=n_cols))
        values[rng.random(values.shape) < data.draw(st.sampled_from([0.0, 0.1, 0.6]))] = np.nan
        values[rng.random(values.shape) < 0.05] = -0.0
        values[:, rng.random(n_cols) < 0.2] = np.nan  # all-missing columns
        panels, masks = split_rows(values, rng)
        got = fit_column_stats(NormalRows(panels, masks))
        assert_stats_equal(got, *fit_column_stats_reference(values))

    def test_fit_warns_of_nothing(self):
        panel = make_panel([[1.0, np.nan], [3.0, np.nan]], columns=("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = fit_column_stats(NormalRows((panel,), (np.ones(2, dtype=bool),)))
        assert math.isnan(stats.mean[1]) and stats.std[1] == 0.0
        assert (stats.mean[0], stats.std[0]) == (2.0, 1.0)


class TestAlarmSeries:
    def test_signature_skips_empty_units(self):
        axis = FleetAxis.from_ranges({"u1": (0, 9), "u2": (0, 9)})
        alarm = alarm_series("a", {"u2": frozenset({3, 1}), "u1": frozenset()}, axis)
        assert alarm.signature() == np.array([11, 13], dtype=np.int64).tobytes()
        assert alarm.signature() == alarm_series("b", {"u2": {1, 3}}, axis).signature()

    def test_total_firings(self):
        alarm = alarm_series("a", {"u": frozenset({1, 2}), "v": frozenset({9})})
        assert alarm.total_firings() == 3

    @pytest.mark.parametrize("positions", [[2, 1], [1, 1], [-1], [20], [[1]]])
    def test_positions_strictly_increase_within_the_axis(self, positions):
        axis = FleetAxis.from_ranges({"u1": (0, 9), "u2": (0, 9)})
        with pytest.raises(ValueError, match="strictly increase within the axis"):
            AlarmSeries("a", axis, np.array(positions))

    def test_firings_view_is_read_only(self):
        alarm = alarm_series("a", {"u": {1, 2}})
        with pytest.raises(ValueError):
            alarm.positions[0] = 0


# Each value type with its array fields, built from the caller's writeable arrays.
OWNED_ARRAYS = {
    "TelemetryPanel": lambda a, b: TelemetryPanel("u", a, ("x", "y"), np.stack([b, b], axis=1)),
    "ColumnStats": lambda a, b: ColumnStats(("x", "y", "z"), b, b),
    "SubspaceDetector": lambda a, b: SubspaceDetector(("x", "y", "z"), b, np.eye(3)[:, :1], 0.9),
    "DependenceMatrix": lambda a, b: DependenceMatrix(("x", "y", "z"), np.diag(b)),
    "AlarmSeries": lambda a, b: AlarmSeries("a", FleetAxis.from_ranges({"u": (0, 9)}), a),
}


@pytest.mark.parametrize("build", OWNED_ARRAYS.values(), ids=OWNED_ARRAYS)
def test_array_fields_are_read_only_copies(build):
    """Every array field is typed, read-only and the value type's own: the
    caller's arrays stay writeable, and writing them changes nothing inside."""
    a, b = np.array([1, 3, 5], dtype=np.int64), np.array([1.0, 2.0, 3.0])
    value = build(a, b)
    arrays = {name: v for name, v in vars(value).items() if isinstance(v, np.ndarray)}
    assert arrays
    before = {name: v.copy() for name, v in arrays.items()}
    assert a.flags.writeable and b.flags.writeable
    a[:] = 0
    b[:] = 0.0
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        assert array.dtype == (np.int64 if array.dtype.kind == "i" else np.float64), name
        assert np.array_equal(array, before[name]), name


@st.composite
def alarm_lists(draw):
    """Alarms on one random axis, with repeated ids, ids and unit ids that csv
    must quote, alarms that never fire and a never-firing pool on no axis."""
    names = st.text(alphabet='ab,"', min_size=1, max_size=3)
    ranges = {}
    for unit in draw(st.lists(names, min_size=1, max_size=4, unique=True)):
        first = draw(st.integers(-20, 20))
        ranges[unit] = (first, first + draw(st.integers(0, 30)))
    axis = FleetAxis.from_ranges(ranges)
    alarms = [
        alarm_series(draw(names), {
            unit: draw(st.frozensets(st.integers(first, last), max_size=8))
            for unit, (first, last) in ranges.items()
        }, axis)
        for _ in range(draw(st.integers(0, 6)))
    ]
    if draw(st.booleans()):
        alarms.append(pool_or([], FleetAxis.from_ranges({})))
    return draw(st.permutations(alarms))


# Three ids fire at the same flights, one of them twice (a one-member
# combination repeats its elementary alarm), and every unit and id needs
# quoting: small blocks cut the rows of one flight apart.
SEAM_AXIS = FleetAxis.from_ranges({"u,1": (0, 9), 'u"2': (-3, 6)})
SEAM_ALARMS = [alarm_series(a, {"u,1": {0, 1, 2}, 'u"2': {-3, 6}}, SEAM_AXIS)
               for a in ('b"', "a,", "c", "a,")]
# 3,000 firings: three blocks of rows at the real block size.
LONG_AXIS = FleetAxis.from_ranges({"u,1": (0, 599), "u2": (100, 699)})
LONG_ALARMS = [alarm_series(a, {"u,1": range(0, 600, step), "u2": range(100, 700, step)},
                            LONG_AXIS)
               for a, step in (("a,", 1), ("b", 2), ("a,", 1))]


class TestOutputEncodings:
    def test_write_json_golden_bytes(self, tmp_path):
        path = tmp_path / "o.json"
        write_json(path, {"b": [1, 2.5, None], "a": {"z": "inf", "y": -0.0}, "c": ("\u00e9",)})
        assert path.read_bytes() == (
            b'{\n'
            b'  "a": {\n'
            b'    "y": -0.0,\n'
            b'    "z": "inf"\n'
            b'  },\n'
            b'  "b": [\n'
            b'    1,\n'
            b'    2.5,\n'
            b'    null\n'
            b'  ],\n'
            b'  "c": [\n'
            b'    "\\u00e9"\n'
            b'  ]\n'
            b'}\n'
        )

    def test_write_json_refuses_a_payload_before_the_file_opens(self, tmp_path):
        path = tmp_path / "o.json"
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})
        assert not path.exists()
        path.write_bytes(b'{"older": true}\n')
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})
        assert path.read_bytes() == b'{"older": true}\n'

    def test_write_json_takes_about_its_text(self, tmp_path):
        # The text is encoded before the file opens, as joined blocks of the
        # encoder's chunks: about 1.06 B a byte of text at the peak, where
        # json.dumps's list of every chunk takes about 8 B.
        payload = {"rows": [{"unit": f"u{i % 16}", "flight": i, "score": i / 7}
                            for i in range(20_000)]}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_json(tmp_path / "o.json", payload)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        text = (tmp_path / "o.json").read_bytes()
        assert text == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert peak < 1.5 * len(text)

    def test_write_csv_golden_bytes(self, tmp_path):
        path = tmp_path / "o.csv"
        write_csv(path, ["a", "b"], [["x,y", ""], ["\u00e9", 'q"']])
        assert path.read_bytes() == 'a,b\n"x,y",\n\u00e9,"q"""\n'.encode("utf-8")

    def test_write_csv_quotes_every_cell_of_a_row_with_a_cr(self, tmp_path):
        path = tmp_path / "o.csv"
        write_csv(path, ["a", "b"], [["x\ry", ""], ["x,y", "z"]])
        assert path.read_bytes() == b'a,b\n"x\ry",""\n"x,y",z\n'
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["a", "b"], ["x\ry", ""], ["x,y", "z"]]

    @pytest.mark.parametrize(
        "x, cell",
        [
            (float("nan"), ""),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (-0.0, "-0.0"),
            (3, "3.0"),
            (np.float64(0.1), "0.1"),
        ],
    )
    def test_csv_float(self, x, cell):
        assert csv_float(x) == cell

    @pytest.mark.parametrize(
        "x, value",
        [
            (float("nan"), None),
            (math.inf, "inf"),
            (-math.inf, "inf"),
            (-0.0, -0.0),
            (7, 7),
            (0.5, 0.5),
        ],
    )
    def test_json_number(self, x, value):
        assert repr(json_number(x)) == repr(value)


class TestCsvRoundTrips:
    def test_telemetry(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 3))
        values[2, 1] = np.nan
        panel = TelemetryPanel(
            "unit-a",
            np.arange(10, 16),
            ("p1", "p2", "p3"),
            values,
            phases=("cruise",) * 6,
        )
        path = tmp_path / "t.csv"
        write_telemetry_csv(path, [panel])
        (back,) = read_telemetry_csv(path)
        assert back.unit_id == panel.unit_id
        assert back.columns == panel.columns
        assert back.flights.tolist() == panel.flights.tolist()
        assert np.array_equal(back.values, panel.values, equal_nan=True)
        assert back.phases == panel.phases

    def test_telemetry_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_telemetry_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_telemetry_rejects_infinite_cells(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(
            "unit_id,flight,phase,p1,p2\n"
            "u1,1,cruise,0.5,\n"
            "u2,1,cruise,1.0,2.0\n"
            f"u1,2,cruise,0.25,{cell}\n"
        )
        with pytest.raises(ValueError, match=rf"t\.csv: line 4: infinite value in column 'p2'"):
            read_telemetry_csv(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("u1,2,cruise,0.25,abc", "cannot parse 'abc' in column 'p2'"),
            ("u1,2,cruise,x1,", "cannot parse 'x1' in column 'p1'"),
            ("u1,x,cruise,0.25,1.0", "cannot parse 'x' in column 'flight'"),
            ("u1,2,cruise,0.25", "row arity 4 != 5"),
            ("u1,2,cruise,0.25,1.0,7", "row arity 6 != 5"),
        ],
    )
    def test_telemetry_parse_errors_name_line_and_column(self, tmp_path, line, message):
        path = tmp_path / "t.csv"
        path.write_text(
            "unit_id,flight,phase,p1,p2\n"
            "u1,1,cruise,0.5,\n"
            "\n"
            f"{line}\n"
            "u2,1,cruise,1.0,2.0\n"
        )
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == f"{path}: line 4: {message}"

    def test_telemetry_rows_all_one_cell_short(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("unit_id,flight,phase,p1,p2\nu1,1,,0.5\nu1,2,,0.25\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == f"{path}: line 2: row arity 4 != 5"

    @pytest.mark.parametrize("name", ["", ".", "..", "../../pwned", "a/b", "a\\b"])
    def test_telemetry_rejects_column_names_that_are_not_file_names(self, tmp_path, name):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [["unit_id", "flight", "phase", "p1", name], ["u1", "1", "", "0.5", "1.0"]]
            )
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: column name {name!r} is not a file name: "
            "it must not be empty, '.' or '..', nor contain '/' or '\\'"
        )

    @pytest.mark.parametrize("unit", ["", ".", "..", "../escaped", "a/b", "a\\b"])
    def test_telemetry_rejects_unit_ids_that_are_not_file_names(self, tmp_path, unit):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [
                    ["unit_id", "flight", "phase", "p1"],
                    ["u1", "1", "", "0.5"],
                    [unit, "1", "", "0.5"],
                    [unit, "2", "", "0.5"],
                ]
            )
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: unit id {unit!r} is not a file name: "
            "it must not be empty, '.' or '..', nor contain '/' or '\\'"
        )

    def test_telemetry_rejects_repeated_column_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("unit_id,flight,phase,p1,p2,p1\nu1,1,,0.5,1.0,2.0\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == f"{path}: line 1: repeated column name 'p1'"

    @pytest.mark.parametrize(
        "flights, message",
        [
            ((2, 1), "line 5: flight 1 of unit 'unit000' follows flight 2"),
            ((1, 1, 2), "line 5: repeated flight 1 of unit 'unit000'"),
            ((1, 3, 2), "line 6: flight 2 of unit 'unit000' follows flight 3"),
        ],
    )
    def test_telemetry_flight_order_errors_name_line(self, tmp_path, flights, message):
        # unit001's rows interleave, so that the line is counted across units
        rows = ["unit001,1,,0.0"]
        rows += [f"unit000,{t},,0.5" for t in flights]
        rows.insert(2, "unit001,2,,0.0")
        path = tmp_path / "t.csv"
        path.write_text("unit_id,flight,phase,p1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "name, size",
        [("p" * 251, 251), ("\u00e9" * 126, 252), ("\u2603" * 100, 300)],
    )
    def test_telemetry_rejects_column_names_too_long_for_a_file(self, tmp_path, name, size):
        path = tmp_path / "t.csv"
        path.write_text(f"unit_id,flight,phase,p1,{name}\nu1,1,,0.5,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: column name {name[:24]!r}... is not a file name: "
            f"it is {size} UTF-8 bytes long, more than 250"
        )

    def test_telemetry_rejects_unit_ids_too_long_for_a_file(self, tmp_path):
        unit = "u" * 251
        path = tmp_path / "t.csv"
        path.write_text(f"unit_id,flight,phase,p1\nu1,1,,0.5\n{unit},1,,0.5\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: unit id {unit[:24]!r}... is not a file name: "
            "it is 251 UTF-8 bytes long, more than 250"
        )

    def test_telemetry_names_of_250_bytes_are_read(self, tmp_path):
        column, unit = "p" * 250, "\u00e9" * 125
        path = tmp_path / "t.csv"
        path.write_text(f"unit_id,flight,phase,{column}\n{unit},1,,0.5\n", encoding="utf-8")
        (panel,) = read_telemetry_csv(path)
        assert panel.columns == (column,) and panel.unit_id == unit

    def test_events(self, tmp_path):
        events = [EventRecord("u2", 30, 31, "7100W310"), EventRecord("u1", 5, 8, "E2")]
        path = tmp_path / "e.csv"
        write_events_csv(path, events)
        assert read_events_csv(path) == events

    def test_scores(self, tmp_path):
        scores = {"u1": {1: 0.5, 2: math.nan}, "u2": {7: 1.25}, "u3": {4: math.nan}}
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores)
        back = read_scores_csv(path)
        # NaN rows come back as NaN, and a unit of NaN rows alone is kept;
        # the curve sweep is what leaves them out.
        assert {unit: list(series) for unit, series in back.items()} == {
            "u1": [1, 2], "u2": [7], "u3": [4]}
        assert (back["u1"][1], back["u2"][7]) == (0.5, 1.25)
        assert math.isnan(back["u1"][2]) and math.isnan(back["u3"][4])

    def test_alarms(self, tmp_path):
        axis = FleetAxis.from_ranges({"u1": (0, 9), "u2": (0, 9)})
        alarms = [
            alarm_series("b", {"u1": frozenset({2})}, axis),
            alarm_series("a", {"u1": frozenset({1, 3}), "u2": frozenset()}, axis),
        ]
        path = tmp_path / "a.csv"
        write_alarms_csv(path, alarms)
        back = read_alarms_csv(path)
        assert [a.alarm_id for a in back] == ["a", "b"]
        assert firings(back[0])["u1"] == frozenset({1, 3})
        assert path.read_text().splitlines()[0] == "unit_id,flight,alarm_id"

    @settings(max_examples=200, deadline=None)
    @given(alarm_lists())
    @example(LONG_ALARMS)
    def test_alarms_equal_the_sorted_tuple_writer(self, tmp_path_factory, alarms):
        tmp = tmp_path_factory.mktemp("alarms")
        write_alarms_csv(tmp / "got.csv", alarms)
        write_alarms_reference(tmp / "ref.csv", alarms)
        assert (tmp / "got.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @settings(max_examples=50, deadline=None)
    @given(alarm_lists())
    @example(SEAM_ALARMS)
    def test_alarms_are_equal_across_block_seams(self, tmp_path_factory, block_rows, alarms):
        tmp = tmp_path_factory.mktemp("alarms")
        write_alarms_reference(tmp / "ref.csv", alarms)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CSV_BLOCK_ROWS", block_rows)
            write_alarms_csv(tmp / "got.csv", alarms)
        assert (tmp / "got.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    def test_alarms_take_few_bytes_a_firing(self, tmp_path):
        # The writer holds three arrays of 8 B a firing, about 28 B in all at
        # its peak; lists of every row's cells take about 95 B a firing.
        axis = FleetAxis.from_ranges({f"u{i}": (0, 49_999) for i in range(4)})
        rng = np.random.default_rng(0)
        alarms = [
            AlarmSeries(f"a{i}", axis, np.sort(rng.choice(axis.starts[-1], 25_000, replace=False)))
            for i in range(4)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_alarms_csv(tmp_path / "a.csv", alarms)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 48 * 100_000
        assert len((tmp_path / "a.csv").read_bytes().splitlines()) == 100_001

    def test_alarms_on_two_axes_are_refused(self, tmp_path):
        alarms = [alarm_series("a", {"u1": {1}}), alarm_series("b", {"u2": {1}})]
        with pytest.raises(ValueError, match="disagree on the fleet axis"):
            write_alarms_csv(tmp_path / "a.csv", alarms)
        assert not (tmp_path / "a.csv").exists()


# Cell spellings for the reader properties: reprs of edge values and other
# texts that float() reads.
EDGE_CELLS = [repr(x) for x in (-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                1e308, -1e308, 0.1, -2.5, 1.7976931348623157e308)]
OTHER_CELLS = ["1.50", "1E5", " 2", "2 ", "1_0", "-0", "+3.", ".5e-3", "4.9e-324",
               "1e+308", "nan", "-nan", "NaN", "\u0663", "\t7"]


def _csv_text(rows, quote_all, line_end):
    """Rows as CSV text; a cell is quoted when it holds a comma or a quote, or always."""

    def cell(text):
        if quote_all or any(c in text for c in ',"'):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(",".join(map(cell, row)) + line_end for row in rows)


def _panel_bytes(panels):
    return [(p.unit_id, p.columns, p.flights.tobytes(), p.values.tobytes(), p.phases)
            for p in panels]


def _outcome(read, path):
    """The panels ``read`` returns as bytes, or the message it raises."""
    try:
        return _panel_bytes(read(path))
    except (ValueError, csv.Error) as exc:
        return str(exc)


class TestTelemetryReaderAgainstRowLoop:
    """The bulk telemetry reader returns, bit for bit, what the per-row csv
    loop of ``oracles.read_telemetry_row_loop`` returns, and raises the
    same messages."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_equal_to_reference(self, tmp_path_factory, data):
        n_cols = data.draw(st.integers(1, 6))
        quoted = data.draw(st.booleans())
        names = ["u1", "unit-b", "e f", "\u00e9", *(["c,d"] if quoted else [])]
        units = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        row_units = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=12))
        cell = st.one_of(
            st.just(""),  # missing
            st.sampled_from(EDGE_CELLS),
            st.sampled_from(OTHER_CELLS),
            st.floats(allow_infinity=False).map(repr),
        )
        phases = ["", "cruise", *(["climb, high"] if quoted else [])]
        last: dict[str, int] = {}
        rows = [["unit_id", "flight", "phase", *(f"p{j}" for j in range(n_cols))]]
        for unit in row_units:
            last[unit] = last.get(unit, data.draw(st.integers(-5, 5))) + data.draw(
                st.integers(1, 3)
            )
            phase = data.draw(st.sampled_from(phases))
            rows.append([unit, str(last[unit]), phase,
                         *data.draw(st.lists(cell, min_size=n_cols, max_size=n_cols))])
        for _ in range(data.draw(st.integers(0, 2))):
            rows.insert(data.draw(st.integers(1, len(rows))), [])  # blank line
        quote_all = quoted and data.draw(st.booleans())
        text = _csv_text(rows, quote_all, data.draw(st.sampled_from(["\n", "\r\n"])))
        path = tmp_path_factory.mktemp("reader") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expect = _outcome(read_telemetry_row_loop, path)
        assert isinstance(expect, list)  # every drawn file is valid
        assert _outcome(read_telemetry_csv, path) == expect
        if not any(c in text.partition("\n")[2] for c in '"\r_\u0663'):  # the bulk pass alone
            opener = partial(open, path, "rb")
            assert _panel_bytes(core._panels(*core._plain_rows(path, opener))) == expect

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from([*"0123456789.e+-_ \t#\x1c\x1f", "nan", "inf", "\u0663"]),
            max_size=8,
        ).map("".join),
        st.integers(0, 2),
    )
    @example("1#", 2)  # a number, then what loadtxt would read as a comment
    @example("1_0", 1)
    @example("\x1c1", 1)
    def test_cell_parity_with_float(self, tmp_path_factory, cell, column):
        cells = ["0.5", "1.0", "2.0"]
        cells[column] = cell
        path = tmp_path_factory.mktemp("cell") / "t.csv"
        path.write_text(
            "unit_id,flight,phase,p0,p1,p2\n"
            "u1,1,,0.25,0.5,0.75\n"
            f"u1,2,,{','.join(cells)}\n",
            encoding="utf-8",
        )
        try:
            expect = float(cell) if cell else math.nan
        except ValueError:
            expect = None
        if expect is None or math.isinf(expect):
            with pytest.raises(ValueError) as info:
                read_telemetry_csv(path)
            assert str(info.value) == _outcome(read_telemetry_row_loop, path)
            assert str(info.value).startswith(f"{path}: line 3: ")
        else:
            got = read_telemetry_csv(path)[0].values[1, column]
            assert struct.pack("<d", got) == struct.pack("<d", expect)

    @pytest.mark.parametrize(
        "phase", ["x" * (csv.field_size_limit() + 1), "x" * 1000], ids=["long-field", "long-line"]
    )
    def test_long_lines_read_as_by_the_row_loop(self, tmp_path, phase):
        path = tmp_path / "t.csv"
        cell = "0." + "0" * 1000 + "5"
        cells = ",".join([cell] * (csv.field_size_limit() // 1000))  # a line beyond the limit
        header = ",".join(f"p{j}" for j in range(cells.count(",") + 1))
        path.write_text(f"unit_id,flight,phase,{header}\nu1,1,{phase},{cells}\n")
        assert _outcome(read_telemetry_csv, path) == _outcome(read_telemetry_row_loop, path)

    @pytest.mark.parametrize("quote", ["", '"'], ids=["bulk", "row-loop"])
    @pytest.mark.parametrize("flight", ["99999999999999999999", "-9223372036854775809"])
    def test_flight_outside_int64_names_its_line(self, tmp_path, quote, flight):
        path = tmp_path / "t.csv"
        path.write_text(f"unit_id,flight,phase,p1\nu1,1,,0.5\n{quote}u1{quote},{flight},,1\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: {flight!r} in column 'flight' is outside the 64-bit integer range"
        )

    def test_int64_bounds_are_flights(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("unit_id,flight,phase,p1\nu1,-9223372036854775808,,0.5\n"
                        "u1,9223372036854775807,,1\n")
        assert [p.flights.tolist() for p in read_telemetry_csv(path)] == [[-(2**63), 2**63 - 1]]

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_beyond_the_csv_limit_names_its_line(self, tmp_path, line):
        path = tmp_path / "t.csv"
        lines = ["unit_id,flight,phase,p1", "u1,1,,0.5", "u1,2,,1"]
        lines[line - 1] += "x" * 140_000
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_telemetry_csv(path)
        limit = csv.field_size_limit()
        assert str(info.value) == f"{path}: line {line}: field larger than field limit ({limit})"

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_file_without_rows_reads_no_panels_quietly(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("unit_id,flight,phase,p1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_telemetry_csv(path) == []

    def test_plain_file_never_takes_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text(
            "unit_id,flight,phase,p1,p2,p3,p4\n"
            "u2,1,,,1e5,,\n"
            "u1,4,x,0.5,,,7\n"
            "\n"
            "u2,3,,-0.0,,2,\n"
            "u1,5,,,,,\n"
        )
        expect = _panel_bytes(read_telemetry_row_loop(path))

        def row_loop(path, opener):
            raise AssertionError("row loop")

        monkeypatch.setattr(core, "_checked_rows", row_loop)
        assert _panel_bytes(read_telemetry_csv(path)) == expect
        path.write_text('unit_id,flight,phase,p1,p2\n"u2",1,,,1e5\n')
        with pytest.raises(AssertionError, match="row loop"):
            read_telemetry_csv(path)


READ_HEADER = "unit_id,flight,phase,p0\n"


@st.composite
def telemetry_texts(draw):
    """Telemetry text of up to 10 rows, with blank lines among them and maybe
    no final LF, and at most one odd row: quoted, ended by a CR, or invalid."""
    n_cols = draw(st.integers(1, 3))
    units = draw(st.lists(st.sampled_from(["u1", "unit-b", "e f", "\u00e9"]),
                          min_size=1, max_size=3, unique=True))
    cell = st.sampled_from(["", "0.5", "-0.0", "1e5", "nan", "4.9e-324"]) | st.floats(
        allow_nan=False, allow_infinity=False).map(repr)
    last: dict[str, int] = {}
    rows = []
    for unit in draw(st.lists(st.sampled_from(units), max_size=10)):
        last[unit] = last.get(unit, draw(st.integers(-3, 3))) + draw(st.integers(1, 2))
        rows.append([unit, str(last[unit]), draw(st.sampled_from(["", "cruise", "climb"])),
                     *draw(st.lists(cell, min_size=n_cols, max_size=n_cols))])
    odd = draw(st.sampled_from(["", "quoted", "cr", "inf", "text", "flight", "arity", "unit"]))
    if odd and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if odd == "quoted":
            row[0] = f'"{row[0]}"'
        elif odd == "cr":
            row[-1] += "\r"
        elif odd in ("inf", "text"):
            row[-1] = "-inf" if odd == "inf" else "x1"
        elif odd == "flight":
            row[1] = "1.5"
        elif odd == "arity":
            row.pop()
        else:
            row[0] = ".."
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    header = ",".join(["unit_id", "flight", "phase", *(f"p{j}" for j in range(n_cols))])
    return "\n".join([header, *lines]) + draw(st.sampled_from(["\n", ""]))


@contextlib.contextmanager
def _reading_in(processes):
    """``read_telemetry_csv`` cuts the rows into ranges for ``processes``
    processes, however few bytes they hold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_processes", lambda *caps: processes)
        yield


def _distinct_objects(panels):
    """Whether each distinct phase text of ``panels`` is one object."""
    phases = [x for p in panels for x in p.phases or () if x is not None]
    return len({id(x) for x in phases}) == len(set(phases))


class TestTelemetryReaderProcesses:
    """Cut into byte ranges that forked processes parse, a telemetry file
    reads as ``oracles.read_telemetry_reference`` reads it in one process."""

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(text=telemetry_texts())
    @example(text=READ_HEADER.removesuffix("\n"))  # no body at all
    @example(text=READ_HEADER + "\n\n")  # a cut offset on the header's end
    @example(text=READ_HEADER + "u1,1,,0.5\n\nu1,2,,1\n")  # a cut on the blank line
    @example(text=READ_HEADER + "u1,1,,0.5\nu1,2,,1")  # no final LF in the last range
    @example(text=READ_HEADER + "u1,1,,0.5\nu1,2,,1\r\n")  # a CR in the last range only
    @example(text=READ_HEADER + 'u1,1,,0.5\n"u1",2,,1\n')  # a quote in the last range only
    @example(text=READ_HEADER + "u1,1,,0.5\nu1,2,,inf\n")  # an invalid row in the last range
    def test_panels_of_the_reference(self, tmp_path_factory, processes, text):
        path = tmp_path_factory.mktemp("ranges") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expect = _outcome(read_telemetry_reference, path)
        with _reading_in(processes):
            assert _outcome(read_telemetry_csv, path) == expect
            if isinstance(expect, list):
                assert _distinct_objects(read_telemetry_csv(path))

    @pytest.mark.parametrize("body, processes, starts", [
        ("\n\n", 3, [0, 1]),  # an offset on the header's end: range 1 is the second blank line
        ("u1,1,,0.5\n\nu1,2,,1\n", 2, [0, 10]),  # the offset ends line 2: range 1 starts blank
        ("u1,1,,0.5\nu1,2,,1.5\nu1,3,,2.5\nu1,4,,3.5\n", 2, [0, 30]),  # it starts line 4,
        # which range 0 keeps
        ("u1,1,,0.5\n", 3, [0]),  # fewer lines than processes: the empty ranges are dropped
        ("u1,1,,0.5", 2, [0]),
        ("", 3, [0]),
    ])
    def test_ranges_start_at_line_starts(self, tmp_path, body, processes, starts):
        path = tmp_path / "t.csv"
        path.write_text(READ_HEADER + body)
        with open(path, "rb") as fh:
            fh.readline()
            start = fh.tell()
            got = core._range_starts(fh, start, len(body), processes)
            assert fh.tell() == start
        assert [s - start for s in got] == starts
        with _reading_in(processes):
            assert _outcome(read_telemetry_csv, path) == _outcome(read_telemetry_reference, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_named_pipe_reads_like_a_file(self, tmp_path, monkeypatch, cpus):
        """A pipe's bytes, read once, are cut into the ranges of a file of the
        same bytes and give its panels bit for bit, or its messages with the
        pipe's path.  A repeated flight and a quoted unit id take the row loop,
        which must parse the bytes read once: a second open of the pipe would
        wait forever."""
        monkeypatch.setattr(core, "READ_RANGE_BYTES", 8)  # a range per 8 bytes of rows
        monkeypatch.setattr(core, "_processes", lambda *caps: max(1, min(cpus, *caps)))
        ranges = []
        on_cpus = core._on_cpus

        def counted(where, doing, fn, shares):
            ranges.append(len(shares))
            return on_cpus(where, doing, fn, shares)

        monkeypatch.setattr(core, "_on_cpus", counted)
        plain = "u1,1,,0.5\nu2,1,cruise,\n\nu1,2,,1\nu2,2,,-0.0\nu1,3,x,2.5\nu2,3,,1e5"
        for i, rows in enumerate([plain, "u1,1,,0.5\nu2,1,,0.25\nu1,1,,0.7\n",
                                  '"u1",1,,0.5\nu1,2,,0.25\nu1,3,,1\n']):
            text = READ_HEADER + rows
            path = tmp_path / f"{i}.csv"
            path.write_text(text)
            expect = _outcome(read_telemetry_csv, path)
            assert expect == _outcome(read_telemetry_reference, path)
            pipe = tmp_path / f"{i}.pipe"
            os.mkfifo(pipe)
            got = []
            reader = threading.Thread(
                target=lambda p, g: g.append(_outcome(read_telemetry_csv, p)),
                args=(pipe, got), daemon=True)
            reader.start()
            pipe.write_text(text)
            reader.join(timeout=20)
            if i == 1:
                assert expect == f"{path}: line 4: repeated flight 1 of unit 'u1'"
                expect = f"{pipe}: line 4: repeated flight 1 of unit 'u1'"
            assert got == [expect], rows
            assert ranges[-1] == ranges[-2], rows  # the pipe's ranges are the file's
        assert ranges[:2] == [cpus, cpus]  # the plain rows, from the file and the pipe

    def test_processes_per_cpu_and_range_floor(self, monkeypatch, tmp_path):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1})
        floor = core.READ_RANGE_BYTES
        sizes = (-1, 0, 2 * floor - 1, 2 * floor, 9 * floor)
        assert [core._processes(n // floor) for n in sizes] == [1, 1, 1, 2, 2]
        # The reader caps the processes at the bytes of its rows over the floor.
        body = "".join(f"u1,{i},,0.5\n" for i in range(1, 160_000))
        assert 2 * floor <= len(body) < 3 * floor
        path = tmp_path / "t.csv"
        path.write_text(READ_HEADER + body)
        assert _processes_asked(monkeypatch, read_telemetry_csv, path) == [((2,), 2)]


def _csv_writer_bytes(header, rows):
    """What csv.writer writes, with every cell of a row that holds a CR quoted."""
    buffer = io.StringIO()
    minimal = csv.writer(buffer, lineterminator="\n")
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in [header, *rows]:
        (quote_all if any("\r" in cell for cell in row) else minimal).writerow(row)
    return buffer.getvalue().encode("utf-8")


# Cells csv must quote, or write as they are: the delimiter, the quote, both
# line ends, a Unicode line separator and empty text.
CSV_CELLS = st.text(st.sampled_from([*'a,"\r\n ', "\u2028", "é", "0"]), max_size=4)
CSV_ROWS = st.lists(CSV_CELLS, max_size=4).flatmap(
    lambda row: st.sampled_from([row, tuple(row)]))


@st.composite
def csv_tables(draw):
    """A header and rows around the block size: a repeated plain background
    with a few drawn rows put in, at the block edges among other places."""
    b = CSV_BLOCK_ROWS
    n = draw(st.sampled_from(sorted({0, 1, 2, b - 2, b - 1, b, b + 1, 4095, 4096, 4097})))
    plain = st.lists(st.text("ab.-0", min_size=1, max_size=3), min_size=1, max_size=4)
    background = draw(st.lists(plain, min_size=1, max_size=3))
    rows = [background[i % len(background)] for i in range(n)]
    edges = [0, 1, b - 2, b - 1, b, n - 1]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        where = draw(st.sampled_from([i for i in edges if 0 <= i < n]) | st.integers(0, n - 1))
        rows[where] = draw(CSV_ROWS)
    return draw(CSV_ROWS), rows


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(csv_tables())
    @example((["a", "b"], [[""]]))
    @example((["a"], [[]] * CSV_BLOCK_ROWS + [["x"]]))
    @example(([""], [["a"], ["", ""], ("b",)]))
    @example((["a", "b"], [["x", 'say "hi"']]))
    @example((["a"], [["a\rb"]] * (CSV_BLOCK_ROWS + 1)))
    def test_bytes_of_csv_writer(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "o.csv"
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == _csv_writer_bytes(header, rows)

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "o.csv"

        def rows():
            yield from [["x"]] * 5000
            raise RuntimeError("no more rows")

        with pytest.raises(RuntimeError, match="no more rows"):
            write_csv(path, ["a"], rows())
        assert not path.exists()


SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                  2.2250738585072014e-308, 1.7976931348623157e308]


@st.composite
def written_fleets(draw):
    """Panels of more than three CSV blocks: ids and phases csv must quote,
    missing phases, and the special floats strewn over normal values."""
    n_units = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from(["u1", "u,2", 'u"3', "u\n4", "u 5", "é", "u\r6"]),
                        min_size=n_units, max_size=n_units, unique=True))
    sizes = draw(st.lists(st.integers(1, 6000), min_size=n_units, max_size=n_units))
    sizes[0] += max(0, 3 * CSV_BLOCK_ROWS + 1 - sum(sizes))
    n_cols = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase_texts = st.sampled_from(["", "cruise", "climb, high", 'say "hi"', "a\nb", "\u2028"])
    panels = []
    for unit, size in zip(ids, sizes):
        values = rng.standard_normal((size, n_cols)) * 10.0 ** rng.integers(-300, 300, (size, 1))
        for _ in range(draw(st.integers(0, 8))):
            values[rng.integers(size), rng.integers(n_cols)] = draw(st.sampled_from(SPECIAL_FLOATS))
        phases = None
        if draw(st.booleans()):
            texts = draw(st.lists(phase_texts, min_size=1, max_size=3))
            phases = [texts[i % len(texts)] or None for i in range(size)]
        panels.append(TelemetryPanel(unit, np.cumsum(rng.integers(1, 4, size)) - 2, tuple(
            f"p{j}" for j in range(n_cols)), values, phases=phases))
    return draw(st.permutations(panels))


class TestTelemetryWriter:
    """``write_telemetry_csv`` writes the bytes of ``oracles.write_telemetry_reference``
    however many processes format the rows."""

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @settings(max_examples=12, deadline=None)
    @given(panels=written_fleets())
    @example(panels=[  # four even units: three chunks at three processes
        TelemetryPanel(f"u{i}", np.arange(CSV_BLOCK_ROWS), ("p0",), np.full((CSV_BLOCK_ROWS, 1), i))
        for i in range(4)
    ])
    def test_bytes_of_the_reference(self, tmp_path_factory, processes, panels):
        folder = tmp_path_factory.mktemp("telemetry")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_processes", lambda *caps: processes)
            write_telemetry_csv(folder / "t.csv", panels)
        write_telemetry_reference(folder / "ref.csv", panels)
        assert (folder / "t.csv").read_bytes() == (folder / "ref.csv").read_bytes()
        if any(np.isinf(p.values).any() for p in panels):
            with pytest.raises(ValueError, match="infinite value"):
                read_telemetry_csv(folder / "t.csv")
            return
        back = read_telemetry_csv(folder / "t.csv")
        expect = sorted(panels, key=lambda p: p.unit_id)
        assert [p.unit_id for p in back] == [p.unit_id for p in expect]
        for got, want in zip(back, expect):
            assert got.flights.tobytes() == want.flights.tobytes()
            assert np.array_equal(got.values, want.values, equal_nan=True)
            assert (np.signbit(got.values) == np.signbit(want.values))[~np.isnan(want.values)].all()
            assert got.phases == (want.phases or (None,) * want.n_flights)

    @pytest.mark.parametrize("rows, units, processes", [
        (1, 5, 1), (CSV_BLOCK_ROWS, 5, 1), (CSV_BLOCK_ROWS + 1, 5, 2),
        (10 * CSV_BLOCK_ROWS, 1, 1), (10 * CSV_BLOCK_ROWS, 64, 2),
    ])
    def test_processes_per_cpu_block_and_unit(self, monkeypatch, tmp_path, rows, units, processes):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1})
        assert _writer_processes(monkeypatch, tmp_path, rows, units) == processes

    def test_one_process_without_cpu_affinity(self, monkeypatch, tmp_path):
        monkeypatch.delattr(core.os, "sched_getaffinity", raising=False)
        assert core._processes(10, 64) == 1
        assert _writer_processes(monkeypatch, tmp_path, 10 * CSV_BLOCK_ROWS, 64) == 1


def _processes_asked(monkeypatch, call, *args):
    """The caps ``call(*args)`` passes to each ``core._processes`` call, with its answer."""
    asked, processes = [], core._processes

    def recorded(*caps):
        asked.append((caps, processes(*caps)))
        return asked[-1][1]

    monkeypatch.setattr(core, "_processes", recorded)
    call(*args)
    return asked


def _writer_processes(monkeypatch, tmp_path, rows, units):
    """The processes ``write_telemetry_csv`` asks for ``rows`` rows split over ``units`` units."""
    panels = [TelemetryPanel(f"u{i}", np.arange(n), ("p0",), np.zeros((n, 1)))
              for i, n in enumerate(len(part) for part in np.array_split(np.arange(rows), units))]
    asked = _processes_asked(monkeypatch, write_telemetry_csv, tmp_path / "t.csv", panels)
    assert [caps for caps, _ in asked] == [(-(-rows // CSV_BLOCK_ROWS), units)]
    return asked[0][1]


class TestTelemetryWorkers:
    """Forked formatters leave no trace in the parent's output and report failure."""

    def test_parent_output_and_atexit_run_once(self, tmp_path):
        code = (
            "import atexit, sys\n"
            "import numpy as np\n"
            "from fleetwarn import core\n"
            "core._processes = lambda *caps: 3\n"
            "atexit.register(print, 'atexit')\n"
            "print('before')\n"  # a pipe is block-buffered: still unflushed at the fork
            "panels = [core.TelemetryPanel(f'u{i}', np.arange(5000), ('x',), np.zeros((5000, 1)))\n"
            "          for i in range(3)]\n"
            "core.write_telemetry_csv(sys.argv[1], panels)\n"
            "print('after')\n"
        )
        proc = run_python("-c", code, str(tmp_path / "t.csv"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before\nafter\natexit\n"
        assert len(read_telemetry_csv(tmp_path / "t.csv")) == 3

    def test_failed_worker_fails_simulate_and_leaves_no_file(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text('{"sim": {"units": 4, "flights_per_unit": 3000, "groups": [[2, 0.5]]}}')
        code = (
            "import os, sys\n"
            "from fleetwarn import core\n"
            "from fleetwarn.cli import main\n"
            "parent, rows = os.getpid(), core._telemetry_rows\n"
            "def failing(panels):\n"
            "    if os.getpid() != parent:\n"
            "        raise RuntimeError('formatter broke')\n"
            "    return rows(panels)\n"
            "core._telemetry_rows = failing\n"
            "core._processes = lambda *caps: 2\n"
            "sys.exit(main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        proc = run_python("-c", code, str(config), str(tmp_path / "fleet"))
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeError: formatter broke" in proc.stderr
        telemetry = tmp_path / "fleet" / "telemetry.csv"
        assert proc.stderr.splitlines()[-1] == (
            f"fleetwarn: {telemetry}: the process formatting its rows exited with code 1"
        )
        assert not telemetry.exists()


class TestTelemetryReadWorkers:
    """Forked readers leave no trace in the parent's output, report failure,
    and never leave the parent waiting on them."""

    def test_parent_output_and_atexit_run_once(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(READ_HEADER + "".join(f"u{i % 3},{i},,{i}\n" for i in range(3000)))
        code = (
            "import atexit, os, sys\n"
            "from fleetwarn import core\n"
            "core._processes = lambda *caps: 3\n"
            "forked, fork = [], os.fork\n"
            "def counted():\n"
            "    pid = fork()\n"
            "    forked.extend([pid] if pid else [])\n"
            "    return pid\n"
            "os.fork = counted\n"
            "atexit.register(print, 'atexit')\n"
            "print('before')\n"  # a pipe is block-buffered: still unflushed at the fork
            "panels = core.read_telemetry_csv(sys.argv[1])\n"
            "print(len(forked), [p.n_flights for p in panels])\n"
        )
        proc = run_python("-c", code, str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before\n2 [1000, 1000, 1000]\natexit\n"

    def test_failed_worker_fails_run(self, tmp_path):
        telemetry = tmp_path / "t.csv"
        telemetry.write_text(READ_HEADER + "".join(f"u1,{i},,{i}\n" for i in range(3000)))
        (tmp_path / "e.csv").write_text("unit_id,onset,end,code\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"io": {"telemetry": str(telemetry),
                                             "events": str(tmp_path / "e.csv")}}))
        code = (
            "import os, sys\n"
            "from fleetwarn import core\n"
            "from fleetwarn.cli import main\n"
            "parent, rows = os.getpid(), core._bulk_rows\n"
            "def failing(*args):\n"
            "    if os.getpid() != parent:\n"
            "        raise RuntimeError('reader broke')\n"
            "    return rows(*args)\n"
            "core._bulk_rows = failing\n"
            "core._processes = lambda *caps: 2\n"
            "sys.exit(main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        proc = run_python("-c", code, str(config), str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeError: reader broke" in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"fleetwarn: {telemetry}: the process reading its rows exited with code 1"
        )

    def test_invalid_first_range_drains_the_others(self, tmp_path):
        """The parent's own range is not plain, while the other range's
        process has megabytes of rows to send into a pipe that holds far
        fewer: the parent reads them all and reaps the process, and the row
        loop names the invalid line."""
        path = tmp_path / "t.csv"
        rows = "".join(f"u1,{i},,{i}.25\n" for i in range(2, 400_000))
        path.write_text(READ_HEADER + "u1,1,,oops\n" + rows)
        assert path.stat().st_size > 6_000_000
        code = (
            "import sys\n"
            "from fleetwarn import core\n"
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"  # over 2 MiB of rows: two ranges
            "try:\n"
            "    core.read_telemetry_csv(sys.argv[1])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        proc = run_python("-c", code, str(path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{path}: line 2: cannot parse 'oops' in column 'p0'\n"
        assert proc.stderr == ""


def _doubled(share):
    """Each number of ``share`` doubled, or None for an empty share."""
    return [2 * x for x in share] or None


def _sending_nothing(share):
    if share:
        os._exit(0)
    return share


def _sending_a_cut_pickle(share):
    if share:
        write = os.write  # patched in this child only: the pickle's last byte is never sent
        core.os.write = lambda fd, data: write(fd, data[:-1]) + 1
    return list(range(100 * share))  # a framed pickle, which a cut leaves truncated


class TestOnCpus:
    """``core._on_cpus`` returns what a loop in one process returns, runs
    each share but the first in a child of its own, and leaves no child."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_results_of_one_loop(self, count):
        shares = [[1, 2], [], [3], [4, 5, 6]][:count]
        assert core._on_cpus("here", "doubling", _doubled, shares) == list(map(_doubled, shares))
        pids = core._on_cpus("here", "naming itself", lambda share: os.getpid(), shares)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == count

    def test_raising_child_prints_its_traceback_and_exits_1(self, capfd):
        def fn(share):
            if share == "child":
                raise RuntimeError("child broke")
            return share

        with pytest.raises(ChildProcessError,
                           match=r"^here: the process failing exited with code 1$"):
            core._on_cpus("here", ["working", "failing"], fn, ["parent", "child"])
        err = capfd.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: child broke\n")

    @pytest.mark.parametrize("fn", [_sending_nothing, _sending_a_cut_pickle])
    def test_child_that_sends_less_than_its_pickle(self, fn):
        with pytest.raises(ChildProcessError,
                           match=r"^here: the process sending exited with code 0$"):
            core._on_cpus("here", "sending", fn, [0, 1])

    def test_failing_share_of_this_process_kills_and_reaps_every_child(self):
        def fn(share):
            if share == 0:
                raise ValueError("this process broke")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="^this process broke$"):
            core._on_cpus("here", "sleeping", fn, [0, 1, 2, 3])
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

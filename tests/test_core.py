import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetwarn.core import (
    AlarmSeries,
    ColumnStats,
    EventRecord,
    MatchParams,
    TelemetryPanel,
    apply_column_stats,
    csv_float,
    fit_column_stats,
    json_number,
    normalize_panel,
    read_events_csv,
    read_scores_csv,
    read_telemetry_csv,
    write_alarms_csv,
    write_csv,
    write_events_csv,
    write_json,
    write_telemetry_csv,
)
from oracles import apply_column_stats_reference, fit_column_stats_reference
from support import write_scores_csv


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
        AlarmSeries(alarm_id=aid, firings={u: frozenset(ts) for u, ts in units.items()})
        for aid, units in sorted(sets.items())
    ]


class TestTelemetryPanel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TelemetryPanel("u", np.arange(3), ("a", "b"), np.zeros((3, 3)))

    def test_flights_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            TelemetryPanel("u", np.array([1, 1, 2]), ("a",), np.zeros((3, 1)))

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

    def test_subvalues_order(self):
        panel = TelemetryPanel(
            "u", np.arange(2), ("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )
        assert panel.subvalues(["b", "a"]).tolist() == [[2.0, 1.0], [4.0, 3.0]]


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


class TestNormalize:
    def test_zscore_known_values(self):
        # mean 4, population std sqrt(8/3)
        panel = make_panel([2.0, 4.0, 6.0])
        out = normalize_panel(panel, np.ones(3, dtype=bool))
        expect = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.allclose(out.values.ravel(), expect, atol=1e-12)

    def test_stats_rows_restrict_reference(self):
        panel = make_panel([0.0, 10.0, 100.0])
        mask = np.array([True, True, False])
        out = normalize_panel(panel, mask)
        # mean 5, std 5 from the first two rows only
        assert np.allclose(out.values.ravel(), [-1.0, 1.0, 19.0])

    def test_constant_column_passes_through_centered(self):
        panel = make_panel([3.0, 3.0, 3.0])
        out = normalize_panel(panel, np.ones(3, dtype=bool))
        assert np.allclose(out.values.ravel(), [0.0, 0.0, 0.0])

    def test_missing_stays_missing(self):
        panel = make_panel([1.0, float("nan"), 3.0])
        out = normalize_panel(panel, np.ones(3, dtype=bool))
        assert math.isnan(out.values[1, 0])
        assert not np.isnan(out.values[[0, 2], 0]).any()

    def test_no_reference_rows_errors(self):
        panel = make_panel([1.0, 2.0])
        with pytest.raises(ValueError, match="no reference rows"):
            normalize_panel(panel, np.zeros(2, dtype=bool))

    def test_all_missing_column_untouched(self):
        panel = make_panel([float("nan"), float("nan")])
        out = normalize_panel(panel, np.ones(2, dtype=bool))
        assert np.isnan(out.values).all()

    def test_fleet_pooled_stats(self):
        a = make_panel([0.0, 2.0], unit="a")
        b = make_panel([4.0, 6.0], unit="b")
        stats = fit_column_stats([a, b], [np.ones(2, bool), np.ones(2, bool)])
        assert stats.mean[0] == pytest.approx(3.0)
        out = apply_column_stats(b, stats)
        assert out.values[1, 0] == pytest.approx((6.0 - 3.0) / stats.std[0])

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
        got = apply_column_stats(panel, ColumnStats(columns, mean, std)).values
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
        mean, std = fit_column_stats_reference(
            np.vstack([p.values[m] for p, m in zip(panels, masks)])
        )
        got = fit_column_stats(panels, masks)
        assert np.array_equal(np.isnan(got.mean), np.isnan(mean))
        observed = ~np.isnan(mean)
        assert got.mean[observed].tobytes() == mean[observed].tobytes()
        assert got.std.tobytes() == std.tobytes()

    def test_fit_warns_of_nothing(self):
        panel = make_panel([[1.0, np.nan], [3.0, np.nan]], columns=("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = fit_column_stats([panel], [np.ones(2, dtype=bool)])
        assert math.isnan(stats.mean[1]) and stats.std[1] == 0.0
        assert (stats.mean[0], stats.std[0]) == (2.0, 1.0)


class TestAlarmSeries:
    def test_signature_skips_empty_units(self):
        alarm = AlarmSeries("a", {"u2": frozenset({3, 1}), "u1": frozenset()})
        assert alarm.signature() == (("u2", (1, 3)),)

    def test_total_firings(self):
        alarm = AlarmSeries("a", {"u": frozenset({1, 2}), "v": frozenset({9})})
        assert alarm.total_firings() == 3


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

    def test_write_csv_golden_bytes(self, tmp_path):
        path = tmp_path / "o.csv"
        write_csv(path, ["a", "b"], [["x,y", ""], ["\u00e9", 'q"']])
        assert path.read_bytes() == 'a,b\n"x,y",\n\u00e9,"q"""\n'.encode("utf-8")

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

    def test_events(self, tmp_path):
        events = [EventRecord("u2", 30, 31, "7100W310"), EventRecord("u1", 5, 8, "E2")]
        path = tmp_path / "e.csv"
        write_events_csv(path, events)
        assert read_events_csv(path) == events

    def test_scores(self, tmp_path):
        scores = {"u1": {1: 0.5, 2: float("nan")}, "u2": {7: 1.25}}
        path = tmp_path / "s.csv"
        write_scores_csv(path, scores)
        back = read_scores_csv(path)
        # NaN rows are written empty-safe and dropped on read
        assert back == {"u1": {1: 0.5}, "u2": {7: 1.25}}

    def test_alarms(self, tmp_path):
        alarms = [
            AlarmSeries("b", {"u1": frozenset({2})}),
            AlarmSeries("a", {"u1": frozenset({1, 3}), "u2": frozenset()}),
        ]
        path = tmp_path / "a.csv"
        write_alarms_csv(path, alarms)
        back = read_alarms_csv(path)
        assert [a.alarm_id for a in back] == ["a", "b"]
        assert back[0].firings_for("u1") == frozenset({1, 3})
        assert path.read_text().splitlines()[0] == "unit_id,flight,alarm_id"

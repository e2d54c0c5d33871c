"""Metamorphic relations of the whole pipeline.

What the method ignores must leave the trained model untouched, bit for bit:
shifting every flight, onset and end by one constant (alarm positions are
relative to each unit's first flight on the fleet axis), the order in which
the units' rows and the events arrive, a rename of the units that keeps their
sort order, and events of a code outside the target prefix.  A shift must
also leave the confusion curve of a score as it is.  None of these relations
regroups the rows or columns of a product or a sum, so they hold exactly.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fleetwarn.cli import main
from fleetwarn.core import EventRecord, MatchParams, write_events_csv, write_telemetry_csv
from fleetwarn.evaluation import Curve, leave_one_unit_out, roc_pr_curves, threshold_baseline
from fleetwarn.matching import stats_to_jsonable
from fleetwarn.pipeline import PipelineConfig, select_target_events, train_model
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet
from fleetwarn.synth import SearchConfig, precursors_to_jsonable

CFG = PipelineConfig(
    match=MatchParams(window=10),
    quantile=0.995,
    normal_before=20,
    normal_after=10,
    search=SearchConfig(filter_kind="soft", theta=1.0),
    code_prefix="E",
)
SHIFTS = (1000, -10**6)
# Prefixed to every unit id: the sorted order of the units stays the same.
PREFIX = "ac-"


def sim(units, seed):
    return SimConfig(
        units=units,
        flights_per_unit=300,
        groups=(GroupSpec(3, 0.9), GroupSpec(3, 0.9), GroupSpec(2, 0.8)),
        planted=(PlantedSpec((0, 1), 3, 6, 9.0),),
        event_rate=2.5,
        seed=seed,
    )


@st.composite
def fleets(draw, units=st.integers(2, 4)):
    try:
        panels, events, _ = generate_fleet(sim(draw(units), draw(st.integers(0, 10**6))))
    except ValueError:  # no normal regime for the simulator's own check
        reject()
    if not events:
        reject()
    return panels, events


def shifted(panels, events, by):
    return (
        [dataclasses.replace(p, flights=p.flights + by) for p in panels],
        [dataclasses.replace(ev, onset=ev.onset + by, end=ev.end + by) for ev in events],
    )


def shuffled(panels, events, seed):
    rng = random.Random(seed)
    return rng.sample(panels, len(panels)), rng.sample(events, len(events))


def renamed(panels, events):
    return (
        [dataclasses.replace(p, unit_id=PREFIX + p.unit_id) for p in panels],
        [dataclasses.replace(ev, unit_id=PREFIX + ev.unit_id) for ev in events],
    )


def with_non_targets(panels, events, seed, count=200):
    """``events`` followed by ``count`` events of the non-target code ``X9``
    on random units and flights."""
    rng = random.Random(seed)
    extra = []
    for _ in range(count):
        panel = rng.choice(panels)
        onset = int(rng.choice(panel.flights))
        extra.append(EventRecord(panel.unit_id, onset, onset + rng.randint(1, 5), "X9"))
    return panels, events + extra


def _json(payload):
    return json.dumps(payload, sort_keys=True)


def model_record(model):
    """Everything ``train_model`` fits, with alarms as positions on the fleet axis."""
    pset = model.precursors
    return {
        "stats": (model.column_stats.mean.tobytes(), model.column_stats.std.tobytes()),
        "groups": model.grouping.groups,
        "detectors": [(d.alarm_id, d.threshold, d.mean.tobytes(), d.basis.tobytes())
                      for d in model.detectors],
        "alarms": [(a.alarm_id, a.positions.tobytes()) for a in model.alarms],
        "precursors": _json(precursors_to_jsonable(pset)),
        "composed": [c.alarm.positions.tobytes() for c in pset.combinations],
        "pooled": pset.pooled_alarm.positions.tobytes(),
    }


def folds_record(result, unit=str):
    """Every fold result of ``leave_one_unit_out`` and the aggregate, with
    each unit id mapped through ``unit``."""
    return _json({
        "folds": [{
            "unit": unit(f.held_out_unit),
            "skipped": f.skipped,
            "stats": f.stats and stats_to_jsonable(f.stats),
            "precursors": f.precursors and precursors_to_jsonable(f.precursors),
            "counts": [f.window_counts, f.segment_counts],
        } for f in result.folds],
        "aggregate": stats_to_jsonable(result.aggregate),
        "skipped": [unit(u) for u in result.skipped_units],
    })


def baseline_scores(panels):
    """Each unit's flights mapped to its first parameter, as ``curves`` scores
    a baseline."""
    return {p.unit_id: dict(zip(p.flights.tolist(),
                                threshold_baseline(p.values[:, 0], "above").tolist()))
            for p in panels}


def curve_record(curve):
    return [getattr(curve, f.name).tobytes() for f in dataclasses.fields(Curve)]


@settings(max_examples=6, deadline=None)
@given(fleets(), st.sampled_from(SHIFTS))
def test_training_ignores_a_shift_of_every_flight(fleet, by):
    panels, events = fleet
    model = train_model(panels, events, CFG)
    moved = train_model(*shifted(panels, events, by), CFG)
    assert model_record(moved) == model_record(model)
    assert moved.layout.axis.first == tuple(f + by for f in model.layout.axis.first)


@settings(max_examples=6, deadline=None)
@given(fleets(), st.integers(0, 2**32 - 1))
def test_training_ignores_the_order_of_units_and_events(fleet, seed):
    panels, events = fleet
    assert model_record(train_model(*shuffled(panels, events, seed), CFG)) == model_record(
        train_model(panels, events, CFG))


@settings(max_examples=3, deadline=None)
@given(fleets(units=st.integers(2, 3)), st.sampled_from(SHIFTS), st.integers(0, 2**32 - 1))
def test_folds_ignore_a_shift_and_the_order_of_units_and_events(fleet, by, seed):
    panels, events = fleet
    expect = folds_record(leave_one_unit_out(panels, events, CFG))
    assert folds_record(leave_one_unit_out(*shifted(panels, events, by), CFG)) == expect
    assert folds_record(leave_one_unit_out(*shuffled(panels, events, seed), CFG)) == expect


@settings(max_examples=4, deadline=None)
@given(fleets())
def test_training_ignores_an_order_preserving_unit_rename(fleet):
    panels, events = fleet
    model = train_model(panels, events, CFG)
    moved = train_model(*renamed(panels, events), CFG)
    assert model_record(moved) == model_record(model)
    assert moved.layout.axis.units == tuple(PREFIX + u for u in model.layout.axis.units)


@settings(max_examples=4, deadline=None)
@given(fleets(), st.integers(0, 2**32 - 1))
def test_training_ignores_non_target_events(fleet, seed):
    panels, events = fleet
    assert model_record(train_model(*with_non_targets(panels, events, seed), CFG)) == (
        model_record(train_model(panels, events, CFG)))


@settings(max_examples=2, deadline=None)
@given(fleets(units=st.integers(2, 3)), st.integers(0, 2**32 - 1))
def test_folds_ignore_a_unit_rename_and_non_target_events(fleet, seed):
    panels, events = fleet
    expect = folds_record(leave_one_unit_out(panels, events, CFG))
    moved = leave_one_unit_out(*renamed(panels, events), CFG)
    assert folds_record(moved, unit=lambda u: u.removeprefix(PREFIX)) == expect
    assert folds_record(leave_one_unit_out(*with_non_targets(panels, events, seed), CFG)) == expect


@settings(max_examples=6, deadline=None)
@given(fleets(), st.sampled_from(SHIFTS), st.integers(0, 5))
def test_curves_ignore_a_shift_of_every_flight(fleet, by, tolerance):
    panels, events = fleet
    targets = select_target_events(events, CFG.code_prefix)
    curve = roc_pr_curves(baseline_scores(panels), targets, tolerance)
    panels, targets = shifted(panels, targets, by)
    assert curve_record(roc_pr_curves(baseline_scores(panels), targets, tolerance)) == (
        curve_record(curve))


def _write(root, panels, events):
    root.mkdir()
    write_telemetry_csv(root / "telemetry.csv", panels)
    write_events_csv(root / "events.csv", events)
    (root / "run.json").write_text(json.dumps({
        "io": {"telemetry": "telemetry.csv", "events": "events.csv"},
        "match": {"w": 10},
        "detect": {"quantile": 0.995, "normal_before": 20, "normal_after": 10},
        "filter": {"kind": "soft", "theta": 1.0},
        "target": {"code_prefix": "E"},
        "eval": {"tolerance": 3},
        "curves": {"baseline_param": panels[0].columns[0]},
    }))
    return root


def _run(root, command="run"):
    """``command`` on the fleet in ``root``: each output file's bytes by relative path."""
    out = root / command
    assert main([command, "--config", str(root / "run.json"), "--out", str(out)]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def cli_fleet(tmp_path_factory):
    panels, events, _ = generate_fleet(sim(4, 7))
    return panels, events, _run(_write(tmp_path_factory.mktemp("plain") / "fleet", panels, events))


def test_cli_run_ignores_a_shift_of_every_flight(cli_fleet, tmp_path):
    panels, events, plain = cli_fleet
    moved = _run(_write(tmp_path / "fleet", *shifted(panels, events, 1000)))
    alarms = [line.split(b",") for line in moved.pop("alarms.csv").splitlines()]
    back = [alarms[0]] + [[u, b"%d" % (int(t) - 1000), a] for u, t, a in alarms[1:]]
    assert len(back) > 1
    assert b"".join(b",".join(row) + b"\n" for row in back) == plain["alarms.csv"]
    assert moved == {name: data for name, data in plain.items() if name != "alarms.csv"}


def test_cli_run_ignores_interleaved_rows_and_shuffled_events(cli_fleet, tmp_path):
    panels, events, plain = cli_fleet
    root = _write(tmp_path / "fleet", panels, random.Random(3).sample(events, len(events)))
    header, *rows = (root / "telemetry.csv").read_text().splitlines()
    # Reverse round-robin over the units, which all have the same flights.
    by_unit = [[r for r in rows if r.startswith(p.unit_id + ",")] for p in reversed(panels)]
    interleaved = [r for turn in zip(*by_unit) for r in turn]
    assert sorted(interleaved) == sorted(rows) != interleaved
    (root / "telemetry.csv").write_text("\n".join([header, *interleaved]) + "\n")
    assert _run(root) == plain


def test_cli_run_ignores_an_order_preserving_unit_rename(cli_fleet, tmp_path):
    panels, events, plain = cli_fleet
    moved = _run(_write(tmp_path / "fleet", *renamed(panels, events)))
    header, *rows = moved.pop("alarms.csv").splitlines(keepends=True)
    assert rows and all(row.startswith(PREFIX.encode()) for row in rows)
    assert header + b"".join(row[len(PREFIX):] for row in rows) == plain["alarms.csv"]
    assert moved == {name: data for name, data in plain.items() if name != "alarms.csv"}


def test_cli_run_ignores_non_target_events(cli_fleet, tmp_path):
    panels, events, plain = cli_fleet
    assert _run(_write(tmp_path / "fleet", *with_non_targets(panels, events, 5))) == plain


def test_cli_curves_ignore_a_shift_of_every_flight(cli_fleet, tmp_path):
    panels, events, _ = cli_fleet
    plain = _run(_write(tmp_path / "plain", panels, events), "curves")
    assert len(plain["curves.csv"].splitlines()) > 2
    assert _run(_write(tmp_path / "moved", *shifted(panels, events, 1000)), "curves") == plain


def test_cli_run_and_crossval_with_a_unit_from_flight_minus_2_63(cli_fleet, tmp_path):
    """One unit's flights moved to start at -2^63, where its shift on the fleet
    axis, start minus first flight, is no int64: every file is as before, and
    ``alarms.csv`` names the moved flights."""
    panels, events, plain = cli_fleet
    unit, first, low = panels[1].unit_id, int(panels[1].flights[0]), -(2**63)
    by = low - first  # no int64 itself
    moved_panels = [dataclasses.replace(p, flights=p.flights - first + low)
                    if p.unit_id == unit else p for p in panels]
    moved_events = [dataclasses.replace(ev, onset=ev.onset + by, end=ev.end + by)
                    if ev.unit_id == unit else ev for ev in events]
    root = _write(tmp_path / "fleet", moved_panels, moved_events)
    moved = _run(root)
    alarms = [line.split(b",") for line in moved.pop("alarms.csv").splitlines()]
    assert any(u == unit.encode() for u, _, _ in alarms[1:])
    back = [alarms[0]] + [[u, b"%d" % (int(t) - by) if u == unit.encode() else t, a]
                          for u, t, a in alarms[1:]]
    assert b"".join(b",".join(row) + b"\n" for row in back) == plain["alarms.csv"]
    assert moved == {name: data for name, data in plain.items() if name != "alarms.csv"}
    assert _run(root, "crossval") == _run(_write(tmp_path / "plain", panels, events), "crossval")

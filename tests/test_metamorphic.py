"""Metamorphic relations of the whole pipeline.

What the method ignores must leave the trained model untouched, bit for bit:
shifting every flight, onset and end by one constant (alarm positions are
relative to each unit's first flight on the fleet axis), and the order in which
the units' rows and the events arrive.  None of these relations regroups the
rows or columns of a product or a sum, so they hold exactly.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fleetwarn.cli import main
from fleetwarn.core import MatchParams, write_events_csv, write_telemetry_csv
from fleetwarn.evaluation import leave_one_unit_out
from fleetwarn.matching import stats_to_jsonable
from fleetwarn.pipeline import PipelineConfig, train_model
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


def folds_record(result):
    """Every fold result of ``leave_one_unit_out`` and the aggregate."""
    return _json({
        "folds": [{
            "unit": f.held_out_unit,
            "skipped": f.skipped,
            "stats": f.stats and stats_to_jsonable(f.stats),
            "precursors": f.precursors and precursors_to_jsonable(f.precursors),
            "counts": [f.window_counts, f.segment_counts],
        } for f in result.folds],
        "aggregate": stats_to_jsonable(result.aggregate),
        "skipped": result.skipped_units,
    })


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
    }))
    return root


def _run(root):
    """``run`` on the fleet in ``root``: each output file's bytes by relative path."""
    assert main(["run", "--config", str(root / "run.json"), "--out", str(root / "out")]) == 0
    return {p.relative_to(root / "out").as_posix(): p.read_bytes()
            for p in sorted((root / "out").rglob("*")) if p.is_file()}


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

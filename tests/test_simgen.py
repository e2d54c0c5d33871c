import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetwarn.core import write_json
from fleetwarn.simgen import (
    GroupSpec,
    PlantedSpec,
    SimConfig,
    generate_fleet,
)
from oracles import verified_q95_reference

QUIET = SimConfig(
    units=2,
    flights_per_unit=3000,
    groups=(GroupSpec(3, 0.9), GroupSpec(2, 0.4)),
    planted=(PlantedSpec((0, 1), 1, 2, 0.0),),
    event_rate=0.0,
    seed=3,
)

BUSY = SimConfig(
    units=6,
    flights_per_unit=400,
    groups=(GroupSpec(4, 0.9), GroupSpec(4, 0.9)),
    planted=(PlantedSpec((0, 1), 5, 15, 6.0),),
    event_rate=2.0,
    seed=21,
)


class TestConfigValidation:
    def test_group_size_floor(self):
        with pytest.raises(ValueError):
            GroupSpec(1, 0.5)

    def test_correlation_range(self):
        with pytest.raises(ValueError):
            GroupSpec(3, 1.0)
        with pytest.raises(ValueError):
            GroupSpec(3, -0.1)

    def test_planted_group_count(self):
        with pytest.raises(ValueError):
            PlantedSpec((0,), 1, 2, 1.0)
        with pytest.raises(ValueError):
            PlantedSpec((0, 0), 1, 2, 1.0)

    def test_lead_range(self):
        with pytest.raises(ValueError):
            PlantedSpec((0, 1), 0, 2, 1.0)
        with pytest.raises(ValueError):
            PlantedSpec((0, 1), 3, 2, 1.0)

    def test_planted_group_ids_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            SimConfig(groups=(GroupSpec(2, 0.5),), planted=(PlantedSpec((0, 1), 1, 2, 1.0),))

    def test_spacing_definition(self):
        assert BUSY.min_spacing() == 2 * (15 + 10)
        assert BUSY.max_lead() == 15


class TestDeterminism:
    def test_same_seed_same_fleet(self):
        p1, e1, m1 = generate_fleet(BUSY)
        p2, e2, m2 = generate_fleet(BUSY)
        assert e1 == e2
        assert m1 == m2
        for a, b in zip(p1, p2):
            assert a.unit_id == b.unit_id
            assert a.values.tobytes() == b.values.tobytes()

    def test_different_seed_differs(self):
        import dataclasses

        p1, _, _ = generate_fleet(BUSY)
        p2, _, _ = generate_fleet(dataclasses.replace(BUSY, seed=22))
        assert p1[0].values.tobytes() != p2[0].values.tobytes()

    def test_unit_streams_independent_of_count(self):
        import dataclasses

        few, _, _ = generate_fleet(dataclasses.replace(QUIET, units=1))
        more, _, _ = generate_fleet(QUIET)
        assert few[0].values.tobytes() == more[0].values.tobytes()


class TestStatisticalShape:
    def test_within_group_correlation(self):
        panels, _, _ = generate_fleet(QUIET)
        cols = QUIET.group_columns()
        for panel in panels:
            for g, spec in enumerate(QUIET.groups):
                block = panel.values[:, [panel.columns.index(n) for n in cols[g]]]
                corr = np.corrcoef(block.T)
                for i, j in itertools.combinations(range(spec.size), 2):
                    assert corr[i, j] == pytest.approx(spec.correlation, abs=0.05)

    def test_cross_group_correlation_small(self):
        panels, _, _ = generate_fleet(QUIET)
        cols = QUIET.group_columns()
        for panel in panels:
            a = panel.values[:, panel.columns.index(cols[0][0])]
            b = panel.values[:, panel.columns.index(cols[1][0])]
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.15

    def test_unit_variance(self):
        panels, _, _ = generate_fleet(QUIET)
        stds = panels[0].values.std(axis=0)
        assert np.all(np.abs(stds - 1.0) < 0.1)

    def test_phases_and_flights(self):
        panels, _, _ = generate_fleet(QUIET)
        panel = panels[0]
        assert panel.phases == ("cruise",) * QUIET.flights_per_unit
        assert panel.flights[0] == 1
        assert panel.flights[-1] == QUIET.flights_per_unit


class TestEvents:
    def test_event_shape(self):
        _, events, _ = generate_fleet(BUSY)
        assert events
        for ev in events:
            assert ev.end == ev.onset + 1
            assert ev.code == BUSY.event_code

    def test_onset_domain_and_spacing(self):
        _, events, _ = generate_fleet(BUSY)
        lo = BUSY.max_lead() + 1
        by_unit: dict[str, list[int]] = {}
        for ev in events:
            assert lo <= ev.onset <= BUSY.flights_per_unit
            by_unit.setdefault(ev.unit_id, []).append(ev.onset)
        for onsets in by_unit.values():
            assert onsets == sorted(onsets)
            for a, b in zip(onsets, onsets[1:]):
                assert b - a >= BUSY.min_spacing()

    def test_overcrowded_timeline_rejected(self):
        cramped = SimConfig(
            units=1,
            flights_per_unit=60,
            groups=(GroupSpec(2, 0.5),),
            planted=(),
            event_rate=50.0,
            seed=0,
        )
        with pytest.raises(ValueError, match="cannot fit"):
            generate_fleet(cramped)

    def test_lead_too_long_for_timeline(self):
        with pytest.raises(ValueError, match="too short"):
            generate_fleet(
                SimConfig(
                    units=1,
                    flights_per_unit=10,
                    groups=(GroupSpec(2, 0.5), GroupSpec(2, 0.5)),
                    planted=(PlantedSpec((0, 1), 15, 20, 1.0),),
                    event_rate=1.0,
                    seed=0,
                )
            )


class TestInjection:
    def test_anomaly_bookkeeping(self):
        _, events, manifest = generate_fleet(BUSY)
        anomalies = manifest["anomalies"]
        assert len(anomalies) == len(events) * len(BUSY.planted)
        onsets = {(ev.unit_id, ev.onset) for ev in events}
        for a in anomalies:
            assert (a["unit"], a["event_onset"]) in onsets
            assert BUSY.planted[a["spec"]].lead_lo <= a["lead"] <= BUSY.planted[a["spec"]].lead_hi
            assert a["flight"] == a["event_onset"] - a["lead"]
            assert a["flight"] >= 1

    def test_magnitude_difference_is_surgical(self):
        import dataclasses

        zero = dataclasses.replace(
            BUSY, planted=(PlantedSpec((0, 1), 5, 15, 0.0),)
        )
        p0, e0, m0 = generate_fleet(zero)
        p6, e6, m6 = generate_fleet(BUSY)
        assert e0 == e6  # magnitude does not perturb the draws
        assert m0["anomalies"] == m6["anomalies"]

        shift = BUSY.planted[0].magnitude / math.sqrt(2.0)
        cols = BUSY.all_columns()
        group_cols = BUSY.group_columns()
        expected: dict[tuple[str, int, int], float] = {}
        for a in m6["anomalies"]:
            row = a["flight"] - 1
            for g in BUSY.planted[a["spec"]].groups:
                j0 = cols.index(group_cols[g][0])
                j1 = cols.index(group_cols[g][1])
                key0 = (a["unit"], row, j0)
                key1 = (a["unit"], row, j1)
                expected[key0] = expected.get(key0, 0.0) + shift
                expected[key1] = expected.get(key1, 0.0) - shift

        for clean, dirty in zip(p0, p6):
            diff = dirty.values - clean.values
            nonzero = {
                (clean.unit_id, int(r), int(c)): diff[r, c]
                for r, c in zip(*np.nonzero(diff))
            }
            want = {k: v for k, v in expected.items() if k[0] == clean.unit_id}
            assert nonzero.keys() == want.keys()
            for k, v in want.items():
                assert nonzero[k] == pytest.approx(v, rel=1e-12)

    def test_planted_flights_verified_detectable(self):
        manifest = generate_fleet(BUSY)[2]
        assert manifest["verified_q95"] is True

    # At 0.75 some planted flights of each group fire and others do not.
    @pytest.mark.parametrize("magnitude, verified", [(0.0, False), (0.75, False), (1.0, True)])
    def test_verified_only_when_every_planted_flight_fires(self, magnitude, verified):
        cfg = SimConfig(units=4, flights_per_unit=300,
                        planted=(PlantedSpec((0, 1), 5, 15, magnitude),), seed=1)
        panels, events, manifest = generate_fleet(cfg)
        assert manifest["verified_q95"] is verified
        assert verified_q95_reference(cfg, panels, events, manifest["anomalies"]) is verified

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
    def test_verified_equals_the_stacked_reference(self, seed, magnitude):
        """At magnitudes around the detection limit some planted flights fire and others
        do not, so the check must hold for every one of them."""
        cfg = SimConfig(units=4, flights_per_unit=400, event_rate=1.0,
                        planted=(PlantedSpec((0, 1), 5, 15, magnitude),), seed=seed)
        panels, events, manifest = generate_fleet(cfg)
        assert manifest["verified_q95"] is verified_q95_reference(
            cfg, panels, events, manifest["anomalies"])


class TestManifest:
    def test_structure(self):
        _, _, manifest = generate_fleet(BUSY)
        assert manifest["seed"] == BUSY.seed
        assert manifest["units"] == BUSY.units
        assert manifest["flights_per_unit"] == BUSY.flights_per_unit
        assert manifest["event_code"] == BUSY.event_code
        assert manifest["groups"][0] == {
            "columns": ["g0p0", "g0p1", "g0p2", "g0p3"],
            "correlation": 0.9,
        }
        planted = manifest["planted"][0]
        assert planted["groups"] == [["g0p0", "g0p1", "g0p2", "g0p3"], ["g1p0", "g1p1", "g1p2", "g1p3"]]
        assert planted["lead_range"] == [5, 15]
        assert planted["magnitude"] == 6.0
        assert len(manifest["events"]) > 0

    def test_written_manifest_parses(self, tmp_path):
        _, _, manifest = generate_fleet(BUSY)
        path = tmp_path / "manifest.json"
        write_json(path, manifest)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == manifest

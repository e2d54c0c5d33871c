"""Acceptance suite: one timed verdict per shipping criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single [PASS]/[FAIL] line (run with -s to see them live; on a
failure the line lands in the captured output).  Finer-grained coverage of
the same code lives in the per-module test files.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations as subsets

import numpy as np

from fleetwarn.cli import main
from fleetwarn.core import EventRecord, MatchParams, TelemetryPanel
from fleetwarn.detect import fit_subspace_from_rows, fit_threshold, score_reconstruction
from fleetwarn.evaluation import (
    leave_one_unit_out,
    roc_pr_curves,
    threshold_baseline,
)
from fleetwarn.matching import layout_periods, match_stats
from fleetwarn.pipeline import PipelineConfig, train_model
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet
from fleetwarn.synth import (
    SearchConfig,
    compose_and,
    pool_or,
)

from oracles import brute_force_match, exact_max_matching
from support import alarm_series, precision_at_recall

COUNTERS = (
    "window_events",
    "false_segments",
    "true_firings",
    "false_firings",
    "irrelevant_firings",
    "covered_events",
    "fired_false_segments",
)


@contextmanager
def verdict(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"[PASS] {name} ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_metric_oracle_equivalence():
    rng = random.Random(1001)
    with verdict("criterion 1: counters match brute force on 1000 random instances in <10s"):
        t0 = time.monotonic()
        graded = 0
        while graded < 1000:
            n_units = rng.randint(1, 2)
            budget = rng.randint(1, 3)
            ranges = {}
            firings = {}
            events = []
            records = []
            for u in range(n_units):
                unit = f"u{u}"
                first = rng.randint(0, 4)
                last = first + rng.randint(3, 48)
                ranges[unit] = (first, last)
                n_ev = rng.randint(0, budget)
                budget -= n_ev
                for k in range(n_ev):
                    # onsets may fall outside the range to exercise clipping
                    onset = rng.randint(first - 6, last + 6)
                    end = onset + rng.randint(1, 4)
                    events.append((unit, onset, end))
                    records.append(EventRecord(unit, onset, end, f"E{k}"))
                firings[unit] = set(
                    rng.sample(range(first, last + 1), rng.randint(0, min(12, last - first + 1)))
                )
            params = MatchParams(
                window=rng.randint(1, 10),
                horizon=rng.randint(0, 3),
                delay=rng.randint(0, 3),
            )
            layout = layout_periods(records, params, ranges)
            if layout.total_window_events() == 0:
                continue
            stats = match_stats(alarm_series("a", firings, layout.axis), layout)
            ref = brute_force_match(events, params, ranges, firings)
            for key in COUNTERS:
                assert getattr(stats, key) == ref[key], key
            graded += 1
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_planted_precursor_recovery():
    with verdict("criterion 2: default fleet recovers the planted pair, LOOCV cf>=0.8, in <60s"):
        t0 = time.monotonic()
        panels, events, _ = generate_fleet(SimConfig(), verify=False)
        cfg = PipelineConfig(
            match=MatchParams(window=20),
            quantile=0.9995,
            search=SearchConfig(filter_kind="hard", theta=2.0),
        )
        model = train_model(panels, events, cfg)
        planted = tuple(sorted(
            "pca[{}]r1q0.9995".format("+".join(f"g{g}p{i}" for i in range(5)))
            for g in (0, 1)
        ))
        assert planted in [c.members for c in model.precursors.combinations]
        # hard-filter guarantee: the pooled training signal never fires falsely
        assert model.precursors.pooled_stats.false_firings == 0
        result = leave_one_unit_out(panels, events, cfg)
        assert result.aggregate.coverage >= 0.8
        assert result.aggregate.false_to_covered <= 1.0
        assert time.monotonic() - t0 < 60.0


def test_criterion_3_subspace_identities():
    rng = np.random.default_rng(1003)
    cols = tuple("abcde")
    with verdict("criterion 3: rank-r error = trailing eigenvalue sum, orthonormal basis"):
        for _ in range(25):
            n = int(rng.integers(50, 300))
            rows = rng.normal(size=(n, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
            panel = TelemetryPanel("u", np.arange(1, n + 1), cols, rows)
            eigvals = np.linalg.eigvalsh(np.cov(rows.T, bias=True))[::-1]
            for rank in range(1, 6):
                det = fit_subspace_from_rows(rows, cols, rank)
                gram = det.basis.T @ det.basis
                assert np.max(np.abs(gram - np.eye(rank))) <= 1e-9
                errors = score_reconstruction(det, panel)
                if rank == 5:
                    assert float(np.max(errors)) <= 1e-9
                else:
                    expect = float(eigvals[rank:].sum())
                    assert math.isclose(float(np.mean(errors)), expect, rel_tol=1e-6)


def test_criterion_4_quantile_contract():
    rng = np.random.default_rng(1004)
    with verdict("criterion 4: flagged fraction <= 1-q+1/N for q in {0.90, 0.95, 0.99}"):
        for trial in range(100):
            n = int(rng.integers(20, 400))
            kind = trial % 3
            if kind == 0:
                scores = rng.normal(size=n)
            elif kind == 1:
                scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            else:
                scores = rng.exponential(size=n)
            for q in (0.90, 0.95, 0.99):
                thr = fit_threshold(scores, q)
                flagged = float(np.mean(scores > thr))
                assert flagged <= 1.0 - q + 1.0 / n + 1e-12


def test_criterion_5_boolean_algebra_laws():
    rng = random.Random(1005)
    with verdict("criterion 5: AND subset, OR superset, pooled cf >= member cf on 500 pools"):
        pools = 0
        while pools < 500:
            params = MatchParams(
                window=rng.randint(2, 8),
                horizon=rng.randint(0, 2),
                delay=rng.randint(0, 2),
            )
            n_units = rng.randint(1, 2)
            ranges = {}
            records = []
            for u in range(n_units):
                unit = f"u{u}"
                first = rng.randint(0, 3)
                last = first + rng.randint(20, 60)
                ranges[unit] = (first, last)
                onset = rng.randint(first + params.window + params.horizon, last)
                records.append(EventRecord(unit, onset, onset + 1, "E1"))
            layout = layout_periods(records, params, ranges)
            if layout.total_window_events() == 0:
                continue
            alarms = []
            for k in range(rng.randint(2, 4)):
                firings = {
                    unit: frozenset(
                        rng.sample(range(lo, hi + 1), rng.randint(0, min(14, hi - lo + 1)))
                    )
                    for unit, (lo, hi) in ranges.items()
                }
                alarms.append(alarm_series(f"a{k}", firings, layout.axis))
            for size in (2, 3):
                for members in subsets(alarms, size):
                    composed = compose_and(members)
                    for member in members:
                        for unit in ranges:
                            assert composed.firings_for(unit) <= member.firings_for(unit)
            pooled = pool_or(alarms, layout.axis)
            for alarm in alarms:
                for unit in ranges:
                    assert pooled.firings_for(unit) >= alarm.firings_for(unit)
            pooled_cf = match_stats(pooled, layout).coverage
            assert pooled_cf >= max(match_stats(a, layout).coverage for a in alarms) - 1e-12
            pools += 1


def test_criterion_6_curve_tp_equals_exact_matching():
    rng = random.Random(1006)
    with verdict("criterion 6: every curve point's tp equals the exact matching oracle"):
        for _ in range(200):
            n_units = rng.randint(1, 2)
            scores = {}
            onsets = {}
            records = []
            budget = rng.randint(1, 3)
            for u in range(n_units):
                unit = f"u{u}"
                n = rng.randint(4, 10)
                series = {}
                for t in range(n):
                    series[t] = float("nan") if rng.random() < 0.1 else float(rng.randint(0, 4))
                n_ev = rng.randint(0, budget) if u < n_units - 1 else budget
                budget -= n_ev
                unit_onsets = rng.sample(range(n), min(n_ev, n))
                if unit_onsets and all(math.isnan(s) for s in series.values()):
                    series[0] = 1.0  # the curve needs at least one scored flight here
                scores[unit] = series
                onsets[unit] = sorted(unit_onsets)
                for onset in unit_onsets:
                    records.append(EventRecord(unit, onset, onset + 1, "E1"))
            if not records:
                continue
            for tolerance in (0, 1, 2):
                points = roc_pr_curves(scores, records, tolerance)
                for point in points:
                    tp = 0
                    for unit, series in scores.items():
                        flags = [
                            t for t, s in series.items()
                            if not math.isnan(s) and s >= point.nu
                        ]
                        tp += exact_max_matching(flags, onsets[unit], tolerance)
                    assert point.tp == tp, (point.nu, tolerance)


def test_criterion_7_conjunction_beats_single_parameter_baseline():
    with verdict("criterion 7: pooled signal beats best single-parameter baseline by >=0.05"):
        sim = SimConfig(
            units=12,
            flights_per_unit=300,
            groups=tuple(GroupSpec(5, 0.8) for _ in range(4)),
            # each parameter shifts by 2 sigma; only the two-group pattern is diagnostic
            planted=(PlantedSpec((0, 1), 1, 2, 2.0 * math.sqrt(2)),),
            event_rate=1.2,
            seed=3,
        )
        panels, events, _ = generate_fleet(sim, verify=False)
        cfg = PipelineConfig(
            match=MatchParams(window=5),
            quantile=0.999,
            search=SearchConfig(filter_kind="hard", theta=2.0),
        )
        model = train_model(panels, events, cfg)
        pooled = model.precursors.pooled_alarm
        pooled_scores = {
            p.unit_id: {
                int(t): 1.0 if int(t) in pooled.firings_for(p.unit_id) else 0.0
                for t in p.flights
            }
            for p in panels
        }
        tolerance = 2  # planted leads run 1..2 flights ahead of onset
        pooled_precision = precision_at_recall(
            roc_pr_curves(pooled_scores, events, tolerance), 0.5
        )
        best_baseline = 0.0
        for col in panels[0].columns:
            for direction in ("above", "below"):
                series = {
                    p.unit_id: {
                        int(t): float(v)
                        for t, v in zip(
                            p.flights,
                            threshold_baseline(p.values[:, p.column_index(col)], direction),
                        )
                    }
                    for p in panels
                }
                best_baseline = max(
                    best_baseline,
                    precision_at_recall(roc_pr_curves(series, events, tolerance), 0.5),
                )
        assert pooled_precision - best_baseline >= 0.05


def test_criterion_8_cli_determinism(tmp_path):
    with verdict("criterion 8: run/crossval outputs byte-identical across reruns and workers"):
        fleet = tmp_path / "fleet"
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({"sim": {
            "units": 5,
            "flights_per_unit": 300,
            "groups": [[4, 0.9], [4, 0.9], [3, 0.9]],
            "planted": [{"groups": [0, 1], "lead": [3, 6], "magnitude": 9.0}],
            "event_rate": 2.5,
            "seed": 15,
        }}) + "\n")
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(fleet)]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({
            "io": {
                "telemetry": str(fleet / "telemetry.csv"),
                "events": str(fleet / "events.csv"),
            },
            "match": {"w": 10},
            "detect": {"quantile": 0.999},
            "filter": {"kind": "soft", "theta": 1.0},
        }) + "\n")

        def snapshot(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        for command in ("run", "crossval"):
            snaps = []
            for tag, workers in (("a", 1), ("b", 1), ("w4", 4)):
                out = tmp_path / f"{command}_{tag}"
                code = main([
                    command, "--config", str(run_cfg),
                    "--out", str(out), "--workers", str(workers),
                ])
                assert code == 0
                snaps.append(snapshot(out))
            assert snaps[0] == snaps[1], f"{command}: rerun differs"
            assert snaps[0] == snaps[2], f"{command}: worker count changed output"

"""The benchmark's workloads and the checks on their outputs.

Each workload is a simulated fleet (the ``sim`` config section; the seed
comes from the benchmark's ``--seed`` through ``simulate --seed``), a run
config, and the one CLI command a user would wait for.  The sizes are chosen
so that each workload puts a different layer on top of the profile; ``why``
says which.  Event counts are Poisson per unit, so a workload's work moves
with the seed: the workloads either have several hundred events (relative
spread about 1/sqrt(events)) or a cost that depends little on them, and no
unit's draw comes near the most events its timeline can hold.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

# The README's run.json: window 20, rank-1 detectors at q=0.9995, Pearson
# grouping at 0.7, hard filter with theta 2, target codes starting with E.
README_RUN = {
    "match": {"w": 20, "h": 0, "m": 0},
    "detect": {"rank": 1, "quantile": 0.9995},
    "grouping": {"measure": "pearson", "rho": 0.7},
    "filter": {"kind": "hard", "theta": 2, "alpha": 0.05, "max_size": 2},
    "target": {"code_prefix": "E"},
}


def _planted(pairs, lead=(5, 15), magnitude=6.0):
    return [{"groups": list(p), "lead": list(lead), "magnitude": magnitude} for p in pairs]


# The README's fleet.json.  The CLI sim section plants nothing by default,
# unlike SimConfig(), so the planted pair is spelled out.
LOOCV_SIM = {
    "units": 16,
    "flights_per_unit": 500,
    "groups": [[5, 0.9]] * 8,
    "planted": _planted([(0, 1)]),
    "event_rate": 1.5,
}
LOOCV_SMOKE = {"units": 6, "flights_per_unit": 400, "groups": [[3, 0.9]] * 3, "event_rate": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" | "crossval" | "curves"
    sim: dict
    run: dict
    workers: int = 1
    # Smaller fleet for the benchmark's self-tests: same shape, seconds to run.
    smoke_sim: dict = field(default_factory=dict)

    def smoke(self) -> "Workload":
        return replace(self, sim={**self.sim, **self.smoke_sim})

    def run_config(self) -> dict:
        io = {"telemetry": "fleet/telemetry.csv", "events": "fleet/events.csv"}
        return {"io": io, **self.run}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loocv-default",
            why="README fleet through leave-one-unit-out: 16 fold retrains on small data, "
            "dominated by pairwise dependence per fold",
            command="crossval",
            sim=LOOCV_SIM,
            run=README_RUN,
            smoke_sim=LOOCV_SMOKE,
        ),
        Workload(
            name="loocv-w2",
            why="loocv-default with --workers 2: shows whether fold-level parallelism pays "
            "on two cores; outputs must equal the one-worker run",
            command="crossval",
            sim=LOOCV_SIM,
            run=README_RUN,
            workers=2,
            smoke_sim=LOOCV_SMOKE,
        ),
        Workload(
            name="run-wide",
            why="120 parameters in 24 groups, few events: O(P^2) dependence and CSV ingest "
            "dominate run, the search is negligible",
            command="run",
            sim={
                "units": 8,
                "flights_per_unit": 1000,
                "groups": [[5, 0.9]] * 24,
                "planted": _planted([(0, 1)]),
                "event_rate": 1.5,
            },
            run=README_RUN,
            smoke_sim={
                "units": 4, "flights_per_unit": 600, "groups": [[3, 0.9]] * 4, "event_rate": 3,
            },
        ),
        Workload(
            name="search-dense",
            why="20 small groups, 10 planted pairs, about 480 events, soft filter with "
            "triples: grading 1350 candidates in matching and synth dominates run",
            command="run",
            sim={
                "units": 12,
                "flights_per_unit": 2000,
                "groups": [[2, 0.9]] * 20,
                "planted": _planted([(2 * i, 2 * i + 1) for i in range(10)], lead=(1, 3)),
                "event_rate": 40,
            },
            run={
                **README_RUN,
                "detect": {"rank": 1, "quantile": 0.995},
                "filter": {"kind": "soft", "theta": 50, "alpha": 0.05, "max_size": 3},
            },
            smoke_sim={
                "units": 6,
                "flights_per_unit": 800,
                "groups": [[2, 0.9]] * 6,
                "planted": _planted([(2 * i, 2 * i + 1) for i in range(3)], lead=(1, 3)),
                "event_rate": 12,
            },
        ),
        Workload(
            name="curves-sweep",
            why="16 units with about 480 events, one raw parameter swept as a baseline: the "
            "per-threshold rematching in evaluation dominates curves",
            command="curves",
            sim={
                "units": 16,
                "flights_per_unit": 2000,
                "groups": [[2, 0.9]] * 2,
                "planted": _planted([(0, 1)], lead=(1, 3)),
                "event_rate": 30,
            },
            run={
                "target": {"code_prefix": "E"},
                "eval": {"tolerance": 5},
                "curves": {"baseline_param": "g0p0"},
            },
            smoke_sim={"units": 8, "flights_per_unit": 300, "event_rate": 3},
        ),
    )
}


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _alarm_group(alarm_id: str) -> tuple[str, ...]:
    match = re.fullmatch(r"pca\[(.*)\]r\d+q.*", alarm_id)
    if match is None:
        raise ValueError(f"unexpected alarm id {alarm_id!r}")
    return tuple(match.group(1).split("+"))


def check_run(wl: Workload, fleet: Path, out: Path) -> list[str]:
    manifest = read_json(fleet / "manifest.json")
    problems = []
    layout = sorted(sorted(g["columns"]) for g in manifest["groups"])
    if sorted(read_json(out / "groups.json")["groups"]) != layout:
        problems.append("groups.json differs from the simulated group layout")
    precursors = read_json(out / "precursors.json")
    member_sets = [
        {_alarm_group(m) for m in c["members"]} for c in precursors["combinations"]
    ]
    # Duplicates keep the smallest member set, so one planted group's alarm
    # stands for the pair when both fire on exactly the same flights.
    for spec in manifest["planted"]:
        planted = {tuple(g) for g in spec["groups"]}
        if not any(members <= planted for members in member_sets):
            problems.append(f"planted pair {spec['groups']} is not among the precursors")
    if wl.run["filter"]["kind"] == "hard" and precursors["pooled"]["stats"]["false_firings"]:
        problems.append("hard-filtered pooled signal has false firings")
    return problems


def check_crossval(wl: Workload, fleet: Path, out: Path) -> list[str]:
    units = read_json(fleet / "manifest.json")["units"]
    agg = read_json(out / "aggregate.json")
    problems = []
    if agg["folds_evaluated"] + len(agg["skipped_units"]) != units:
        problems.append("evaluated plus skipped folds differ from the unit count")
    coverage = agg["aggregate"]["coverage"]
    if coverage is None or coverage < 0.8:
        problems.append(f"aggregate coverage {coverage} below 0.8")
    return problems


def _distinct_values(telemetry: Path, column: str) -> int:
    with open(telemetry, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        j = next(reader).index(column)
        values = {float(row[j]) for row in reader if row and row[j] != ""}
    return sum(1 for v in values if not math.isnan(v))


def check_curves(wl: Workload, fleet: Path, out: Path) -> list[str]:
    prefix = wl.run["target"]["code_prefix"]
    with open(fleet / "events.csv", newline="", encoding="utf-8") as fh:
        n_events = sum(1 for row in csv.DictReader(fh) if row["code"].startswith(prefix))
    with open(out / "curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    tps = [int(r["tp"]) for r in rows]
    nus = [float(r["nu"]) for r in rows]
    if any(b >= a for a, b in zip(nus, nus[1:])):
        problems.append("curve thresholds are not strictly descending")
    if any(b < a for a, b in zip(tps, tps[1:])):
        problems.append("tp decreases as the threshold falls")
    if any(int(r["tp"]) + int(r["fn"]) != n_events for r in rows):
        problems.append("tp + fn differs from the event count")
    distinct = _distinct_values(fleet / "telemetry.csv", wl.run["curves"]["baseline_param"])
    if len(rows) != distinct + 1:
        problems.append(f"{len(rows)} curve rows for {distinct} distinct scores")
    return problems


CHECKS = {"run": check_run, "crossval": check_crossval, "curves": check_curves}


def check_outputs(wl: Workload, fleet: Path, out: Path) -> list[str]:
    """Problems with one command's output tree; empty when it is correct."""
    try:
        return CHECKS[wl.command](wl, fleet, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = sorted(str(p) for p in files_a ^ files_b)
    diffs += sorted(
        str(p) for p in files_a & files_b if not filecmp.cmp(a / p, b / p, shallow=False)
    )
    return diffs

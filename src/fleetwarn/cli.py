"""Command-line entry point.

Four commands over one JSON config file:

* ``simulate``  generate a synthetic fleet with ground truth
* ``run``       train the pipeline and write the precursor report
* ``crossval``  leave-one-unit-out evaluation
* ``curves``    confusion curves for a score source with flight tolerance

Exit codes: 0 success, 2 input/config error, 3 empty precursor set,
4 no target events.  All commands are deterministic: the only randomness is
the simulate seed.  The whole config is validated when it is loaded, before
any input file is read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from fleetwarn.core import (
    MatchParams,
    NoTargetEventsError,
    json_number,
    read_events_csv,
    read_scores_csv,
    read_telemetry_csv,
    write_alarms_csv,
    write_events_csv,
    write_telemetry_csv,
)
from fleetwarn.core import write_json as _write_json
from fleetwarn.detect import write_detector_json
from fleetwarn.evaluation import (
    CurvePoint,
    leave_one_unit_out,
    operating_point,
    roc_pr_curves,
    threshold_baseline,
    write_curves_csv,
)
from fleetwarn.grouping import write_groups_json
from fleetwarn.matching import match_stats, stats_to_jsonable
from fleetwarn.pipeline import PipelineConfig, select_target_events, train_model
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet
from fleetwarn.synth import SearchConfig, precursors_to_jsonable, write_precursors_json


class ConfigError(ValueError):
    """The config file is malformed or missing required keys."""


_SCHEMA: dict[str, tuple[str, ...]] = {
    "io": ("telemetry", "events", "outdir", "scores"),
    "match": ("w", "h", "m"),
    "detect": ("rank", "quantile", "quantile_overrides", "normal_before", "normal_after"),
    "grouping": ("measure", "rho"),
    "filter": ("kind", "alpha", "theta", "max_size"),
    "target": ("code_prefix",),
    "eval": ("tolerance",),
    "sim": (
        "units",
        "flights_per_unit",
        "groups",
        "planted",
        "event_rate",
        "seed",
        "event_code",
    ),
    "curves": ("baseline_param", "baseline_direction"),
}


def _check_keys(raw: Mapping[str, Any]) -> None:
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in body:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")


# Config keys named differently from their dataclass fields.
_FIELD_NAMES = {"w": "window", "h": "horizon", "m": "delay", "kind": "filter_kind"}
# What a typed key must hold, as its refusal names it.
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _coerce(key: str, value: Any, kind: type) -> Any:
    """Config ``key``'s ``value`` as ``kind``: no kind takes a bool, a number
    takes no string and an int no fraction."""
    if (
        isinstance(value, bool)
        or kind is not str and isinstance(value, str)
        or kind is int and isinstance(value, float) and value % 1
    ):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
    return kind(value)


def _build(cls: type, raw: Mapping[str, Any], *sections: str, **fixed: Any) -> Any:
    """Dataclass ``cls`` from the keys of the config ``sections`` plus ``fixed``.

    Keys whose field is an int, float or str are coerced to that type; the
    rest are left to ``fixed``.  Absent keys are left out, so every default
    lives only in its dataclass.
    """
    types = get_type_hints(cls)
    typed = {}
    for section in sections:
        for key, value in raw.get(section, {}).items():
            name = _FIELD_NAMES.get(key, key)
            if types.get(name) in (int, float, str):
                typed[name] = _coerce(f"{section}.{key}", value, types[name])
    return cls(**typed, **fixed)


class RunConfig:
    """Typed view of the JSON config; absent keys take their dataclass defaults.

    Relative paths resolve against the config file's directory; ``pipeline``
    holds every training setting, validated here.
    """

    def __init__(self, raw: Mapping[str, Any], base_dir: Path):
        _check_keys(raw)
        self.base_dir = base_dir
        io = raw.get("io", {})
        self.telemetry = self._path(io.get("telemetry"))
        self.events = self._path(io.get("events"))
        self.outdir = self._path(io.get("outdir"))
        self.scores = self._path(io.get("scores"))
        overrides = raw.get("detect", {}).get("quantile_overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("detect.quantile_overrides must be an object")
        try:
            self.pipeline = _build(
                PipelineConfig, raw, "detect", "grouping", "target",
                match=_build(MatchParams, raw, "match"),
                search=_build(SearchConfig, raw, "filter"),
                quantile_overrides={str(k): float(v) for k, v in overrides.items()},
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        curves = raw.get("curves", {})
        self.tolerance = _coerce("eval.tolerance", raw.get("eval", {}).get("tolerance", 2), int)
        if self.tolerance < 0:
            raise ConfigError(f"eval.tolerance must be >= 0, got {self.tolerance}")
        self.baseline_param = curves.get("baseline_param")
        self.baseline_direction = str(curves.get("baseline_direction", "above"))
        if self.baseline_direction not in ("above", "below"):
            raise ConfigError(
                f"curves.baseline_direction must be 'above' or 'below', "
                f"got {self.baseline_direction!r}"
            )
        self.sim_raw = raw.get("sim")

    def _path(self, value: Any) -> Path | None:
        if value is None:
            return None
        return (self.base_dir / str(value)).resolve()

    def sim_config(self, seed_override: int | None) -> SimConfig:
        raw = self.sim_raw
        if raw is None:
            raise ConfigError("simulate needs a 'sim' config section")
        try:
            # Unlike SimConfig(), the CLI plants nothing unless asked to.
            planted = tuple(
                PlantedSpec(
                    groups=tuple(int(g) for g in spec["groups"]),
                    lead_lo=int(spec["lead"][0]),
                    lead_hi=int(spec["lead"][1]),
                    magnitude=float(spec["magnitude"]),
                )
                for spec in raw.get("planted", [])
            )
            fixed: dict[str, Any] = {"planted": planted}
            if "groups" in raw:
                fixed["groups"] = tuple(
                    GroupSpec(int(size), float(corr)) for size, corr in raw["groups"]
                )
            body = raw if seed_override is None else {**raw, "seed": seed_override}
            return _build(SimConfig, {"sim": body}, "sim", **fixed)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sim config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    p = Path(path)
    try:
        with open(p, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig(raw, p.parent.resolve())


def _require(cfg: RunConfig, **paths: Path | None) -> None:
    for name, value in paths.items():
        if value is None:
            raise ConfigError(f"config is missing io.{name}")


def cmd_simulate(cfg: RunConfig, seed: int | None, out: Path) -> int:
    sim = cfg.sim_config(seed)
    panels, events, manifest = generate_fleet(sim)
    out.mkdir(parents=True, exist_ok=True)
    write_telemetry_csv(out / "telemetry.csv", panels)
    write_events_csv(out / "events.csv", events)
    _write_json(out / "manifest.json", manifest)
    return 0


def _load_fleet(cfg: RunConfig):
    _require(cfg, telemetry=cfg.telemetry, events=cfg.events)
    panels = read_telemetry_csv(cfg.telemetry)
    events = read_events_csv(cfg.events)
    if not panels:
        raise ConfigError(f"{cfg.telemetry}: no telemetry rows")
    for key in cfg.pipeline.quantile_overrides:
        if key not in panels[0].columns:
            raise ConfigError(f"detect.quantile_overrides key {key!r} is not a telemetry column")
    return panels, events


def cmd_run(cfg: RunConfig, out: Path) -> int:
    panels, events = _load_fleet(cfg)
    model = train_model(panels, events, cfg.pipeline)
    out.mkdir(parents=True, exist_ok=True)
    det_dir = out / "detectors"
    det_dir.mkdir(exist_ok=True)
    for det in model.detectors:
        write_detector_json(det_dir / f"{det.group[0]}.json", det)
    write_groups_json(out / "groups.json", model.grouping, cfg.pipeline.measure)
    composed = [c.alarm for c in model.precursors.combinations]
    write_alarms_csv(
        out / "alarms.csv",
        list(model.alarms) + composed + [model.precursors.pooled_alarm],
    )
    _write_json(
        out / "stats.json",
        {
            "alarms": {
                alarm.alarm_id: stats_to_jsonable(match_stats(alarm, model.layout))
                for alarm in model.alarms
            },
            "pooled": stats_to_jsonable(model.precursors.pooled_stats),
        },
    )
    write_precursors_json(out / "precursors.json", model.precursors)
    return 0 if model.precursors.combinations else 3


def cmd_crossval(cfg: RunConfig, out: Path) -> int:
    panels, events = _load_fleet(cfg)
    if len(panels) < 2:
        raise ConfigError("crossval needs at least 2 units")
    result = leave_one_unit_out(panels, events, cfg.pipeline)
    out.mkdir(parents=True, exist_ok=True)
    folds_dir = out / "folds"
    folds_dir.mkdir(exist_ok=True)
    for fold in result.folds:
        payload = {f.name: getattr(fold, f.name) for f in fields(fold)}
        if not fold.skipped:
            payload["stats"] = stats_to_jsonable(fold.stats)
            payload["precursors"] = precursors_to_jsonable(fold.precursors)
        _write_json(folds_dir / f"{fold.held_out_unit}.json", payload)
    _write_json(
        out / "aggregate.json",
        {
            "aggregate": stats_to_jsonable(result.aggregate),
            "skipped_units": list(result.skipped_units),
            "folds_evaluated": sum(1 for f in result.folds if not f.skipped),
        },
    )
    return 0


def cmd_curves(cfg: RunConfig, out: Path) -> int:
    _require(cfg, events=cfg.events)
    events = select_target_events(read_events_csv(cfg.events), cfg.pipeline.code_prefix)
    if cfg.scores is not None:
        scores = read_scores_csv(cfg.scores)
    elif cfg.baseline_param is not None:
        _require(cfg, telemetry=cfg.telemetry)
        panels = read_telemetry_csv(cfg.telemetry)
        if panels and cfg.baseline_param not in panels[0].columns:
            raise ConfigError(
                f"curves.baseline_param {cfg.baseline_param!r} is not a telemetry column"
            )
        scores = {}
        for panel in panels:
            column = panel.values[:, panel.column_index(cfg.baseline_param)]
            values = threshold_baseline(column, cfg.baseline_direction).tolist()
            flights = panel.flights.tolist()
            scores[panel.unit_id] = {t: s for t, s in zip(flights, values) if not math.isnan(s)}
    else:
        raise ConfigError("curves needs io.scores or curves.baseline_param")
    curve = roc_pr_curves(scores, events, cfg.tolerance)
    out.mkdir(parents=True, exist_ok=True)
    write_curves_csv(out / "curves.csv", curve)
    best = operating_point(curve, nu=0.6)
    _write_json(
        out / "operating_point.json",
        {
            "target_nu": 0.6,
            **{f.name: json_number(getattr(best, f.name)) for f in fields(CurvePoint)},
        },
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fleetwarn",
        description="Mine early-warning precursors of rare failures from fleet telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "run", "crossval", "curves"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="overrides sim.seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.outdir
        if out is None:
            raise ConfigError(f"{args.command} needs io.outdir or --out")
        if args.command == "simulate":
            return cmd_simulate(cfg, args.seed, out)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "crossval":
            return cmd_crossval(cfg, out)
        return cmd_curves(cfg, out)
    except NoTargetEventsError as exc:
        print(f"fleetwarn: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, OSError, ValueError) as exc:
        print(f"fleetwarn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

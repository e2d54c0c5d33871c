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
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Mapping

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


# The config's layout.  Each leaf is the kind of value it holds: int, float
# or str; [kind], a list of that kind; a tuple of kinds, a list of that
# length; {str: kind}, an object of any keys; or an object of the listed
# keys.  A section may leave out any key, which then takes its default;
# an object inside a list must spell every key.
_SCHEMA: dict[str, Any] = {
    "io": {"telemetry": str, "events": str, "outdir": str, "scores": str},
    "match": {"w": int, "h": int, "m": int},
    "detect": {"rank": int, "quantile": float, "quantile_overrides": {str: float},
               "normal_before": int, "normal_after": int},
    "grouping": {"measure": str, "rho": float},
    "filter": {"kind": str, "alpha": float, "theta": float, "max_size": int},
    "target": {"code_prefix": str},
    "eval": {"tolerance": int},
    "sim": {"units": int, "flights_per_unit": int, "groups": [(int, float)],
            "planted": [{"groups": [int], "lead": (int, int), "magnitude": float}],
            "event_rate": float, "seed": int, "event_code": str},
    "curves": {"baseline_param": str, "baseline_direction": str},
}

# Config keys named differently from their dataclass fields.
_FIELD_NAMES = {"w": "window", "h": "horizon", "m": "delay", "kind": "filter_kind"}
# What a value of each scalar kind must be, as its refusal names it.
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _kind_name(kind: Any) -> str:
    if isinstance(kind, list):
        return "a list"
    if isinstance(kind, tuple):
        return f"a list of {len(kind)} values"
    return "an object" if isinstance(kind, dict) else _KIND_NAMES[kind]


def _typed(path: str, value: Any, kind: Any, whole: bool = False) -> Any:
    """The config value at key ``path`` checked against ``kind``, with each
    number as an int or float; a list of fixed length becomes a tuple.

    No kind takes a bool or null, a number takes no string nor a string a
    number, and an int takes no fraction.  An object of listed keys refuses
    any other key, and if ``whole``, one of them left out.
    """
    if isinstance(kind, dict) and isinstance(value, dict):
        if str in kind:
            return {key: _typed(f"{path}.{key}", v, kind[str]) for key, v in value.items()}
        for key in value:
            if key not in kind:
                raise ConfigError(f"unknown key {path}.{key}" if path
                                  else f"unknown config section {key!r}")
        missing = [key for key in kind if key not in value]
        if whole and missing:
            raise ConfigError(f"missing key {path}.{missing[0]}")
        return {key: _typed(f"{path}.{key}" if path else key, v, kind[key])
                for key, v in value.items()}
    if isinstance(kind, list) and isinstance(value, list):
        return [_typed(f"{path}[{i}]", v, kind[0], whole=True) for i, v in enumerate(value)]
    if isinstance(kind, tuple) and isinstance(value, list) and len(value) == len(kind):
        return tuple(_typed(f"{path}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, kind)))
    if kind is str and isinstance(value, str):
        return value
    if kind in (int, float) and type(value) in (int, float) and not (kind is int and value % 1):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the largest float
            pass
    raise ConfigError(f"{path} must be {_kind_name(kind)}, got {json.dumps(value)}")


def _fields(section: Mapping[str, Any]) -> dict[str, Any]:
    """A typed config section keyed by its dataclass's field names."""
    return {_FIELD_NAMES.get(key, key): value for key, value in section.items()}


class RunConfig:
    """Typed view of the JSON config; absent keys take their dataclass defaults.

    Relative paths resolve against the config file's directory.  ``pipeline``
    holds every training setting and ``sim``, if the config has a ``sim``
    section, the simulator's; both are validated here.
    """

    def __init__(self, raw: Mapping[str, Any], base_dir: Path):
        config = _typed("", raw, _SCHEMA)
        io, sim, curves = (config.get(section, {}) for section in ("io", "sim", "curves"))
        self.telemetry, self.events, self.outdir, self.scores = (
            (base_dir / io[key]).resolve() if key in io else None for key in _SCHEMA["io"]
        )
        self.pipeline = PipelineConfig(
            match=MatchParams(**_fields(config.get("match", {}))),
            search=SearchConfig(**_fields(config.get("filter", {}))),
            **config.get("detect", {}),
            **config.get("grouping", {}),
            **config.get("target", {}),
        )
        self.tolerance = config.get("eval", {}).get("tolerance", 2)
        if self.tolerance < 0:
            raise ConfigError(f"eval.tolerance must be >= 0, got {self.tolerance}")
        self.baseline_param = curves.get("baseline_param")
        self.baseline_direction = curves.get("baseline_direction", "above")
        if self.baseline_direction not in ("above", "below"):
            raise ConfigError(
                f"curves.baseline_direction must be 'above' or 'below', "
                f"got {self.baseline_direction!r}"
            )
        # Unlike SimConfig(), the CLI plants nothing unless asked to.
        planted = tuple(
            PlantedSpec(spec["groups"], *spec["lead"], spec["magnitude"])
            for spec in sim.get("planted", [])
        )
        groups = {"groups": tuple(GroupSpec(*g) for g in sim["groups"])} if "groups" in sim else {}
        self.sim = SimConfig(**{**sim, **groups, "planted": planted}) if "sim" in config else None


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
    if cfg.sim is None:
        raise ConfigError("simulate needs a 'sim' config section")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    sim = cfg.sim if seed is None else replace(cfg.sim, seed=seed)
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

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
from pathlib import Path
from typing import Any, Mapping

from fleetwarn.core import (
    MatchParams,
    NoTargetEventsError,
    read_events_csv,
    read_scores_csv,
    read_telemetry_csv,
    write_alarms_csv,
    write_events_csv,
    write_telemetry_csv,
)
from fleetwarn.detect import write_detector_json
from fleetwarn.evaluation import (
    leave_one_unit_out,
    operating_point,
    roc_pr_curves,
    threshold_baseline,
    write_curves_csv,
)
from fleetwarn.grouping import write_groups_json
from fleetwarn.matching import match_stats, stats_to_jsonable
from fleetwarn.pipeline import PipelineConfig, train_model
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig, generate_fleet, write_manifest_json
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


def _get(raw: Mapping[str, Any], section: str, key: str, default: Any) -> Any:
    return raw.get(section, {}).get(key, default)


class RunConfig:
    """Typed view of the JSON config with documented defaults filled in.

    Relative paths resolve against the config file's directory; ``pipeline``
    holds every training setting, validated here.
    """

    def __init__(self, raw: Mapping[str, Any], base_dir: Path):
        _check_keys(raw)
        self.base_dir = base_dir
        self.telemetry = self._path(_get(raw, "io", "telemetry", None))
        self.events = self._path(_get(raw, "io", "events", None))
        self.outdir = self._path(_get(raw, "io", "outdir", None))
        self.scores = self._path(_get(raw, "io", "scores", None))
        overrides = _get(raw, "detect", "quantile_overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("detect.quantile_overrides must be an object")
        try:
            self.pipeline = PipelineConfig(
                match=MatchParams(
                    window=int(_get(raw, "match", "w", 20)),
                    horizon=int(_get(raw, "match", "h", 0)),
                    delay=int(_get(raw, "match", "m", 0)),
                ),
                rank=int(_get(raw, "detect", "rank", 1)),
                quantile=float(_get(raw, "detect", "quantile", 0.95)),
                quantile_overrides={str(k): float(v) for k, v in overrides.items()},
                normal_before=int(_get(raw, "detect", "normal_before", 50)),
                normal_after=int(_get(raw, "detect", "normal_after", 30)),
                measure=str(_get(raw, "grouping", "measure", "pearson")),
                rho=float(_get(raw, "grouping", "rho", 0.7)),
                search=SearchConfig(
                    alpha=float(_get(raw, "filter", "alpha", 0.05)),
                    filter_kind=str(_get(raw, "filter", "kind", "hard")),
                    theta=float(_get(raw, "filter", "theta", 2)),
                    max_size=int(_get(raw, "filter", "max_size", 2)),
                ),
                code_prefix=str(_get(raw, "target", "code_prefix", "")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        self.tolerance = int(_get(raw, "eval", "tolerance", 2))
        self.baseline_param = _get(raw, "curves", "baseline_param", None)
        self.baseline_direction = str(_get(raw, "curves", "baseline_direction", "above"))
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
            groups = tuple(
                GroupSpec(size=int(size), correlation=float(corr))
                for size, corr in raw.get("groups", [[5, 0.9]] * 8)
            )
            planted = tuple(
                PlantedSpec(
                    groups=tuple(int(g) for g in spec["groups"]),
                    lead_lo=int(spec["lead"][0]),
                    lead_hi=int(spec["lead"][1]),
                    magnitude=float(spec["magnitude"]),
                )
                for spec in raw.get("planted", [])
            )
            seed = int(raw.get("seed", 0)) if seed_override is None else seed_override
            return SimConfig(
                units=int(raw.get("units", 16)),
                flights_per_unit=int(raw.get("flights_per_unit", 500)),
                groups=groups,
                planted=planted,
                event_rate=float(raw.get("event_rate", 1.5)),
                seed=seed,
                event_code=str(raw.get("event_code", "E100")),
            )
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


def _write_json(path: Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: RunConfig, **paths: Path | None) -> None:
    for name, value in paths.items():
        if value is None:
            raise ConfigError(f"config is missing io.{name}")


def cmd_simulate(cfg: RunConfig, seed: int | None, outdir: Path | None) -> int:
    out = outdir or cfg.outdir
    if out is None:
        raise ConfigError("simulate needs io.outdir or --out")
    sim = cfg.sim_config(seed)
    panels, events, manifest = generate_fleet(sim)
    out.mkdir(parents=True, exist_ok=True)
    write_telemetry_csv(out / "telemetry.csv", panels)
    write_events_csv(out / "events.csv", events)
    write_manifest_json(out / "manifest.json", manifest)
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


def cmd_run(cfg: RunConfig, outdir: Path | None) -> int:
    out = outdir or cfg.outdir
    if out is None:
        raise ConfigError("run needs io.outdir or --out")
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


def cmd_crossval(cfg: RunConfig, outdir: Path | None) -> int:
    out = outdir or cfg.outdir
    if out is None:
        raise ConfigError("crossval needs io.outdir or --out")
    panels, events = _load_fleet(cfg)
    if len(panels) < 2:
        raise ConfigError("crossval needs at least 2 units")
    result = leave_one_unit_out(panels, events, cfg.pipeline)
    out.mkdir(parents=True, exist_ok=True)
    folds_dir = out / "folds"
    folds_dir.mkdir(exist_ok=True)
    for fold in result.folds:
        payload = {
            "held_out_unit": fold.held_out_unit,
            "skipped": fold.skipped,
            "stats": None if fold.stats is None else stats_to_jsonable(fold.stats),
            "precursors": None
            if fold.precursors is None
            else precursors_to_jsonable(fold.precursors),
            "window_counts": list(fold.window_counts),
            "segment_counts": list(fold.segment_counts),
        }
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


def cmd_curves(cfg: RunConfig, outdir: Path | None) -> int:
    out = outdir or cfg.outdir
    if out is None:
        raise ConfigError("curves needs io.outdir or --out")
    _require(cfg, events=cfg.events)
    prefix = cfg.pipeline.code_prefix
    events = [ev for ev in read_events_csv(cfg.events) if ev.code.startswith(prefix)]
    if not events:
        raise NoTargetEventsError(f"no events match code prefix {prefix!r}")
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
            values = threshold_baseline(
                panel.values[:, panel.column_index(cfg.baseline_param)],
                cfg.baseline_direction,
            )
            scores[panel.unit_id] = {
                int(t): float(s)
                for t, s in zip(panel.flights, values)
                if not math.isnan(s)
            }
    else:
        raise ConfigError("curves needs io.scores or curves.baseline_param")
    points = roc_pr_curves(scores, events, cfg.tolerance)
    out.mkdir(parents=True, exist_ok=True)
    write_curves_csv(out / "curves.csv", points)
    best = operating_point(points, nu=0.6)
    _write_json(
        out / "operating_point.json",
        {
            "target_nu": 0.6,
            "nu": "inf" if math.isinf(best.nu) else best.nu,
            "tp": best.tp,
            "fp": best.fp,
            "fn": best.fn,
            "tn": best.tn,
            "precision": best.precision,
            "recall": None if math.isnan(best.recall) else best.recall,
            "fpr": best.fpr,
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
        p.add_argument("--seed", type=int, default=None, help="simulation seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.seed, args.out)
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "crossval":
            return cmd_crossval(cfg, args.out)
        return cmd_curves(cfg, args.out)
    except NoTargetEventsError as exc:
        print(f"fleetwarn: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, OSError, ValueError) as exc:
        print(f"fleetwarn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import copy
import csv
import json
import math
from dataclasses import fields

import pytest

from fleetwarn import core
from fleetwarn.cli import _SCHEMA, load_config, main
from fleetwarn.core import MatchParams, read_events_csv, read_telemetry_csv
from fleetwarn.matching import layout_periods
from fleetwarn.pipeline import PipelineConfig
from fleetwarn.simgen import GroupSpec, PlantedSpec, SimConfig
from fleetwarn.synth import SearchConfig
from support import run_python, write_scores_csv

SIM_SECTION = {
    "units": 5,
    "flights_per_unit": 300,
    "groups": [[4, 0.9], [4, 0.9], [3, 0.9]],
    "planted": [{"groups": [0, 1], "lead": [3, 6], "magnitude": 9.0}],
    "event_rate": 2.5,
    "seed": 15,
}

PIPELINE_SECTIONS = {
    "match": {"w": 10},
    "detect": {"quantile": 0.999},
    "filter": {"kind": "soft", "theta": 1.0},
}


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Simulated fleet plus a ready-made pipeline config, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    fleet = root / "fleet"
    sim_cfg = write_config(root / "sim.json", {"sim": SIM_SECTION})
    assert main(["simulate", "--config", sim_cfg, "--out", str(fleet)]) == 0
    run_payload = {
        "io": {"telemetry": "fleet/telemetry.csv", "events": "fleet/events.csv"},
        **PIPELINE_SECTIONS,
    }
    run_cfg = write_config(root / "run.json", run_payload)
    return {"root": root, "fleet": fleet, "run_cfg": run_cfg, "sim_cfg": sim_cfg}


class TestConfigErrors:
    def test_unknown_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"detectx": {}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"match": {"window": 5}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key match.window" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command,section,message",
        [
            pytest.param(command, section, message, id=command + suffix)
            for suffix, section, message in (
                ("", {"grouping": {"measure": "spearman"}}, "unknown measure 'spearman'"),
                ("-quantile", {"detect": {"quantile": 1.5}}, "quantile must lie in (0, 1)"),
                ("-filter", {"filter": {"kind": "fuzzy"}},
                 "filter.kind must be one of ('hard', 'soft'), got 'fuzzy'"),
            )
            for command in ("run", "crossval")
        ]
        + [
            pytest.param(
                "curves",
                {"curves": {"baseline_param": "g0p0", "baseline_direction": "sideways"}},
                "curves.baseline_direction must be 'above' or 'below', got 'sideways'",
                id="curves-direction",
            ),
            pytest.param("run", {"grouping": {"rho": 0}}, "rho must be positive", id="run-rho"),
            pytest.param(
                "crossval", {"grouping": {"rho": math.nan}}, "rho must be positive",
                id="crossval-rho-nan",
            ),
            pytest.param(
                "curves", {"eval": {"tolerance": -1}}, "eval.tolerance must be >= 0, got -1",
                id="curves-tolerance",
            ),
            pytest.param(
                "curves", {"eval": {"tolerance": 1.5}},
                "eval.tolerance must be an integer, got 1.5",
                id="curves-tolerance-fraction",
            ),
            pytest.param(
                "run", {"match": {"w": 2.7}}, "match.w must be an integer, got 2.7",
                id="run-window-fraction",
            ),
            pytest.param(
                "crossval", {"filter": {"max_size": True}},
                "filter.max_size must be an integer, got true", id="crossval-max-size-bool",
            ),
            pytest.param(
                "simulate", {"sim": {"units": 2.5}}, "sim.units must be an integer, got 2.5",
                id="simulate-units-fraction",
            ),
            pytest.param(
                "run", {"match": {"w": "3"}}, 'match.w must be an integer, got "3"',
                id="run-window-string",
            ),
            pytest.param(
                "run", {"target": {"code_prefix": True}},
                "target.code_prefix must be a string, got true", id="run-prefix-bool",
            ),
            pytest.param(
                "run", {"filter": {"theta": True}}, "filter.theta must be a number, got true",
                id="run-theta-bool",
            ),
            pytest.param(
                "crossval", {"filter": {"kind": "soft", "theta": "2"}},
                'filter.theta must be a number, got "2"', id="crossval-theta-string",
            ),
            pytest.param(
                "run", {"filter": {"kind": "soft", "theta": math.nan}},
                "filter.theta must be >= 0, got nan", id="run-theta-nan",
            ),
            pytest.param(
                "crossval", {"filter": {"kind": "hard", "theta": 2.7}},
                "filter.theta must be a whole number of events, got 2.7",
                id="crossval-theta-fraction-hard",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": math.inf}]}},
                "sim.planted[0]: magnitude must be finite and >= 0, got inf",
                id="simulate-magnitude-inf",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": math.nan}]}},
                "sim.planted[0]: magnitude must be finite and >= 0, got nan",
                id="simulate-magnitude-nan",
            ),
            pytest.param(
                "simulate",
                {"sim": {"event_rate": math.inf}},
                "sim.event_rate must be finite and >= 0, got inf",
                id="simulate-event-rate-inf",
            ),
            pytest.param(
                "simulate",
                {"sim": {"event_rate": math.nan}},
                "sim.event_rate must be finite and >= 0, got nan",
                id="simulate-event-rate-nan",
            ),
            pytest.param(
                "simulate", {"sim": {"seed": -3}}, "sim.seed must be >= 0, got -3",
                id="simulate-seed-negative",
            ),
            pytest.param(
                "simulate --seed -1", {"sim": {}}, "--seed must be >= 0, got -1",
                id="simulate-seed-flag-negative",
            ),
            # values the sim section's lists once truncated or coerced without a word;
            # every command checks the sim section at load
            pytest.param(
                "run",
                {"sim": {"planted": [{"groups": [0, 1.9], "lead": [5, 15], "magnitude": 6}]}},
                "sim.planted[0].groups[1] must be an integer, got 1.9",
                id="run-planted-group-fraction",
            ),
            pytest.param(
                "crossval",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5.7, 15], "magnitude": 6}]}},
                "sim.planted[0].lead[0] must be an integer, got 5.7",
                id="crossval-lead-fraction",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": True}]}},
                "sim.planted[0].magnitude must be a number, got true",
                id="simulate-magnitude-bool",
            ),
            pytest.param(
                "curves", {"sim": {"groups": [[5.5, 0.5]]}},
                "sim.groups[0][0] must be an integer, got 5.5", id="curves-group-size-fraction",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15, 99], "magnitude": 6}]}},
                "sim.planted[0].lead must be a list of 2 values, got [5, 15, 99]",
                id="simulate-lead-triple",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": 6,
                                      "shape": "step"}]}},
                "unknown key sim.planted[0].shape", id="simulate-planted-unknown-key",
            ),
            pytest.param(
                "simulate", {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15]}]}},
                "missing key sim.planted[0].magnitude", id="simulate-planted-missing-key",
            ),
            pytest.param(
                "run", {"detect": {"quantile_overrides": {"g0p0": "0.5"}}},
                'detect.quantile_overrides.g0p0 must be a number, got "0.5"',
                id="run-quantile-override-string",
            ),
            pytest.param(
                "run", {"io": {"telemetry": 5}}, "io.telemetry must be a string, got 5",
                id="run-telemetry-number",
            ),
            pytest.param(
                "curves", {"curves": {"baseline_param": 5}},
                "curves.baseline_param must be a string, got 5", id="curves-baseline-number",
            ),
            pytest.param(
                "run", {"match": {"w": None}}, "match.w must be an integer, got null",
                id="run-window-null",
            ),
            pytest.param(
                "simulate", {"sim": {"event_rate": 10**400}},
                "sim.event_rate must be a number, got 1000", id="simulate-event-rate-beyond-float",
            ),
            # range refusals name the key path too
            pytest.param(
                "run", {"match": {"w": 0}}, "match.w must be >= 1, got 0", id="run-window-zero",
            ),
            pytest.param(
                "crossval", {"match": {"m": -2}}, "match.m must be >= 0, got -2",
                id="crossval-delay-negative",
            ),
            pytest.param(
                "crossval", {"detect": {"rank": 0}}, "detect.rank must be >= 1, got 0",
                id="crossval-rank-zero",
            ),
            pytest.param(
                "run", {"detect": {"quantile_overrides": {"g0p0": 1.0}}},
                "detect.quantile_overrides.g0p0 must lie in (0, 1), got 1.0",
                id="run-quantile-override-one",
            ),
            pytest.param(
                "simulate", {"sim": {"groups": [[3, 0.5], [1, 0.5]]}},
                "sim.groups[1]: group size must be >= 2, got 1", id="simulate-group-size-one",
            ),
            pytest.param(
                "curves", {"sim": {"groups": [[3, 1.0]]}},
                "sim.groups[0]: within-group correlation must lie in [0, 1), got 1.0",
                id="curves-group-correlation-one",
            ),
            pytest.param(
                "run", {"filter": {"max_size": 4}}, "filter.max_size must be 2 or 3, got 4",
                id="run-max-size-four",
            ),
            pytest.param(
                "crossval", {"filter": {"alpha": 0}}, "filter.alpha must lie in (0, 1], got 0.0",
                id="crossval-alpha-zero",
            ),
            pytest.param(
                "simulate", {"sim": {"units": 0}}, "sim.units must be >= 1, got 0",
                id="simulate-units-zero",
            ),
            pytest.param(
                "simulate", {"sim": {"flights_per_unit": -1}},
                "sim.flights_per_unit must be >= 1, got -1", id="simulate-flights-negative",
            ),
            pytest.param(
                "run", {"sim": {"groups": []}}, "sim.groups must list at least one group",
                id="run-groups-empty",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": 6},
                                     {"groups": [2], "lead": [5, 15], "magnitude": 6}]}},
                "sim.planted[1]: groups must list 2 or 3 groups, got [2]",
                id="simulate-planted-one-group",
            ),
            pytest.param(
                "crossval",
                {"sim": {"planted": [{"groups": [1, 1], "lead": [5, 15], "magnitude": 6}]}},
                "sim.planted[0]: groups must be distinct, got [1, 1]",
                id="crossval-planted-repeated-group",
            ),
            pytest.param(
                "simulate",
                {"sim": {"planted": [{"groups": [0, 1], "lead": [9, 5], "magnitude": 6}]}},
                "sim.planted[0]: lead must satisfy 1 <= lo <= hi, got [9, 5]",
                id="simulate-planted-lead-reversed",
            ),
            pytest.param(
                "curves",
                {"sim": {"groups": [[2, 0.5], [2, 0.5]],
                         "planted": [{"groups": [0, 1], "lead": [5, 15], "magnitude": 6},
                                     {"groups": [1, 2], "lead": [5, 15], "magnitude": 6}]}},
                "sim.planted[1]: group 2 is out of range",
                id="curves-planted-group-out-of-range",
            ),
        ],
    )
    def test_unknown_measure_rejected_before_reading(
        self, command, section, message, tmp_path, capsys
    ):
        payload = {
            "io": {"telemetry": "absent/telemetry.csv", "events": "absent/events.csv"},
            **section,
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_lag_depth_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"eval": {"lag_depth": 3}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key eval.lag_depth" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "crossval"])
    def test_quantile_override_for_unknown_column(self, command, ws, tmp_path, capsys):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "detect": {"quantile_overrides": {"g9p9": 0.5}},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "detect.quantile_overrides key 'g9p9'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_filter_kind_reported(self, ws, tmp_path, capsys):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "filter": {"kind": "fuzzy"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "filter.kind must be one of" in capsys.readouterr().err


# Every key of the config schema, each with a value that is not its default.
FULL_CONFIG = {
    "io": {"telemetry": "t.csv", "events": "e.csv", "outdir": "out", "scores": "s.csv"},
    "match": {"w": 7, "h": 2, "m": 3},
    "detect": {
        "rank": 2, "quantile": 0.99, "quantile_overrides": {"g0p0": 0.9},
        "normal_before": 40, "normal_after": 20,
    },
    "grouping": {"measure": "mutual_info", "rho": 0.6},
    "filter": {"kind": "soft", "alpha": 0.1, "theta": 1.5, "max_size": 3},
    "target": {"code_prefix": "E"},
    "eval": {"tolerance": 4},
    "sim": {
        "units": 3, "flights_per_unit": 200, "groups": [[3, 0.8], [2, 0.5]],
        "planted": [{"groups": [1, 0], "lead": [2, 4], "magnitude": 5.0}],
        "event_rate": 2.0, "seed": 7, "event_code": "E7",
    },
    "curves": {"baseline_param": "g1p0", "baseline_direction": "below"},
}


def schema_nodes(kind, keys=(), path=""):
    """(keys, key path, kind) of every node of a config schema below ``kind``;
    a list's entries stand at index 0 and ``{str: kind}``'s at key g0p0."""
    if keys:
        yield keys, path, kind
    if isinstance(kind, dict):
        for key, sub in ({"g0p0": kind[str]} if str in kind else kind).items():
            yield from schema_nodes(sub, (*keys, key), f"{path}.{key}" if path else key)
    elif isinstance(kind, (list, tuple)):
        for i, sub in enumerate(kind):
            yield from schema_nodes(sub, (*keys, i), f"{path}[{i}]")


def config_leaves(value, path=""):
    """The key path of every number and string in a config."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from config_leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from config_leaves(sub, f"{path}[{i}]")
    else:
        yield path


def _kind_name(kind):
    if isinstance(kind, tuple):
        return f"a list of {len(kind)} values"
    if isinstance(kind, (list, dict)):
        return "a list" if isinstance(kind, list) else "an object"
    return {int: "an integer", float: "a number", str: "a string"}[kind]


def _wrong_values(kind):
    """(value, label) pairs of the wrong kind for ``kind``: a bool and null for
    every kind, a string for a number and a number for a string, a fraction
    for an int, a scalar where a list or object belongs, a list for an
    object, and lists of the wrong length for a fixed-length one."""
    wrong = [(True, "bool"), (None, "null")]
    if kind in (int, float):
        wrong.append(("7", "string"))
    if kind is int:
        wrong.append((2.5, "fraction"))
    if kind is str:
        wrong.append((5, "number"))
    if isinstance(kind, (list, tuple, dict)):
        wrong.append((5, "scalar"))
    if isinstance(kind, dict):
        wrong.append((["x"], "list"))
    if isinstance(kind, tuple):
        wrong += [([1] * (len(kind) - 1), "short"), ([1] * (len(kind) + 1), "long")]
    return wrong


def _node(config, keys):
    """The part of ``config`` that ``keys`` lead to."""
    for key in keys:
        config = config[key]
    return config


class TestConfigSchema:
    """Every key of ``cli._SCHEMA`` is read by the one typed walk: a value of
    the wrong kind anywhere exits 2 naming its key path, and a valid value
    lands in its dataclass field."""

    def test_full_config_spells_every_key(self):
        leaves = {path for _, path, kind in schema_nodes(_SCHEMA) if kind in (int, float, str)}
        assert leaves <= set(config_leaves(FULL_CONFIG))

    def test_every_value_lands_in_its_field(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", FULL_CONFIG))
        assert cfg.pipeline == PipelineConfig(
            match=MatchParams(window=7, horizon=2, delay=3),
            rank=2, quantile=0.99, quantile_overrides={"g0p0": 0.9},
            normal_before=40, normal_after=20, measure="mutual_info", rho=0.6,
            search=SearchConfig(alpha=0.1, filter_kind="soft", theta=1.5, max_size=3),
            code_prefix="E",
        )
        assert cfg.sim == SimConfig(
            units=3, flights_per_unit=200, groups=(GroupSpec(3, 0.8), GroupSpec(2, 0.5)),
            planted=(PlantedSpec(groups=(1, 0), lead_lo=2, lead_hi=4, magnitude=5.0),),
            event_rate=2.0, seed=7, event_code="E7",
        )
        base = tmp_path.resolve()
        assert (cfg.telemetry, cfg.events, cfg.outdir, cfg.scores) == (
            base / "t.csv", base / "e.csv", base / "out", base / "s.csv")
        assert (cfg.tolerance, cfg.baseline_param, cfg.baseline_direction) == (4, "g1p0", "below")
        for built in (cfg.pipeline, cfg.pipeline.match, cfg.pipeline.search, cfg.sim):
            default = type(built)()
            assert [f.name for f in fields(built)
                    if getattr(built, f.name) == getattr(default, f.name)] == []

    @pytest.mark.parametrize(
        "keys,path,value,kind",
        [
            pytest.param(keys, path, value, kind, id=f"{path}-{label}")
            for keys, path, kind in schema_nodes(_SCHEMA)
            for value, label in _wrong_values(kind)
        ],
    )
    def test_wrong_kind_names_its_key_path(self, keys, path, value, kind, tmp_path, capsys):
        config = copy.deepcopy(FULL_CONFIG)
        _node(config, keys[:-1])[keys[-1]] = value
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"fleetwarn: {path} must be {_kind_name(kind)}, got {json.dumps(value)}\n")

    @pytest.mark.parametrize(
        "keys,path",
        [pytest.param(keys, path, id=path) for keys, path, kind in schema_nodes(_SCHEMA)
         if isinstance(kind, dict) and str not in kind],
    )
    def test_unknown_key_names_its_key_path(self, keys, path, tmp_path, capsys):
        config = copy.deepcopy(FULL_CONFIG)
        _node(config, keys)["extra"] = 1
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"fleetwarn: unknown key {path}.extra\n"

    @pytest.mark.parametrize("key", ["groups", "lead", "magnitude"])
    def test_missing_planted_key_names_its_key_path(self, key, tmp_path, capsys):
        config = copy.deepcopy(FULL_CONFIG)
        del config["sim"]["planted"][0][key]
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"fleetwarn: missing key sim.planted[0].{key}\n"

    @pytest.mark.parametrize("command", ["simulate", "run", "crossval", "curves"])
    def test_every_command_checks_the_sim_section_at_load(self, command, tmp_path, capsys):
        config = {"sim": {"planted": [{"groups": [0, 9], "lead": [5, 15], "magnitude": 6}]}}
        cfg = write_config(tmp_path / "c.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "fleetwarn: sim.planted[0]: group 9 is out of range\n")
        assert not (tmp_path / "o").exists()


def _scipy_modules_after(code):
    """Names of the scipy modules loaded after running ``code`` in a fresh process."""
    probe = code + "\nimport sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = run_python("-c", probe, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    # scipy would more than double the start-up of every command; no module needs it at load
    assert _scipy_modules_after("import fleetwarn.cli") == "[]"


def test_simulate_and_curves_never_load_scipy(tmp_path):
    # only the t-test p-values of run and crossval import scipy
    sim = write_config(tmp_path / "sim.json", {"sim": {**SIM_SECTION, "flights_per_unit": 80}})
    curves = write_config(
        tmp_path / "curves.json",
        {
            "io": {"telemetry": "fleet/telemetry.csv", "events": "fleet/events.csv"},
            "curves": {"baseline_param": "g0p0"},
        },
    )
    code = (
        "from fleetwarn.cli import main\n"
        f"assert main(['simulate', '--config', {sim!r}, '--out', {str(tmp_path / 'fleet')!r}]) == 0\n"
        f"assert main(['curves', '--config', {curves!r}, '--out', {str(tmp_path / 'c')!r}]) == 0"
    )
    assert _scipy_modules_after(code) == "[]"
    assert (tmp_path / "c" / "curves.csv").is_file()


class TestSimulate:
    def test_outputs_exist(self, ws):
        for name in ("telemetry.csv", "events.csv", "manifest.json"):
            assert (ws["fleet"] / name).is_file()

    def test_deterministic_bytes(self, ws, tmp_path):
        again = tmp_path / "again"
        assert main(["simulate", "--config", ws["sim_cfg"], "--out", str(again)]) == 0
        for name in ("telemetry.csv", "events.csv", "manifest.json"):
            assert (again / name).read_bytes() == (ws["fleet"] / name).read_bytes()

    def test_seed_flag_overrides(self, ws, tmp_path):
        out = tmp_path / "seeded"
        rc = main(["simulate", "--config", ws["sim_cfg"], "--out", str(out), "--seed", "99"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert (out / "telemetry.csv").read_bytes() != (ws["fleet"] / "telemetry.csv").read_bytes()

    def test_needs_sim_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sim" in capsys.readouterr().err

    def test_needs_outdir(self, ws, capsys):
        assert main(["simulate", "--config", ws["sim_cfg"]]) == 2
        assert "io.outdir or --out" in capsys.readouterr().err

    def test_nothing_planted_needs_no_normal_regime(self, tmp_path):
        # at seed 1 every flight of both units lies near an event
        cfg = write_config(tmp_path / "c.json", {"sim": {"units": 2, "flights_per_unit": 100}})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["verified_q95"] is True

    def test_planted_without_normal_regime_exits_2(self, tmp_path, capsys):
        sim = {
            "units": 2, "flights_per_unit": 60, "groups": [[2, 0.9], [2, 0.9]],
            "planted": [{"groups": [0, 1], "lead": [1, 2], "magnitude": 6.0}], "event_rate": 3,
        }
        cfg = write_config(tmp_path / "c.json", {"sim": sim})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "fleetwarn: cannot verify the planted precursors: every flight lies fewer than 50 "
            "flights before or 30 after an event of its unit, so no flight is left in the "
            "normal regime the check fits on\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def run_out(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("runout")
    rc = main(["run", "--config", ws["run_cfg"], "--out", str(out)])
    return rc, out


class TestRun:
    def test_exit_zero_with_survivors(self, run_out):
        rc, _ = run_out
        assert rc == 0

    def test_output_files(self, run_out):
        _, out = run_out
        for name in ("groups.json", "alarms.csv", "stats.json", "precursors.json"):
            assert (out / name).is_file()
        detectors = sorted(p.name for p in (out / "detectors").iterdir())
        assert detectors == ["g0p0.json", "g1p0.json", "g2p0.json"]

    def test_groups_json(self, run_out):
        _, out = run_out
        doc = json.loads((out / "groups.json").read_text())
        assert doc["measure"] == "pearson"
        assert doc["rho"] == 0.7
        assert doc["groups"][0] == ["g0p0", "g0p1", "g0p2", "g0p3"]

    def test_precursors_lead_with_planted_pair(self, run_out):
        _, out = run_out
        doc = json.loads((out / "precursors.json").read_text())
        first = doc["combinations"][0]
        assert first["members"] == [
            "pca[g0p0+g0p1+g0p2+g0p3]r1q0.999",
            "pca[g1p0+g1p1+g1p2+g1p3]r1q0.999",
        ]
        assert first["stats"]["false_firings"] == 0
        assert doc["pooled"]["stats"]["coverage"] == 1.0

    def test_stats_json_covers_all_alarms(self, run_out):
        _, out = run_out
        doc = json.loads((out / "stats.json").read_text())
        assert set(doc) == {"alarms", "pooled"}
        assert len(doc["alarms"]) == 3
        for entry in doc["alarms"].values():
            assert "coverage" in entry and "p_value" in entry

    def test_alarms_csv_sorted(self, run_out):
        _, out = run_out
        rows = read_rows(out / "alarms.csv")
        assert rows[0] == ["unit_id", "flight", "alarm_id"]
        body = [(r[0], int(r[1]), r[2]) for r in rows[1:]]
        assert body == sorted(body)
        assert any(r[2] == "pooled" for r in body)

    def test_unfillable_filter_returns_three(self, ws, tmp_path, capsys):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "match": {"w": 10},
            "detect": {"quantile": 0.999},
            "filter": {"kind": "hard", "theta": 50},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        doc = json.loads((out / "precursors.json").read_text())
        assert doc["combinations"] == []
        assert (out / "alarms.csv").is_file()
        # the never-firing pool is graded on the layout's axis, so its counts are the layout's
        panels = read_telemetry_csv(ws["fleet"] / "telemetry.csv")
        layout = layout_periods(read_events_csv(ws["fleet"] / "events.csv"), MatchParams(window=10),
                                {p.unit_id: p.observation_range() for p in panels})
        stats = json.loads((out / "stats.json").read_text())["pooled"]
        assert doc["pooled"] == {"alarm_id": "pooled", "stats": stats}
        assert layout.total_window_events() > 0 and layout.n_false_segments > 0
        assert stats["window_events"] == layout.total_window_events()
        assert stats["false_segments"] == layout.n_false_segments
        for counter in ("true_firings", "false_firings", "irrelevant_firings", "covered_events",
                        "fired_false_segments"):
            assert stats[counter] == 0, counter
        assert stats["false_to_covered"] == "inf"

    def test_unmatched_prefix_returns_four(self, ws, tmp_path, capsys):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "target": {"code_prefix": "Z"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "prefix" in capsys.readouterr().err


@pytest.fixture(scope="module")
def crossval_out(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("cvout")
    rc = main(["crossval", "--config", ws["run_cfg"], "--out", str(out)])
    return rc, out


class TestCrossval:
    def test_exit_zero(self, crossval_out):
        rc, _ = crossval_out
        assert rc == 0

    def test_fold_files(self, crossval_out):
        _, out = crossval_out
        folds = sorted(p.name for p in (out / "folds").iterdir())
        assert folds == [f"unit{u:03d}.json" for u in range(5)]
        doc = json.loads((out / "folds" / "unit000.json").read_text())
        assert doc["held_out_unit"] == "unit000"
        assert set(doc) == {
            "held_out_unit",
            "skipped",
            "stats",
            "precursors",
            "window_counts",
            "segment_counts",
        }

    def test_aggregate_sums_folds(self, crossval_out):
        _, out = crossval_out
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["skipped_units"] == []
        assert agg["folds_evaluated"] == 5
        totals = {"window_events": 0, "false_firings": 0, "covered_events": 0}
        for path in (out / "folds").iterdir():
            doc = json.loads(path.read_text())
            if doc["skipped"]:
                continue
            for key in totals:
                totals[key] += doc["stats"][key]
        for key, value in totals.items():
            assert agg["aggregate"][key] == value

    def test_out_of_sample_coverage(self, crossval_out):
        _, out = crossval_out
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["aggregate"]["coverage"] >= 0.8

    def test_single_unit_rejected(self, tmp_path, capsys):
        sim_cfg = write_config(
            tmp_path / "sim.json",
            {"sim": {**SIM_SECTION, "units": 1, "event_rate": 1.0}},
        )
        fleet = tmp_path / "fleet"
        assert main(["simulate", "--config", sim_cfg, "--out", str(fleet)]) == 0
        run_cfg = write_config(
            tmp_path / "run.json",
            {
                "io": {"telemetry": "fleet/telemetry.csv", "events": "fleet/events.csv"},
                **PIPELINE_SECTIONS,
            },
        )
        assert main(["crossval", "--config", run_cfg, "--out", str(tmp_path / "o")]) == 2
        assert "at least 2 units" in capsys.readouterr().err

    def test_dying_fold_process_exits_2_and_leaves_nothing(self, ws, tmp_path):
        out = tmp_path / "o"
        code = (
            "import os, sys\n"
            "from fleetwarn import core, evaluation\n"
            "from fleetwarn.cli import main\n"
            "parent, fold = os.getpid(), evaluation._fold\n"
            "def dying(held, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(1)\n"
            "    return fold(held, **kwargs)\n"
            "evaluation._fold = dying\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "code = main(['crossval', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a child is left')\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
            "sys.exit(code)\n"
        )
        proc = run_python("-c", code, ws["run_cfg"], str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "no child left\n"
        assert proc.stderr == (
            "fleetwarn: leave-one-unit-out: the process training the folds that hold out "
            "'unit001', 'unit003' exited with code 1\n"
        )
        assert not (out / "aggregate.json").exists()

    def test_forking_never_imports_multiprocessing(self, ws, tmp_path):
        code = (
            "import os, sys\n"
            "from fleetwarn import core\n"
            "from fleetwarn.cli import main\n"
            "forked, fork = [], os.fork\n"
            "def counted():\n"
            "    pid = fork()\n"
            "    forked.extend([pid] if pid else [])\n"
            "    return pid\n"
            "os.fork = counted\n"
            "core._processes = lambda *caps: 2\n"
            "assert main(['crossval', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(len(forked), 'multiprocessing' in sys.modules)\n"
        )
        proc = run_python("-c", code, ws["run_cfg"], str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        forks = 2 if core._blas_threads() else 1  # the telemetry, then the folds
        assert proc.stdout == f"{forks} False\n"


class TestCurves:
    def baseline_cfg(self, ws, tmp_path, tolerance=2, prefix=""):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "eval": {"tolerance": tolerance},
            "curves": {"baseline_param": "g0p0", "baseline_direction": "above"},
        }
        if prefix:
            payload["target"] = {"code_prefix": prefix}
        return write_config(tmp_path / f"curves{tolerance}{prefix}.json", payload)

    def test_baseline_curves(self, ws, tmp_path):
        cfg = self.baseline_cfg(ws, tmp_path)
        out = tmp_path / "o"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "curves.csv")
        assert rows[0] == ["nu", "tp", "fp", "fn", "tn", "precision", "recall", "fpr"]
        assert rows[1][0] == "inf"
        fprs = [float(r[7]) for r in rows[1:]]
        recalls = [float(r[6]) for r in rows[1:]]
        assert fprs == sorted(fprs)
        assert recalls == sorted(recalls)
        op = json.loads((out / "operating_point.json").read_text())
        assert op["target_nu"] == 0.6
        assert {"nu", "tp", "fp", "fn", "tn", "precision", "recall", "fpr"} <= set(op)

    def test_tolerance_widens_recall(self, ws, tmp_path):
        outs = {}
        for tol in (0, 2):
            cfg = self.baseline_cfg(ws, tmp_path, tolerance=tol)
            out = tmp_path / f"o{tol}"
            assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
            outs[tol] = read_rows(out / "curves.csv")[1:]
        assert len(outs[0]) == len(outs[2])
        for tight, loose in zip(outs[0], outs[2]):
            assert tight[0] == loose[0]
            assert int(loose[1]) >= int(tight[1])

    def test_external_scores(self, ws, tmp_path):
        # The baseline column, written as a scores file, sweeps to the same bytes.
        baseline = tmp_path / "baseline"
        cfg = self.baseline_cfg(ws, tmp_path)
        assert main(["curves", "--config", cfg, "--out", str(baseline)]) == 0
        scores = {
            panel.unit_id: dict(zip(panel.flights.tolist(),
                                    panel.values[:, panel.column_index("g0p0")].tolist()))
            for panel in read_telemetry_csv(ws["fleet"] / "telemetry.csv")
        }
        scores_path = tmp_path / "scores.csv"
        write_scores_csv(scores_path, scores)
        payload = {
            "io": {
                "events": str(ws["fleet"] / "events.csv"),
                "scores": str(scores_path),
            },
            "eval": {"tolerance": 2},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out / "curves.csv")) > 2
        for name in ("curves.csv", "operating_point.json"):
            assert (out / name).read_bytes() == (baseline / name).read_bytes()

    def test_empty_baseline_column_sweeps_nothing(self, ws, tmp_path):
        header, *rows = (ws["fleet"] / "telemetry.csv").read_text().splitlines()
        column = header.split(",").index("g0p0")
        blanked = [header]
        for row in rows:
            cells = row.split(",")
            cells[column] = ""
            blanked.append(",".join(cells))
        (tmp_path / "telemetry.csv").write_text("\n".join(blanked) + "\n")
        payload = {
            "io": {"telemetry": "telemetry.csv", "events": str(ws["fleet"] / "events.csv")},
            "curves": {"baseline_param": "g0p0"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        n_events = len(read_events_csv(ws["fleet"] / "events.csv"))
        assert n_events
        assert (out / "curves.csv").read_text() == (
            f"nu,tp,fp,fn,tn,precision,recall,fpr\ninf,0,0,{n_events},0,1.0,0.0,0.0\n"
        )
        assert json.loads((out / "operating_point.json").read_text()) == {
            "target_nu": 0.6, "nu": "inf", "tp": 0, "fp": 0, "fn": n_events, "tn": 0,
            "precision": 1.0, "recall": 0.0, "fpr": 0.0,
        }

    def test_scores_missing_event_unit(self, ws, tmp_path, capsys):
        scores_path = tmp_path / "scores.csv"
        write_scores_csv(scores_path, {"unitZZZ": {1: 0.5}})
        payload = {
            "io": {"events": str(ws["fleet"] / "events.csv"), "scores": str(scores_path)},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "no scores" in capsys.readouterr().err

    def test_prefix_without_match_returns_four(self, ws, tmp_path, capsys):
        cfg = self.baseline_cfg(ws, tmp_path, prefix="Z")
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "prefix" in capsys.readouterr().err

    def test_unknown_baseline_param(self, ws, tmp_path, capsys):
        payload = {
            "io": {
                "telemetry": str(ws["fleet"] / "telemetry.csv"),
                "events": str(ws["fleet"] / "events.csv"),
            },
            "curves": {"baseline_param": "nosuch"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "curves.baseline_param 'nosuch'" in capsys.readouterr().err

    def test_needs_scores_or_baseline(self, ws, tmp_path, capsys):
        payload = {"io": {"events": str(ws["fleet"] / "events.csv")}}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "baseline_param" in capsys.readouterr().err


class TestInputNamesStayInOutDir:
    """Column names and unit ids become output file names, so a name that
    could leave its directory is rejected before anything is written."""

    def rewrite(self, ws, tmp_path, edit):
        text = (ws["fleet"] / "telemetry.csv").read_text()
        (tmp_path / "telemetry.csv").write_text(edit(text))
        (tmp_path / "events.csv").write_text(
            (ws["fleet"] / "events.csv").read_text().replace("\nunit000,", "\n../escaped,")
        )
        payload = {"io": {"telemetry": "telemetry.csv", "events": "events.csv"}}
        return write_config(tmp_path / "c.json", {**payload, **PIPELINE_SECTIONS})

    def check(self, tmp_path, capsys, command, edit, ws, message):
        cfg = self.rewrite(ws, tmp_path, edit)
        out = tmp_path / "x" / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        path = (tmp_path / "telemetry.csv").resolve()
        assert capsys.readouterr().err == f"fleetwarn: {path}: {message}\n"
        written = sorted(p.name for p in tmp_path.rglob("*"))
        assert written == ["c.json", "events.csv", "telemetry.csv"]

    def test_column_name_climbing_out_of_detectors(self, ws, tmp_path, capsys):
        def edit(text):
            header, rest = text.split("\n", 1)
            return header.replace(",g0p0,", ",../../pwned,") + "\n" + rest

        message = (
            "line 1: column name '../../pwned' is not a file name: "
            "it must not be empty, '.' or '..', nor contain '/' or '\\'"
        )
        self.check(tmp_path, capsys, "run", edit, ws, message)

    def test_unit_id_climbing_out_of_folds(self, ws, tmp_path, capsys):
        def edit(text):
            return text.replace("\nunit000,", "\n../escaped,")

        message = (
            "line 2: unit id '../escaped' is not a file name: "
            "it must not be empty, '.' or '..', nor contain '/' or '\\'"
        )
        self.check(tmp_path, capsys, "crossval", edit, ws, message)

    def test_column_name_too_long_for_a_file(self, ws, tmp_path, capsys):
        name = "g" * 300

        def edit(text):
            header, rest = text.split("\n", 1)
            return header.replace(",g0p0,", f",{name},") + "\n" + rest

        message = (
            f"line 1: column name {name[:24]!r}... is not a file name: "
            "it is 300 UTF-8 bytes long, more than 250"
        )
        self.check(tmp_path, capsys, "run", edit, ws, message)

    def test_repeated_column_name(self, ws, tmp_path, capsys):
        def edit(text):
            header, rest = text.split("\n", 1)
            return header.replace(",g0p1,", ",g0p0,") + "\n" + rest

        self.check(tmp_path, capsys, "run", edit, ws, "line 1: repeated column name 'g0p0'")


def _second_row(edit_row):
    def edit(text):
        header, row, rest = text.split("\n", 2)
        return "\n".join([header, edit_row(row.split(",")), rest])

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            _second_row(lambda cells: ",".join([cells[0], "99999999999999999999", *cells[2:]])),
            "line 2: '99999999999999999999' in column 'flight' is outside the 64-bit integer range",
        ),
        (
            _second_row(lambda cells: ",".join([*cells[:2], "x" * 140_000, *cells[3:]])),
            "line 2: field larger than field limit (131072)",
        ),
    ],
    ids=["flight-outside-int64", "field-beyond-csv-limit"],
)
def test_telemetry_the_reader_cannot_hold_exits_2(ws, tmp_path, capsys, edit, message):
    TestInputNamesStayInOutDir().check(tmp_path, capsys, "run", edit, ws, message)


def test_crossval_warns_once_of_an_unused_quantile_override(tmp_path):
    # every fold retrains, but the warning is about the config, so it prints once
    sim = write_config(tmp_path / "sim.json", {"sim": {**SIM_SECTION, "units": 4}})
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "fleet")]) == 0
    detect = {**PIPELINE_SECTIONS["detect"], "quantile_overrides": {"g0p1": 0.5}}
    run = write_config(
        tmp_path / "run.json",
        {
            "io": {"telemetry": "fleet/telemetry.csv", "events": "fleet/events.csv"},
            **PIPELINE_SECTIONS,
            "detect": detect,
        },
    )
    proc = run_python("-m", "fleetwarn", "crossval", "--config", run, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    warned = [
        line for line in proc.stderr.splitlines()
        if "UserWarning: detect.quantile_overrides key 'g0p1' leads no group; ignored" in line
    ]
    assert len(warned) == 1, proc.stderr


class TestInputFileErrors:
    """Bad events and scores files exit 2, naming the file and the line."""

    def curves(self, tmp_path, events, scores):
        (tmp_path / "events.csv").write_text("unit_id,onset,end,code\n" + events)
        (tmp_path / "scores.csv").write_text("unit_id,flight,score\n" + scores)
        payload = {"io": {"events": "events.csv", "scores": "scores.csv"}}
        cfg = write_config(tmp_path / "c.json", payload)
        return main(["curves", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "events, message",
        [
            ("u1,5,6,E1\nu1,x,5,E1\n", "line 3: cannot parse 'x' in column 'onset'"),
            ("u1,5,3,E1\n", "line 2: event end 3 must exceed onset 5"),
            ("u1,5,6\n", "line 2: row arity 3 != 4"),
            (
                "u1,5,99999999999999999999,E1\n",
                "line 2: '99999999999999999999' in column 'end' is outside the 64-bit integer range",
            ),
            ("u1,5,6,E1\nu1,7,8," + "E" * 140_000 + "\n",
             "line 3: field larger than field limit (131072)"),
        ],
    )
    def test_bad_events(self, tmp_path, capsys, events, message):
        assert self.curves(tmp_path, events, "u1,1,0.5\n") == 2
        path = (tmp_path / "events.csv").resolve()
        assert capsys.readouterr().err == f"fleetwarn: {path}: {message}\n"

    @pytest.mark.parametrize(
        "scores, message",
        [
            ("u1,1,0.5\nu1,2,inf\n", "line 3: infinite value in column 'score'"),
            ("u1,1,-inf\n", "line 2: infinite value in column 'score'"),
            ("u1,1,0.9\nu1,2,0.5\nu1,1,0.1\n", "line 4: repeated flight 1 of unit 'u1'"),
            ("u1,x,0.5\n", "line 2: cannot parse 'x' in column 'flight'"),
            ("u1,1,high\n", "line 2: cannot parse 'high' in column 'score'"),
            (
                "u1,-99999999999999999999,0.5\n",
                "line 2: '-99999999999999999999' in column 'flight' is outside the 64-bit "
                "integer range",
            ),
        ],
    )
    def test_bad_scores(self, tmp_path, capsys, scores, message):
        assert self.curves(tmp_path, "u1,5,6,E1\n", scores) == 2
        path = (tmp_path / "scores.csv").resolve()
        assert capsys.readouterr().err == f"fleetwarn: {path}: {message}\n"

    def test_nan_scores_are_missing(self, tmp_path):
        assert self.curves(tmp_path, "u1,5,6,E1\n", "u1,1,nan\nu1,5,0.5\nu1,6,nan\n") == 0
        rows = read_rows(tmp_path / "o" / "curves.csv")
        assert [r[0] for r in rows[1:]] == ["inf", "0.5"]


@pytest.mark.parametrize("command", ["run", "crossval", "curves"])
def test_seed_is_a_simulate_flag(ws, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exit:
        main([command, "--config", ws["run_cfg"], "--out", str(tmp_path / "o"), "--seed", "1"])
    assert exit.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "crossval"])
def test_a_gap_in_the_flight_counter_exits_2(tmp_path, capsys, monkeypatch, command):
    # the event layout keeps 9 bytes for every flight of each unit's range, gaps included
    rows = [f"{u},{t},cruise,{math.sin(t + k):.3f},{math.cos(2 * t - k):.3f}"
            for k, u in enumerate(("u0", "u1")) for t in range(200)]
    (tmp_path / "telemetry.csv").write_text(
        "unit_id,flight,phase,a,b\n" + "\n".join(rows) + f"\nu1,{10**12},cruise,0.5,0.5\n"
    )
    (tmp_path / "events.csv").write_text("unit_id,onset,end,code\nu0,120,121,E1\nu1,150,151,E1\n")
    cfg = write_config(tmp_path / "c.json", {
        "io": {"telemetry": "telemetry.csv", "events": "events.csv"}, "match": {"w": 10},
    })

    def masked(*args):
        raise AssertionError("the gap was not refused before the normal-regime masks")

    monkeypatch.setattr("fleetwarn.pipeline.select_normal_regime", masked)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # crossval fails in its first fold, which trains on u1 alone
    flights = 10**12 + 1 + (200 if command == "run" else 0)
    assert capsys.readouterr().err == (
        f"fleetwarn: the fleet axis would hold {flights} flights, more than 2147483647; "
        f"the widest unit, 'u1', spans flights 0 to {10**12}\n"
    )

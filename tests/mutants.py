"""Mutation checks: each mutant breaks one rule of the package, and the tests
named for it must fail.

Usage (from the repository root)::

    python3 tests/mutants.py [NAME ...]

A mutant is a file, an exact text in it, the text that replaces it, and the
ids of the tests that must then fail.  The working tree's ``src/``,
``tests/``, ``perfbench/`` and ``pyproject.toml`` are copied into a
temporary directory, so the repository itself is never changed.  The named
tests first run on the unchanged copy, where they must pass; then each
mutant (or each one named) is applied alone, its tests run, and its file is
restored.  A mutant whose old text no longer occurs exactly once is reported
as stale and skipped: the code it breaks has changed, and the mutant must be
rewritten.  One line is printed per mutant: killed, SURVIVED (naming the
tests that passed) or stale.  The exit code is 1 if a test fails on the
unchanged copy or a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "alarms writer drops a final one-row block", "src/fleetwarn/core.py",
        "for start in range(0, order.size, CSV_BLOCK_ROWS):",
        "for start in range(0, order.size - 1, CSV_BLOCK_ROWS):",
        ("tests/test_core.py::TestCsvRoundTrips::test_alarms_are_equal_across_block_seams[1]",),
    ),
    Mutant(
        "normal-regime masks from all events", "src/fleetwarn/pipeline.py",
        "masks = [select_normal_regime(p, target_events,",
        "masks = [select_normal_regime(p, events,",
        ("tests/test_metamorphic.py::test_cli_run_ignores_non_target_events",),
    ),
    Mutant(
        "thresholds from every row", "src/fleetwarn/pipeline.py",
        "[values[rows] for (_, values)",
        "[values for (_, values)",
        ("tests/test_pipeline.py::test_training_equals_the_whole_panel_chain_bit_for_bit",
         "tests/test_pipeline.py::test_alarms_fire_exactly_above_threshold_fitted_on_same_scores"),
    ),
    Mutant(
        "positions without the unit's start", "src/fleetwarn/core.py",
        "return flights - self.first[i] + self.starts[i]",
        "return flights - self.first[i]",
        ("tests/test_detect.py::TestBinarize::test_flights_at_both_ends_of_int64",
         "tests/test_matching.py::TestLayout::test_regions_partition_range"),
    ),
    Mutant(
        "self-check passes when any planted flight fires", "src/fleetwarn/simgen.py",
        "np.isin(planted, alarm.positions).all()",
        "np.isin(planted, alarm.positions).any()",
        ("tests/test_simgen.py::TestInjection::"
         "test_verified_only_when_every_planted_flight_fires[0.75-False]",
         "tests/test_simgen.py::TestInjection::test_verified_equals_the_stacked_reference"),
    ),
    Mutant(
        "mutual information as a difference of logs", "src/fleetwarn/grouping.py",
        "np.log(joint[nz] / np.outer(pi, pj)[nz])",
        "(np.log(joint[nz]) - np.log(np.outer(pi, pj)[nz]))",
        ("tests/test_grouping.py::TestMutualInfoBlocks::test_row_source_equals_the_stacked_matrix",),
    ),
    Mutant(
        "curve flights clamped at 0", "src/fleetwarn/evaluation.py",
        "flight, value, unit = flight[scored], value[scored], unit[scored]",
        "flight, value, unit = np.maximum(flight[scored], 0), value[scored], unit[scored]",
        ("tests/test_evaluation.py::TestCurveReference::test_int64_bound_flights_and_onsets",),
    ),
    Mutant(
        "write_json through json.dumps", "src/fleetwarn/core.py",
        '_write_text(path, [*map("".join, _blocks(chunks)), "\\n"])',
        '_write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\\n"])',
        ("tests/test_core.py::TestOutputEncodings::test_write_json_takes_about_its_text",),
    ),
    Mutant(
        "_stdtr always falls back", "src/fleetwarn/matching.py",
        'if "scipy.special" not in sys.modules:',
        "if False:",
        ("tests/test_cli.py::test_p_values_load_only_the_compiled_ufuncs_of_scipy_special",),
    ),
    Mutant(
        "own_fields shares the caller's array", "src/fleetwarn/core.py",
        "value = np.array(value, dtype=kind, copy=True)",
        "value = np.asarray(value, dtype=kind)",
        ("tests/test_core.py::test_array_fields_are_read_only_copies[AlarmSeries]",
         "tests/test_core.py::test_array_fields_are_read_only_copies[SubspaceDetector]"),
    ),
    Mutant(
        "rank read from the basis rows", "src/fleetwarn/detect.py",
        "return self.basis.shape[1]",
        "return self.basis.shape[0]",
        ("tests/test_detect.py::TestDetectorJson::test_round_trip",
         "tests/test_detect.py::TestBinarize::test_alarm_id_records_group_rank_quantile"),
    ),
    Mutant(
        "curve point names out of the column order", "src/fleetwarn/evaluation.py",
        'namedtuple("CurvePoint", [f.name for f in fields(Curve)])',
        'namedtuple("CurvePoint", sorted(f.name for f in fields(Curve)))',
        ("tests/test_evaluation.py::TestCurveSummaries::test_csv_golden_bytes",),
    ),
    Mutant(
        "true and false firing kinds swapped", "src/fleetwarn/matching.py",
        "kind = FiringKind.FALSE if s >= 0 else FiringKind.TRUE if o >= 0 else",
        "kind = FiringKind.TRUE if s >= 0 else FiringKind.FALSE if o >= 0 else",
        ("tests/test_matching.py::TestClassify::test_base_example_labels",),
    ),
    Mutant(
        "irrelevant count keeps the false firings", "src/fleetwarn/matching.py",
        "irrelevant = pos.size - true_pos.size - false_ids.size",
        "irrelevant = pos.size - true_pos.size",
        ("tests/test_matching.py::TestMatchStats::test_base_example_counters",),
    ),
    Mutant(
        "false runs cross the zones", "src/fleetwarn/matching.py",
        "        for _, (lo, hi) in spans:\n            if lo < hi:\n"
        "                painted[lo:hi] = True\n",
        "",
        ("tests/test_matching.py::TestLayout::test_base_regions",),
    ),
    Mutant(
        "admission without the gate", "src/fleetwarn/synth.py",
        "        if not self.passes_gate(stats):\n            return False\n",
        "",
        ("tests/test_synth.py::TestFilters::test_gate_needs_repeat_coverage",
         "tests/test_synth.py::TestFilters::test_gate_needs_significance"),
    ),
    Mutant(
        "no near-tie runs of eigenvalues", "src/fleetwarn/detect.py",
        "while j < len(vals) and vals[j - 1] - vals[j] < 1e-10:",
        "while j < len(vals) and False:",
        ("tests/test_detect.py::TestFitSubspace::test_near_tied_eigenvalues_sort_by_their_vectors"
         "[tie]",),
    ),
    Mutant(
        "events and scores headers unchecked", "src/fleetwarn/core.py",
        "if next(rows, (0, None))[1] != list(header):",
        "if next(rows, (0, None)) is None:",
        tuple(f"tests/test_cli.py::TestInputFileErrors::test_wrong_header[{case}]"
              for case in ("events-renamed", "events-empty", "scores-short", "scores-long")),
    ),
    Mutant(
        "missing io keys unchecked", "src/fleetwarn/cli.py",
        'if value is None:\n            raise ConfigError(f"config is missing io.{name}")',
        'if False:\n            raise ConfigError(f"config is missing io.{name}")',
        tuple(f"tests/test_cli.py::test_a_missing_input_path_is_named[{case}]"
              for case in ("run-telemetry", "run-events", "crossval-telemetry",
                           "curves-events", "curves-telemetry")),
    ),
    Mutant(
        "no NaN for a constant pair column", "src/fleetwarn/grouping.py",
        '    if sxx <= 0.0 or syy <= 0.0:\n        return float("nan")\n',
        "",
        ("tests/test_grouping.py::TestPearson::test_constant_column_is_missing",),
    ),
    Mutant(
        "mutual information of pairs under two complete rows", "src/fleetwarn/grouping.py",
        "            if n < 2:\n                continue\n",
        "",
        tuple("tests/test_grouping.py::TestMutualInformation::"
              f"test_pair_with_fewer_than_two_complete_rows_is_missing[{case}]"
              for case in ("no-complete-row", "one-complete-row")),
    ),
    Mutant(
        "column-stats carry dropped between blocks", "src/fleetwarn/core.py",
        "    if carry is not None:\n        terms[0] += carry\n",
        "",
        ("tests/test_core.py::TestNormalize::test_blocked_fit_bit_equal_to_numpy_on_the_stack",),
    ),
    Mutant(
        "one column summed row by row", "src/fleetwarn/core.py",
        "blocks = rows.blocks if len(rows.columns) > 1 else lambda: iter([rows.gather([0])])",
        "blocks = rows.blocks",
        ("tests/test_core.py::TestNormalize::test_blocked_fit_bit_equal_to_numpy_on_the_stack",),
    ),
    Mutant(
        "Pearson blocks of 1,023 rows", "src/fleetwarn/core.py",
        "ROW_BLOCK = 1024",
        "ROW_BLOCK = 1023",
        ("tests/test_grouping.py::TestPearsonBlocks::test_row_source_equals_the_stacked_matrix",
         "tests/test_grouping.py::TestPearsonBlocks::test_cancelled_pairs_across_blocks"),
    ),
    Mutant(
        "Pearson shifts read from the first block only", "src/fleetwarn/grouping.py",
        "        if found.all():\n            break\n",
        "        break\n",
        ("tests/test_grouping.py::TestPearsonBlocks::"
         "test_a_column_first_observed_after_the_first_block",),
    ),
    Mutant(
        "curves reads the events before naming a missing telemetry", "src/fleetwarn/cli.py",
        "    if cfg.baseline_param is not None:\n        _require(telemetry=cfg.telemetry)",
        "    if False:\n        _require(telemetry=cfg.telemetry)",
        tuple("tests/test_cli.py::test_curves_refuses_a_missing_telemetry_before_reading_events"
              f"[{case}]" for case in ("absent", "bad-header", "directory")),
    ),
    Mutant(
        "curves takes both score sources", "src/fleetwarn/cli.py",
        "if cfg.scores is not None and cfg.baseline_param is not None:",
        "if False:",
        ("tests/test_cli.py::TestCurves::test_one_score_source_at_a_time[present]",
         "tests/test_cli.py::TestCurves::test_one_score_source_at_a_time[absent]"),
    ),
)


def pytest(copy: Path, tests: list[str]) -> tuple[int, str]:
    """Exit code and output of pytest on ``tests`` in ``copy``; the summary lists
    each failure and error."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1800,
    )
    return proc.returncode, proc.stdout + proc.stderr


def failed(output: str, test: str) -> bool:
    """Whether pytest's summary reports ``test``, or its file, failed or in error."""
    file = test.split("::")[0]
    for line in output.splitlines():
        for reported in (test, file):
            for kind in ("FAILED ", "ERROR "):
                if line == kind + reported or line.startswith(f"{kind}{reported} "):
                    return True
    return False


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="fleetwarn-mutants-") as name:
        copy = Path(name)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for item in COPIED:
            if (ROOT / item).is_dir():
                shutil.copytree(ROOT / item, copy / item, ignore=ignore)
            else:
                shutil.copy2(ROOT / item, copy / item)
        live = [m for m in chosen if (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1]
        tests = list(dict.fromkeys(t for m in live for t in m.tests))
        if tests:
            code, output = pytest(copy, tests)
            if code != 0:
                print("the unchanged copy fails its tests:\n" + output, file=sys.stderr)
                return 1
        survived = False
        for m in chosen:
            if m not in live:
                print(f"stale: {m.name} ({m.path} no longer holds its old text once)", flush=True)
                continue
            path = copy / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                _, output = pytest(copy, list(m.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            passed = [t for t in m.tests if not failed(output, t)]
            survived |= bool(passed)
            print(f"SURVIVED: {m.name} ({', '.join(passed)} passed)" if passed
                  else f"killed: {m.name}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Domain types and timeline arithmetic shared by the whole pipeline.

A fleet is a collection of :class:`TelemetryPanel` objects, one per unit
(aircraft, engine, ...).  Time is an integer flight counter; there is no
sub-flight resolution.  Missing measurements are IEEE NaN: NaN can never be
confused with a real measurement, and every downstream operation states its
missing policy explicitly.

All types here are immutable after construction.  The telemetry reader and
writer, and leave-one-unit-out's folds, split their work over forked
processes through one helper, ``_on_cpus``, with one rule for the process
count, ``_processes``; the processes share no objects.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import (
    Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence,
)

import numpy as np


class NoTargetEventsError(ValueError):
    """Raised when an operation requires target events and none are usable."""


@dataclass(frozen=True)
class TelemetryPanel:
    """Per-unit ordered flight records with named real-valued parameters.

    ``values`` is a T x P float matrix aligned with ``flights`` (rows) and
    ``columns`` (columns); NaN marks a missing measurement.  ``phases`` is an
    optional per-record label (e.g. the flight phase a snapshot was taken in).
    """

    unit_id: str
    flights: np.ndarray
    columns: tuple[str, ...]
    values: np.ndarray
    phases: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        flights = np.array(self.flights, dtype=np.int64, copy=True)
        values = np.array(self.values, dtype=np.float64, copy=True)
        columns = tuple(self.columns)
        if flights.ndim != 1:
            raise ValueError("flights must be one-dimensional")
        if values.ndim != 2 or values.shape != (flights.size, len(columns)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{flights.size} flights x {len(columns)} columns"
            )
        if np.any(flights[1:] <= flights[:-1]):  # np.diff would wrap in int64
            raise ValueError(f"flight indices not strictly increasing for unit {self.unit_id!r}")
        if len(set(columns)) != len(columns):
            raise ValueError("column names must be unique")
        if self.phases is not None and len(self.phases) != flights.size:
            raise ValueError("phases length does not match flight count")
        flights.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "flights", flights)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", columns)
        if self.phases is not None:
            object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def n_flights(self) -> int:
        return int(self.flights.size)

    def observation_range(self) -> tuple[int, int]:
        """Inclusive [first, last] flight of this unit."""
        if self.flights.size == 0:
            raise ValueError(f"unit {self.unit_id!r} has no flights")
        return int(self.flights[0]), int(self.flights[-1])

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter {name!r} on unit {self.unit_id!r}") from None

    def subvalues(self, names: Sequence[str]) -> np.ndarray:
        """Columns ``names`` as a row-major T x len(names) copy.

        Every score is computed on this layout: BLAS may round a
        column-major selection differently in the last ulp.
        """
        idx = [self.column_index(n) for n in names]
        return self.values.take(idx, axis=1)


@dataclass(frozen=True)
class EventRecord:
    """A failure occurrence on one unit's timeline, spanning [onset, end)."""

    unit_id: str
    onset: int
    end: int
    code: str

    def __post_init__(self) -> None:
        if self.end <= self.onset:
            raise ValueError(f"event end {self.end} must exceed onset {self.onset}")


@dataclass(frozen=True)
class MatchParams:
    """Event-matching geometry, all in flights.

    ``window`` is the predictive span before the horizon in which a firing
    anticipates an event; ``horizon`` is the minimum actionable distance
    before onset; ``delay`` extends the post-event zone in which firings are
    attributed to the event or its repair.
    """

    window: int = 20
    horizon: int = 0
    delay: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"match.w must be >= 1, got {self.window}")
        for key, value in (("h", self.horizon), ("m", self.delay)):
            if value < 0:
                raise ValueError(f"match.{key} must be >= 0, got {value}")


@dataclass(frozen=True)
class FleetAxis:
    """Every unit's flights laid end to end, units in sorted order: flight ``t``
    of ``units[i]`` sits at position ``starts[i] + t - first[i]``, and the unit
    fills positions ``[starts[i], starts[i + 1])``."""

    units: tuple[str, ...]
    first: tuple[int, ...]
    starts: tuple[int, ...]

    @classmethod
    def from_ranges(cls, ranges: Mapping[str, tuple[int, int]]) -> "FleetAxis":
        """The axis over each unit's inclusive [first, last] observation range."""
        units = tuple(sorted(ranges))
        sizes = [ranges[u][1] - ranges[u][0] + 1 for u in units]
        for unit, size in zip(units, sizes):
            if size < 1:
                raise ValueError(f"bad observation range for unit {unit!r}")
        return cls(units, tuple(ranges[u][0] for u in units), (0, *itertools.accumulate(sizes)))

    def shift(self, unit: str) -> int:
        """Position minus flight on ``unit``."""
        i = self.units.index(unit)
        return self.starts[i] - self.first[i]

    def locate(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The unit index and the flight of each position."""
        i = np.searchsorted(self.starts, positions, side="right") - 1
        shifts = np.array(self.starts[:-1], dtype=np.int64) - np.array(self.first, dtype=np.int64)
        return i, positions - shifts[i]


@dataclass(frozen=True, eq=False)
class AlarmSeries:
    """A named binary signal over the fleet: the sorted, read-only positions on
    ``axis`` where it fires; ``axis.locate`` reads them back as flights."""

    alarm_id: str
    axis: FleetAxis
    positions: np.ndarray

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.int64)
        if positions.ndim != 1 or (positions[1:] <= positions[:-1]).any() or (
                positions.size and not 0 <= positions[0] <= positions[-1] < self.axis.starts[-1]):
            raise ValueError("alarm positions must strictly increase within the axis")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    def total_firings(self) -> int:
        return self.positions.size

    def signature(self) -> bytes:
        """The positions as bytes: equal for equal firings on one axis, for deduplication."""
        return self.positions.tobytes()


class FiringKind(Enum):
    TRUE = "true"
    IRRELEVANT = "irrelevant"
    FALSE = "false"


@dataclass(frozen=True)
class FiringLabel:
    """Classification of one alarm firing against the event layout.

    True and irrelevant firings credit the owning events (``events`` holds
    per-unit event indices; a firing inside two overlapping predictive windows
    credits both).  False firings carry the index of their false segment.
    """

    unit_id: str
    flight: int
    kind: FiringKind
    events: tuple[int, ...] = ()
    segment: int | None = None


# --------------------------------------------------------------------------
# Normalization

@dataclass(frozen=True)
class ColumnStats:
    """Per-parameter location and scale estimated on reference rows.

    ``std`` is the population (1/N) standard deviation.  NaN mean marks a
    column with no reference observations; such columns pass through
    unchanged.  Zero std marks a constant column, which passes through
    centered.
    """

    columns: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        std = np.array(self.std, dtype=np.float64, copy=True)
        if mean.shape != (len(self.columns),) or std.shape != (len(self.columns),):
            raise ValueError("stats shape does not match columns")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_column_stats(
    panels: Sequence[TelemetryPanel],
    masks: Sequence[np.ndarray],
) -> ColumnStats:
    """Estimate per-column mean and population std over the masked rows.

    All panels must share the same column tuple.  Missing entries are
    ignored; a column with no observed reference value gets NaN mean.
    """
    if not panels:
        raise ValueError("no reference rows")
    columns = panels[0].columns
    rows = []
    for panel, mask in zip(panels, masks):
        if panel.columns != columns:
            raise ValueError("panels disagree on columns")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (panel.n_flights,):
            raise ValueError("mask length does not match panel")
        rows.append(panel.values[mask])
    stacked = np.vstack(rows) if rows else np.empty((0, len(columns)))
    if stacked.shape[0] == 0:
        raise ValueError("no reference rows")
    # An all-missing column is reduced as zeros, so that no reduction warns,
    # and then given NaN mean; the other columns' sums do not change.
    unobserved = np.isnan(stacked).all(axis=0)
    stacked[:, unobserved] = 0.0  # stacked is a fresh copy
    with np.errstate(invalid="ignore"):
        mean = np.nanmean(stacked, axis=0)
        std = np.nanstd(stacked, axis=0)  # population (1/N)
    mean[unobserved] = np.nan
    std = np.where(np.isnan(std), 0.0, std)
    return ColumnStats(columns=columns, mean=mean, std=std)


def apply_column_stats(panel: TelemetryPanel, stats: ColumnStats) -> TelemetryPanel:
    """Z-score ``panel`` with precomputed stats; missing stays missing."""
    if panel.columns != stats.columns:
        raise ValueError("stats columns do not match panel columns")
    # A column without reference data passes through; a constant one is only centered.
    no_ref = np.isnan(stats.mean)
    m = np.where(no_ref, 0.0, stats.mean)
    s = np.where(no_ref | (stats.std == 0.0), 1.0, stats.std)
    return replace(panel, values=(panel.values - m) / s)


# --------------------------------------------------------------------------
# File formats: every file is written by write_json or _write_text, and every
# CSV text by _csv_text.  Every CSV float cell comes from csv_float, and every
# JSON number that can be NaN or infinite from json_number.
#
# Telemetry: header `unit_id,flight,phase,<param>...`; missing = empty cell.
# Events:    header `unit_id,onset,end,code`.
# Scores:    header `unit_id,flight,score`.
# All UTF-8, comma-separated, `.` decimal point.

def csv_float(x: float) -> str:
    """A float CSV cell: its repr, or an empty cell for NaN."""
    return "" if math.isnan(x) else repr(float(x))


def json_number(x: float) -> float | str | None:
    """A JSON-safe number: an infinity becomes "inf", NaN becomes null."""
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return None
    return x


def write_json(path: str | Path, payload: Any) -> None:
    """``payload`` as JSON with 2-space indent, sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Rows of a CSV joined, or handed to csv.writer, at a time.  Blocks of 4,096
# rows were no faster, and raised the traced peak of writing a 106,000-row
# alarms.csv by 0.9 MB and of a 32,001-row curves.csv by 3.9 MB.
CSV_BLOCK_ROWS = 1024


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    """``rows`` as csv.writer writes them with LF line ends, every cell of a
    row that holds a CR quoted.

    The rows are joined by hand when the joined text shows that no cell
    needs quoting: it holds no '"' or CR, one LF between rows, one comma
    between cells, and no empty line (csv writes a row of one empty cell as
    ``""``).  Any other block goes through csv.writer.  Its minimal quoting
    leaves a lone CR bare, which csv reads as a line end; a row that holds a
    CR is therefore written with every cell quoted.
    """
    text = "\n".join(map(",".join, rows))
    if ('"' in text or "\r" in text or text.count("\n") != len(rows) - 1
            or text.count(",") != sum(map(len, rows)) - len(rows) or "\n\n" in f"\n{text}\n"):
        buffer = io.StringIO()
        minimal, quote_all = (csv.writer(buffer, lineterminator="\n", quoting=quoting)
                              for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL))
        for row in rows:
            (quote_all if any("\r" in cell for cell in row) else minimal).writerow(row)
        return buffer.getvalue()
    return text + "\n"


def _csv_blocks(rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The CSV text of ``rows``, ``CSV_BLOCK_ROWS`` rows at a time."""
    rows = iter(rows)
    while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
        yield _csv_text(block)


def _write_text(path: str | Path, texts: Iterable[str]) -> None:
    """``texts`` in order as a UTF-8 file; a write that fails leaves no file."""
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            fh.writelines(texts)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A UTF-8 CSV with LF line ends: the header, then each row of cells.

    Every cell is a ``str``; the bytes are those of ``csv.writer``, except
    that a row that holds a CR has every cell quoted.
    """
    _write_text(path, _csv_blocks(itertools.chain([header], rows)))


def _parse_cell(name: str, cell: str, parse: Callable[[str], Any] = float) -> Any:
    """``parse(cell)``, rejecting text it cannot parse and infinite values."""
    try:
        value = parse(cell)
    except ValueError:
        raise ValueError(f"cannot parse {cell!r} in column {name!r}") from None
    if parse is int and not -2**63 <= value < 2**63:
        raise ValueError(f"{cell!r} in column {name!r} is outside the 64-bit integer range")
    if math.isinf(value):
        raise ValueError(f"infinite value in column {name!r}")
    return value


def _csv_rows(path: str | Path, fh: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Each csv row with its line number; csv's own refusals fail with the line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _text(path: str | Path, data: bytes | None) -> io.TextIOWrapper:
    """``path``, or its bytes ``data`` if they were read before, as text for csv."""
    binary = open(path, "rb") if data is None else io.BytesIO(data)
    return io.TextIOWrapper(binary, encoding="utf-8", newline="")


def _read_csv(path: str | Path, header: Sequence[str], parse: Callable[[list[str]], Any],
              data: bytes | None = None) -> list:
    """``parse(row)`` of each non-blank row below ``header`` in ``_text(path, data)``.

    A row of the wrong width, or one that csv or ``parse`` rejects, fails as
    ``<path>: line N: <reason>``.
    """
    with _text(path, data) as fh:
        rows = _csv_rows(path, fh)
        if next(rows, (0, None))[1] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        records = []
        for line, row in rows:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"row arity {len(row)} != {len(header)}")
                records.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
    return records


def _telemetry_rows(panels: Sequence[TelemetryPanel]) -> Iterator[list[str]]:
    for p in panels:
        for flight, phase, values in zip(
            p.flights.tolist(), p.phases or (None,) * p.n_flights, p.values.tolist()
        ):
            yield [p.unit_id, str(flight), phase or "", *map(csv_float, values)]


def _telemetry_text(panels: Sequence[TelemetryPanel]) -> str:
    return "".join(_csv_blocks(_telemetry_rows(panels)))


def _processes(*caps: int) -> int:
    """One process per CPU this process may run on, at most each of ``caps``
    and at least one; 1 where fork or CPU affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), *caps))


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):  # absent or closed
            stream.flush()


def _child(fn: Callable[[Any], Any], share: Any, read: int, write: int) -> NoReturn:
    """The life of a forked child: it sends ``fn(share)`` pickled down the
    pipe and exits 0, or prints the traceback and exits 1."""
    code = 1
    try:
        os.close(read)  # so that a write fails, rather than waits, if the parent dies
        view = memoryview(pickle.dumps(fn(share), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(write, view):]
        code = 0
    except BaseException:  # reported by the exit code: a child never returns into the caller
        import traceback

        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def _on_cpus(where: str | Path, doing: str | Sequence[str], fn: Callable[[Any], Any],
             shares: Sequence[Any]) -> list:
    """``[fn(share) for share in shares]``, each share but the first run in a
    forked process.

    A forked child starts at once, with the parent's data already in its
    memory; a spawned one would import numpy again.  ``fn`` takes no lock
    that another thread may hold.  An ``fn`` that calls BLAS runs under
    ``_one_blas_thread``, entered before this call: each child inherits the
    cap, and without it each would start its own OpenBLAS thread pool.
    stdout and stderr are flushed before each fork, and a child ends with
    ``os._exit``, so it runs no atexit handler and writes no buffered output
    twice.  A child that raises, dies or sends less than its whole pickle
    raises ``ChildProcessError``, ``<where>: the process <doing> exited with
    code N``; ``doing`` tells what every process does, or what each does,
    one entry per share.  If this process's share or a child fails, every
    child is killed, then all are reaped: a child may be blocked writing
    into a pipe that nobody reads any more.
    """
    doings = [doing] * len(shares) if isinstance(doing, str) else doing
    children: dict[int, BinaryIO] = {}  # each unreaped child's pid and read end, in share order

    def reap(pid: int) -> int:
        children.pop(pid).close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    try:
        for share in shares[1:]:
            read, write = os.pipe()
            _flush_std_streams()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, share, read, write)
            os.close(write)
            children[pid] = open(read, "rb")
        results = [fn(share) for share in shares[:1]]
        for pid, what in zip(list(children), doings[1:]):
            data = children[pid].read()
            code = reap(pid)
            with contextlib.suppress(pickle.UnpicklingError, EOFError):  # a pickle cut short
                if code == 0:
                    results.append(pickle.loads(data))
                    continue
            raise ChildProcessError(f"{where}: the process {what} exited with code {code}")
        return results
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in list(children):
            reap(pid)


# The getter and setter of a BLAS library's thread count.
_BlasThreads = tuple[Callable[[], int], Callable[[int], None]]


def _blas_threads() -> _BlasThreads | None:
    """The getter and setter of the thread count of numpy's OpenBLAS, or None.

    numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``
    and export its thread count as ``scipy_openblas_{get,set}_num_threads64_``.
    The library is opened only if numpy has already loaded it
    (``RTLD_NOLOAD``); any other BLAS (Accelerate, MKL, a system OpenBLAS)
    gives None.
    """
    import ctypes  # only commands that train folds in processes need it

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread(threads: _BlasThreads | None) -> Iterator[None]:
    """Caps OpenBLAS at one thread inside the block, given ``_blas_threads()``,
    and restores the count it had; with None it does nothing."""
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def write_telemetry_csv(path: str | Path, panels: Sequence[TelemetryPanel]) -> None:
    """The panels' rows, units in sorted order, under the telemetry header.

    The units are cut into contiguous chunks of about equal row counts, one
    per process that ``_processes`` allows, at most one per CSV block and
    one per unit.  ``_on_cpus`` formats them, and the chunks are written in
    order.  A failed chunk raises here before the file is opened.
    """
    panels = sorted(panels, key=lambda p: p.unit_id)
    if not panels:
        raise ValueError("no panels to write")
    columns = panels[0].columns
    if any(p.columns != columns for p in panels):
        raise ValueError("panels disagree on columns")
    ends = np.cumsum([p.n_flights for p in panels])
    k = _processes(-(-int(ends[-1]) // CSV_BLOCK_ROWS), len(panels))
    # Chunk i ends after the unit whose rows reach (i + 1) / k of all rows.
    cuts = [0, *(np.searchsorted(ends, ends[-1] * np.arange(1, k) / k) + 1).tolist(), len(panels)]
    chunks = [panels[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]
    texts = _on_cpus(path, "formatting its rows", _telemetry_text, chunks)
    _write_text(path, [_csv_text([["unit_id", "flight", "phase", *columns]]), *texts])


# "<name>.json" must fit the common 255-byte limit on a file name.
_MAX_NAME_BYTES = 250


def _check_name(what: str, name: str) -> None:
    """Reject a name that could not stand alone as the name of an output file."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"{what} {name!r} is not a file name: it must not be empty, "
                         f"'.' or '..', nor contain '/' or '\\'")
    size = len(name.encode("utf-8"))
    if size > _MAX_NAME_BYTES:
        raise ValueError(f"{what} {name[:24]!r}... is not a file name: it is {size} "
                         f"UTF-8 bytes long, more than {_MAX_NAME_BYTES}")


def _telemetry_columns(path: str | Path, header: list[str] | None, line: int) -> tuple[str, ...]:
    """The parameter columns named by a telemetry header, checked as file names."""
    if header is None or header[:3] != ["unit_id", "flight", "phase"]:
        raise ValueError(f"{path}: expected header unit_id,flight,phase,<param>...")
    columns = tuple(header[3:])
    seen: set[str] = set()
    try:
        for name in columns:
            _check_name("column name", name)
            if name in seen:
                raise ValueError(f"repeated column name {name!r}")
            seen.add(name)
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None
    return columns


def _plain(line: str, limit: int) -> bool:
    """Whether the bulk telemetry parse may split ``line`` by hand.

    csv quoting and CR line ends need the csv module; np.loadtxt strips
    U+001C..U+001F around a number, which float() rejects; and a line longer
    than csv's field limit ``limit`` may hold a field that csv refuses.
    """
    return not (len(line) > limit or '"' in line or "\r" in line
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line)


def _nan_filled(tail: str) -> str:
    """Comma-separated cells with each empty cell spelled ``nan``."""
    padded = f",{tail},"
    if ",," not in padded:
        return tail
    return padded.replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]


class _Rows(NamedTuple):
    """Telemetry rows in file order.  Each unit id and phase is a code into
    its distinct texts, listed in the order they first appear: one object
    per text, since a copy per row would outlive the read in the panels'
    phases and scatter the heap."""

    units: list[str]
    unit_codes: np.ndarray
    flights: np.ndarray
    phases: list[str]
    phase_codes: np.ndarray
    values: np.ndarray


def _coded(texts: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts in the order they first appear, and each text's index among them."""
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(t, len(index)) for t in texts), dtype=np.intp)
    return list(index), codes


def _bulk_rows(fh: BinaryIO, width: int, size: int | None) -> _Rows:
    """The rows of a plain telemetry file in the next ``size`` bytes of
    ``fh``, or in all the rest if ``size`` is None; ``fh`` stands at a line start.

    The lines are read one at a time, and one streaming ``np.loadtxt`` parses
    their numeric cells.  Text that is not plain, or an invalid row, raises a
    ValueError or OverflowError that names no line; the caller then reads the
    file again with ``_checked_rows``.
    """
    units: dict[str, int] = {}
    phases: dict[str, int] = {}
    unit_codes: list[int] = []
    flights: list[int] = []
    phase_codes: list[int] = []
    limit = csv.field_size_limit()

    def lines() -> Iterator[bytes]:
        if size is None:
            yield from fh
            return
        left = size
        while left > 0 and (line := fh.readline()):
            left -= len(line)
            yield line

    def tails() -> Iterator[str]:
        for line in map(bytes.decode, lines()):
            if line == "\n":
                continue
            if not _plain(line, limit):
                raise ValueError("not plain text")
            unit, flight, phase, tail = line.removesuffix("\n").split(",", 3)
            unit_codes.append(units.setdefault(unit, len(units)))
            flights.append(int(flight))
            phase_codes.append(phases.setdefault(phase, len(phases)))
            yield _nan_filled(tail)

    rows = tails()
    first = next(rows, None)  # loadtxt warns of an input without rows
    if first is None:
        values = np.empty((0, width))
    else:
        values = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                            dtype=np.float64, ndmin=2)
    if values.shape[1] != width:
        raise ValueError("rows of the wrong width")
    for unit in units:
        _check_name("unit id", unit)
    if np.isinf(values).any():
        raise ValueError("infinite value")
    return _Rows(list(units), np.array(unit_codes, dtype=np.intp),
                 np.array(flights, dtype=np.int64), list(phases),
                 np.array(phase_codes, dtype=np.intp), values)


def _range_rows(path: str | Path, data: bytes | None, width: int,
                span: tuple[int, int | None]) -> _Rows | None:
    """The ``_bulk_rows`` of the ``size`` bytes from ``start`` of ``path``,
    or of its bytes ``data``, where ``span`` is ``(start, size)``; None if a
    row there needs the row loop."""
    start, size = span
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        fh.seek(start)
        try:
            return _bulk_rows(fh, width, size)
        except (ValueError, OverflowError):
            return None


def _joined(parts: Sequence[_Rows]) -> _Rows:
    """The rows of consecutive byte ranges as one; each distinct unit id or
    phase stays one object."""
    if len(parts) == 1:
        return parts[0]
    units: dict[str, int] = {}
    phases: dict[str, int] = {}

    def recoded(index: dict[str, int], texts: list[str], codes: np.ndarray) -> np.ndarray:
        return np.array([index.setdefault(t, len(index)) for t in texts], dtype=np.intp)[codes]

    unit_codes = np.concatenate([recoded(units, p.units, p.unit_codes) for p in parts])
    phase_codes = np.concatenate([recoded(phases, p.phases, p.phase_codes) for p in parts])
    return _Rows(list(units), unit_codes, np.concatenate([p.flights for p in parts]),
                 list(phases), phase_codes, np.concatenate([p.values for p in parts]))


# Bytes of telemetry rows below which a range is not worth a process.  On 2
# vCPUs (Python 3.11.7) a fork plus reap of a child that sends back one byte
# took 3-5 ms, and up to 20 ms on a loaded machine; the bulk parse reads
# about 37 MB/s.
# A second process thus saves its 20 ms from about 2 x 37 MB/s x 20 ms = 1.5 MB
# of rows, that is from ranges of about 0.75 MB: 1 MiB leaves a margin.
READ_RANGE_BYTES = 1 << 20


def _range_starts(fh: BinaryIO, start: int, size: int, k: int) -> list[int]:
    """Where k ranges of about equal parts of the ``size`` bytes from
    ``start`` begin, each moved on to the next line start; a range left
    empty is dropped.  ``fh`` stands at ``start`` again."""
    cuts = []
    for i in range(1, k):
        fh.seek(start + size * i // k)
        fh.readline()
        cuts.append(fh.tell())
    fh.seek(start)
    return [start, *(c for c in dict.fromkeys(cuts) if c < start + size)]


def _plain_rows(path: str | Path, data: bytes | None = None) -> tuple[tuple[str, ...], _Rows]:
    """The columns and rows of a plain telemetry file, or of its bytes ``data``.

    The rows are cut into byte ranges that start at line starts, one per
    process that ``_processes`` allows while each range holds at least
    ``READ_RANGE_BYTES``.  ``_on_cpus`` parses them, and the ranges are
    joined in file order.  A range that is not plain or holds an invalid row
    raises a ValueError that names no line.
    """
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        header = fh.readline().decode()
        if not _plain(header, csv.field_size_limit()):
            raise ValueError("not plain text")
        columns = _telemetry_columns(path, header.removesuffix("\n").split(","), 1)
        if not columns:
            raise ValueError("no parameter columns")
        start = fh.tell()
        if data is None:
            body = os.fstat(fh.fileno()).st_size - start
            starts = _range_starts(fh, start, body, _processes(body // READ_RANGE_BYTES))
        else:
            starts = [start]  # bytes read from a pipe: one range
    sizes = [b - a for a, b in zip(starts, starts[1:])] + [None]  # the last runs to the end
    parts = _on_cpus(path, "reading its rows", partial(_range_rows, path, data, len(columns)),
                     list(zip(starts, sizes)))
    if None in parts:
        raise ValueError("not plain text")
    return columns, _joined(parts)


def _checked_rows(path: str | Path, data: bytes | None = None) -> tuple[tuple[str, ...], _Rows]:
    """What ``_plain_rows`` returns, parsed one row at a time by ``_read_csv``.

    It reads any text ``csv`` reads, and raises the first invalid row as
    ``<path>: line N: <reason>``.
    """
    with _text(path, data) as fh:
        line, header = next(_csv_rows(path, fh), (0, None))
        columns = _telemetry_columns(path, header, line)
    previous: dict[str, int] = {}

    def parse(row: list[str]) -> tuple[str, int, str, list[float]]:
        unit, flight = row[0], _parse_cell("flight", row[1], int)
        if unit not in previous:
            _check_name("unit id", unit)
        elif flight == previous[unit]:
            raise ValueError(f"repeated flight {flight} of unit {unit!r}")
        elif flight < previous[unit]:
            raise ValueError(f"flight {flight} of unit {unit!r} follows flight {previous[unit]}")
        previous[unit] = flight
        cells = [_parse_cell(name, c) if c else math.nan for name, c in zip(columns, row[3:])]
        return unit, flight, row[2], cells

    rows = _read_csv(path, header, parse, data)
    units, flights, phases, cells = zip(*rows) if rows else ((),) * 4
    values = np.array(cells, dtype=np.float64).reshape(len(rows), len(columns))
    flights = np.array(flights, dtype=np.int64)
    return columns, _Rows(*_coded(units), flights, *_coded(phases), values)


def _panels(columns: tuple[str, ...], rows: _Rows) -> list[TelemetryPanel]:
    """The rows grouped into one panel per unit, in the order units first appear.

    ``TelemetryPanel`` raises a ValueError that names no line if a unit's
    flights do not strictly increase or its rows have the wrong width.
    """
    codes, flights, values = rows.unit_codes, rows.flights, rows.values
    phases = np.array([text or None for text in rows.phases], dtype=object)[rows.phase_codes]
    if (codes[1:] < codes[:-1]).any():  # some unit's rows are not contiguous
        order = np.argsort(codes, kind="stable")
        codes, flights, phases, values = codes[order], flights[order], phases[order], values[order]
    ends = np.cumsum(np.bincount(codes, minlength=len(rows.units))).tolist()
    panels, start = [], 0
    for unit, end in zip(rows.units, ends):
        panels.append(TelemetryPanel(unit_id=unit, flights=flights[start:end], columns=columns,
                                     values=values[start:end], phases=phases[start:end].tolist()))
        start = end
    return panels


def read_telemetry_csv(path: str | Path) -> list[TelemetryPanel]:
    """One panel per unit, in the order the units first appear.

    A plain file is parsed in bulk, in byte ranges on every CPU the process
    may run on.  Quoted cells, CR line ends and every invalid file take the
    row loop, which accepts the same cell text and raises the first invalid
    row as ``<path>: line N: <reason>``.  A forked process that fails raises
    ``ChildProcessError``.  A pipe, which can be read only once, is read
    into memory first and parsed in one range.
    """
    with open(path, "rb") as fh:
        data = None if fh.seekable() else fh.read()
    try:
        return _panels(*_plain_rows(path, data))
    except (ValueError, OverflowError):  # OverflowError: a flight outside int64
        return _panels(*_checked_rows(path, data))


_EVENTS_HEADER = ("unit_id", "onset", "end", "code")


def write_events_csv(path: str | Path, events: Sequence[EventRecord]) -> None:
    rows = ([ev.unit_id, str(ev.onset), str(ev.end), ev.code] for ev in events)
    write_csv(path, _EVENTS_HEADER, rows)


def _parse_event(row: list[str]) -> EventRecord:
    onset = _parse_cell("onset", row[1], int)
    return EventRecord(row[0], onset, _parse_cell("end", row[2], int), row[3])


def read_events_csv(path: str | Path) -> list[EventRecord]:
    return _read_csv(path, _EVENTS_HEADER, _parse_event)


def read_scores_csv(path: str | Path) -> dict[str, dict[int, float]]:
    """Per-unit flight -> score; NaN scores are missing and left out.

    Infinite scores and a flight listed twice for one unit are rejected.
    """
    out: dict[str, dict[int, float]] = {}
    seen: set[tuple[str, int]] = set()

    def parse(row: list[str]) -> None:
        unit, flight = row[0], _parse_cell("flight", row[1], int)
        score = _parse_cell("score", row[2])
        if (unit, flight) in seen:
            raise ValueError(f"repeated flight {flight} of unit {unit!r}")
        seen.add((unit, flight))
        if not math.isnan(score):
            out.setdefault(unit, {})[flight] = score

    _read_csv(path, ("unit_id", "flight", "score"), parse)
    return out


def write_alarms_csv(path: str | Path, alarms: Iterable[AlarmSeries]) -> None:
    """One row per firing, sorted by unit, flight and alarm id; the alarms that
    fire share one fleet axis, whose positions run in unit then flight order."""
    alarms = sorted((a for a in alarms if a.positions.size), key=lambda a: a.alarm_id)
    axis = alarms[0].axis if alarms else FleetAxis.from_ranges({})
    if any(a.axis != axis for a in alarms):
        raise ValueError("alarms to write disagree on the fleet axis")
    positions = np.concatenate([np.empty(0, np.int64)] + [a.positions for a in alarms])
    order = np.argsort(positions, kind="stable")  # ties keep the alarm id order
    ids = np.repeat(np.array([a.alarm_id for a in alarms], dtype=object),
                    [a.positions.size for a in alarms])[order]
    unit, flight = axis.locate(positions[order])
    rows = zip(np.array(axis.units, dtype=object)[unit].tolist(), map(str, flight.tolist()),
               ids.tolist())
    write_csv(path, ["unit_id", "flight", "alarm_id"], rows)

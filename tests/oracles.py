"""Independent brute-force reference implementations used by the tests.

Everything here is written from the definitions, by per-flight membership
tests and exhaustive search, deliberately avoiding the library's interval
arithmetic so the two sides can disagree.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from bisect import insort

import numpy as np
from scipy import stats as sstats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from fleetwarn.core import (
    NoTargetEventsError,
    TelemetryPanel,
    _check_name,
    _nan_filled,
    _parse_cell,
    _plain,
    _read_csv,
    _telemetry_columns,
    csv_float,
    write_csv,
)
from fleetwarn.evaluation import CurvePoint, greedy_max_matching
from support import firings


def _label_flights(evs, params, first, last):
    """Label every flight of one unit "T", "I" or "F" by direct membership.

    ``evs``: the unit's (unit, onset, end) tuples.  Returns the labels, the
    indices into ``evs`` of the events whose window (for "T") or zone (for
    "I") holds each labelled flight, and the maximal runs of "F" flights.
    """
    w, h, m = params.window, params.horizon, params.delay
    labels = {}
    owners = {}
    for t in range(first, last + 1):
        in_true = [
            k for k, (_, onset, _) in enumerate(evs)
            if onset - h - w <= t < onset - h
        ]
        if in_true:
            labels[t] = "T"
            owners[t] = in_true
            continue
        in_irr = [
            k for k, (_, onset, end) in enumerate(evs) if onset - h <= t < end + m
        ]
        labels[t] = "I" if in_irr else "F"
        owners[t] = in_irr
    segments = []
    run = []
    for t in range(first, last + 1):
        if labels[t] == "F":
            run.append(t)
        elif run:
            segments.append(run)
            run = []
    if run:
        segments.append(run)
    return labels, owners, segments


def _unit_events(events, unit):
    return sorted([e for e in events if e[0] == unit], key=lambda e: (e[1], e[2]))


def brute_force_match(events, params, ranges, firings):
    """Recount all match statistics by labelling every flight directly.

    ``events``: list of (unit, onset, end) tuples; ``ranges``: unit ->
    (first, last); ``firings``: unit -> iterable of flights.  Returns a dict
    of counters, metrics, and the two significance samples.
    """
    k_plus = k_minus = s_plus = s_minus = irrelevant = u_plus = u_minus = 0
    window_counts = []
    segment_counts = []
    for unit in sorted(ranges):
        first, last = ranges[unit]
        evs = _unit_events(events, unit)
        labels, owners, segments = _label_flights(evs, params, first, last)

        window_flights = {
            k: [t for t in range(first, last + 1) if labels[t] == "T" and k in owners[t]]
            for k in range(len(evs))
        }
        counted_events = [k for k in range(len(evs)) if window_flights[k]]
        k_plus += len(counted_events)
        k_minus += len(segments)

        fires = sorted(set(firings.get(unit, ())))
        per_window = {k: 0 for k in counted_events}
        per_segment = [0] * len(segments)
        covered = set()
        for t in fires:
            if labels[t] == "T":
                s_plus += 1
                covered.update(owners[t])
                per_window[min(owners[t])] += 1
            elif labels[t] == "I":
                irrelevant += 1
            else:
                s_minus += 1
                for si, seg in enumerate(segments):
                    if t in seg:
                        per_segment[si] += 1
                        break
        u_plus += len(covered)
        u_minus += sum(1 for c in per_segment if c > 0)
        window_counts.extend(per_window[k] for k in counted_events)
        segment_counts.extend(per_segment)

    fa = s_minus / k_plus if k_plus else float("nan")
    cf = u_plus / k_plus if k_plus else float("nan")
    facf = s_minus / u_plus if u_plus else float("inf")
    return {
        "window_events": k_plus,
        "false_segments": k_minus,
        "true_firings": s_plus,
        "false_firings": s_minus,
        "irrelevant_firings": irrelevant,
        "covered_events": u_plus,
        "fired_false_segments": u_minus,
        "false_alarm_rate": fa,
        "coverage": cf,
        "false_to_covered": facf,
        "window_counts": window_counts,
        "segment_counts": segment_counts,
    }


def brute_force_labels(events, params, ranges, firings):
    """Label every firing by per-flight membership, in unit then flight order.

    Inputs as for :func:`brute_force_match`.  Each label is ``(unit, flight,
    kind, owners, segment)``: kind "T", "I" or "F"; owners the (onset, end)
    of every event whose window ("T") or zone ("I") holds the flight, by
    onset; segment the index of a false firing's run among its unit's runs,
    else None.
    """
    out = []
    for unit in sorted(ranges):
        evs = _unit_events(events, unit)
        labels, owners, segments = _label_flights(evs, params, *ranges[unit])
        for t in sorted(set(firings.get(unit, ()))):
            if labels[t] == "F":
                seg = next(i for i, run in enumerate(segments) if t in run)
                out.append((unit, t, "F", (), seg))
            else:
                owned = tuple((evs[k][1], evs[k][2]) for k in owners[t])
                out.append((unit, t, labels[t], owned, None))
    return out


def normal_regime_reference(panel, events, before, after):
    """The normal-regime mask flight by flight: a flight is kept when, for
    every event of its unit, it lies at or before ``onset - before`` or at or
    past ``end + after``."""
    unit_events = [ev for ev in events if ev.unit_id == panel.unit_id]
    kept = []
    for t in panel.flights.tolist():
        kept.append(all(t <= ev.onset - before or t >= ev.end + after for ev in unit_events))
    return np.array(kept, dtype=bool)


def fit_column_stats_reference(rows):
    """Per-column nanmean and population nanstd of ``rows``, with the
    warnings of all-missing columns silenced; NaN std becomes 0."""
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(rows, axis=0)
        std = np.nanstd(rows, axis=0)
    return mean, np.where(np.isnan(std), 0.0, std)


def brute_force_search(pool, events, params, ranges, alpha, filter_kind, theta, max_size):
    """Exhaustive precursor search by set algebra and per-flight recounts.

    ``pool``: alarm id -> {unit: flights}, every alarm over the same units;
    the other inputs are as for :func:`brute_force_match`.  Alarms whose
    own recount passes the gate (more than one covered event and a one-sided
    Welch p below ``alpha``) are enumerated in every subset of 1 to
    ``max_size``, composed by per-unit intersection, recounted and kept when
    they pass the gate again and the filter: hard means at least ``theta``
    covered events and no fired false segment, soft a finite
    false-to-covered ratio of at most ``theta``.  Survivors with equal
    non-empty firing sets keep the smallest member set (ties by the sorted
    ids), and are ranked by false-to-covered ascending, coverage descending,
    then the joined ids.  Returns ``(ids, firings, recount)`` per survivor.
    """

    def grade(ids):
        fires = {
            u: set.intersection(*(set(pool[i][u]) for i in ids)) for u in pool[ids[0]]
        }
        ref = brute_force_match(events, params, ranges, fires)
        ref["p_value"] = welch_reference_p(ref["window_counts"], ref["segment_counts"])
        return fires, ref

    def gate(ref):
        return ref["covered_events"] > 1 and ref["p_value"] < alpha

    gated = [i for i in sorted(pool) if gate(grade([i])[1])]
    best = {}
    for size in range(1, max_size + 1):
        for ids in itertools.combinations(gated, size):
            fires, ref = grade(ids)
            if not gate(ref):
                continue
            if filter_kind == "hard":
                kept = ref["covered_events"] >= theta and ref["fired_false_segments"] == 0
            else:
                kept = ref["false_to_covered"] <= theta  # False for inf
            key = tuple(sorted((u, tuple(sorted(ts))) for u, ts in fires.items() if ts))
            if kept and (key not in best or (len(ids), ids) < (len(best[key][0]), best[key][0])):
                best[key] = (ids, fires, ref)
    return sorted(
        best.values(),
        key=lambda s: (s[2]["false_to_covered"], -s[2]["coverage"], "&".join(s[0])),
    )


def welch_reference_p(a, b):
    """One-sided Welch p through scipy's two-sample test, plus the edge rules."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        return 1.0
    if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
        return 0.0 if a.mean() > b.mean() else 1.0
    with warnings.catch_warnings():
        # near-constant samples are legitimate inputs here
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(
            sstats.ttest_ind(a, b, equal_var=False, alternative="greater").pvalue
        )


def pearson_reference(data):
    """Pairwise-complete Pearson matrix by one masked pass per column pair."""
    n_cols = data.shape[1]
    out = np.full((n_cols, n_cols), np.nan)
    np.fill_diagonal(out, 1.0)
    finite = np.isfinite(data)
    for i in range(n_cols):
        for j in range(i + 1, n_cols):
            both = finite[:, i] & finite[:, j]
            if both.sum() < 2:
                continue
            x = data[both, i]
            y = data[both, j]
            sx = x.std()
            sy = y.std()
            if sx == 0.0 or sy == 0.0:
                continue
            r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
            out[i, j] = out[j, i] = r
    return out


def exact_max_matching(flags, onsets, tolerance):
    """Maximum bipartite matching size via augmenting paths."""
    flags = sorted(flags)
    onsets = sorted(onsets)
    compatible = [
        [j for j, f in enumerate(flags) if abs(f - onset) <= tolerance]
        for onset in onsets
    ]
    match_of_flag = {}

    def augment(i, seen):
        for j in compatible[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of_flag or augment(match_of_flag[j], seen):
                match_of_flag[j] = i
                return True
        return False

    size = 0
    for i in range(len(onsets)):
        if augment(i, set()):
            size += 1
    return size


def roc_pr_reference(scores, events, tolerance):
    """The confusion curve as a list of ``CurvePoint``, swept threshold by
    threshold: each threshold inserts its relevant flags into their unit's
    sorted list and rematches every unit whose flags changed."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    units = sorted(scores)
    for ev in events:
        if ev.unit_id not in scores:
            raise ValueError(f"event on unit {ev.unit_id!r} which has no scores")
    n_events = len(events)
    if n_events == 0:
        raise NoTargetEventsError("no events: precision-recall undefined")

    onsets = {u: [] for u in units}
    for ev in events:
        onsets[ev.unit_id].append(ev.onset)
    for u in units:
        onsets[u].sort()

    triples = []
    relevant = {}
    for u in units:
        near = set()
        for onset in onsets[u]:
            near.update(range(onset - tolerance, onset + tolerance + 1))
        for flight in sorted(scores[u]):
            s = scores[u][flight]
            if math.isnan(s):
                continue
            triples.append((s, u, flight))
            relevant[(u, flight)] = flight in near
    n_scored = len(triples)
    triples.sort(key=lambda t: (-t[0], t[1], t[2]))

    def emit(nu, n_flags, tp):
        fp = n_flags - tp
        fn = n_events - tp
        tn = max(n_scored - tp - fp - fn, 0)
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = tp / n_events
        fpr = fp / (fp + tn) if fp + tn else 0.0
        return CurvePoint(nu, tp, fp, fn, tn, precision, recall, fpr)

    points = [emit(float("inf"), 0, 0)]
    active = {u: [] for u in units}
    unit_tp = {u: 0 for u in units}
    n_flags = 0
    tp = 0
    i = 0
    while i < len(triples):
        nu = triples[i][0]
        changed = set()
        while i < len(triples) and triples[i][0] == nu:
            _, u, flight = triples[i]
            n_flags += 1
            if relevant[(u, flight)]:
                insort(active[u], flight)
                changed.add(u)
            i += 1
        # only a unit whose relevant flags changed can change its matching
        for u in changed:
            matched = greedy_max_matching(active[u], onsets[u], tolerance)
            tp += matched - unit_tp[u]
            unit_tp[u] = matched
        points.append(emit(float(nu), n_flags, tp))
    return points


def bfs_components(n, edges):
    """Connected components of an undirected graph, as sorted index tuples."""
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        queue = [start]
        comp = set()
        while queue:
            v = queue.pop()
            if v in comp:
                continue
            comp.add(v)
            queue.extend(adj[v] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def scipy_components(values, rho):
    """Components of the graph |values| >= rho (NaN: no edge) by scipy's csgraph."""
    with np.errstate(invalid="ignore"):
        adjacency = (np.abs(values) >= rho).astype(np.int8)
    np.fill_diagonal(adjacency, 0)
    _, labels = connected_components(csr_matrix(adjacency), directed=False)
    return sorted(tuple(np.flatnonzero(labels == k).tolist()) for k in np.unique(labels))


def apply_column_stats_reference(values, mean, std):
    """Z-score column by column: a column with NaN mean is left alone, a
    zero-std column is only centered."""
    values = np.array(values, dtype=np.float64, copy=True)
    for j in range(values.shape[1]):
        m, s = mean[j], std[j]
        if math.isnan(m):
            continue
        if s == 0.0:
            values[:, j] = values[:, j] - m
        else:
            values[:, j] = (values[:, j] - m) / s
    return values


def _first_telemetry_problem(path, columns):
    """The error naming the first invalid telemetry row; for error paths only."""
    previous = {}

    def check(row):
        unit, flight = row[0], _parse_cell("flight", row[1], int)
        if unit not in previous:
            _check_name("unit id", unit)
        elif flight == previous[unit]:
            raise ValueError(f"repeated flight {flight} of unit {unit!r}")
        elif flight < previous[unit]:
            raise ValueError(f"flight {flight} of unit {unit!r} follows flight {previous[unit]}")
        previous[unit] = flight
        for name, cell in zip(columns, row[3:]):
            if cell:
                _parse_cell(name, cell)

    try:
        _read_csv(path, ("unit_id", "flight", "phase", *columns), check)
    except ValueError as exc:
        return exc
    return ValueError(f"{path}: invalid telemetry")


def read_telemetry_row_loop(path):
    """The telemetry reader as a per-row ``csv`` loop with ``float()`` per cell.

    ``fleetwarn.core.read_telemetry_csv`` parses a plain file in bulk; it
    must return the same panels and raise the same messages as this loop.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["unit_id", "flight", "phase"]:
            raise ValueError(f"{path}: expected header unit_id,flight,phase,<param>...")
        columns = tuple(header[3:])
        try:
            for i, name in enumerate(columns):
                _check_name("column name", name)
                if columns.index(name) != i:
                    raise ValueError(f"repeated column name {name!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        per_unit = {}
        order = []
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != 3 + len(columns):
                    raise ValueError  # described by _first_telemetry_problem below
                unit, flight, phase = row[0], int(row[1]), row[2]
                vals = [float(c) if c != "" else float("nan") for c in row[3:]]
                if unit not in per_unit:
                    _check_name("unit id", unit)
                    per_unit[unit] = []
                    order.append(unit)
                per_unit[unit].append((flight, phase, vals))
        except ValueError:  # a decoding error recurs in the second read
            raise _first_telemetry_problem(path, columns) from None
        except csv.Error as exc:  # a field beyond csv's size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    panels = []
    for unit in order:
        records = per_unit[unit]
        flights = np.array([r[0] for r in records], dtype=np.int64)
        phases = tuple(r[1] or None for r in records)
        values = np.array([r[2] for r in records], dtype=np.float64)
        values = values.reshape(len(records), len(columns))
        if np.isinf(values).any() or np.any(flights[1:] <= flights[:-1]):
            raise _first_telemetry_problem(path, columns)
        panels.append(
            TelemetryPanel(unit_id=unit, flights=flights, columns=columns,
                           values=values, phases=phases)
        )
    return panels


def _bulk_telemetry(path):
    """A plain telemetry file's panels from one streaming ``np.loadtxt`` over
    all its rows; a ValueError or OverflowError that names no line otherwise."""
    units, flights, phases = [], [], []
    texts = {}
    limit = csv.field_size_limit()

    def tails(fh):
        for line in fh:
            if line == "\n":
                continue
            if not _plain(line, limit):
                raise ValueError("not plain text")
            unit, flight, phase, tail = line.removesuffix("\n").split(",", 3)
            units.append(texts.setdefault(unit, unit))
            flights.append(int(flight))
            phases.append(texts.setdefault(phase, phase))
            yield _nan_filled(tail)

    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline()
        if not _plain(header, limit):
            raise ValueError("not plain text")
        columns = _telemetry_columns(path, header.removesuffix("\n").split(","), 1)
        if not columns:
            raise ValueError("no parameter columns")
        rows = tails(fh)
        first = next(rows, None)
        if first is None:
            values = np.empty((0, len(columns)))
        else:
            values = np.loadtxt(itertools.chain([first], rows), delimiter=",", comments=None,
                                dtype=np.float64, ndmin=2)
    for unit in dict.fromkeys(units):
        _check_name("unit id", unit)
    if np.isinf(values).any():
        raise ValueError("infinite value")
    first_row = {}
    codes = np.array([first_row.setdefault(u, len(first_row)) for u in units], dtype=np.intp)
    order = np.argsort(codes, kind="stable")
    values, flights = values[order], np.array(flights, dtype=np.int64)[order]
    phases = [phases[i] or None for i in order.tolist()]
    ends = np.cumsum(np.bincount(codes, minlength=len(first_row))).tolist()
    panels, start = [], 0
    for unit, end in zip(first_row, ends):
        panels.append(TelemetryPanel(unit_id=unit, flights=flights[start:end], columns=columns,
                                     values=values[start:end], phases=phases[start:end]))
        start = end
    return panels


def read_telemetry_reference(path):
    """The telemetry reader in one process: a plain file in one bulk pass,
    and any other file, or an invalid one, through the row loop.

    ``fleetwarn.core.read_telemetry_csv`` cuts a plain file into byte ranges
    that several processes parse; it must return the same panels, with one
    object per distinct unit id or phase, and raise the same messages.
    """
    try:
        return _bulk_telemetry(path)
    except (ValueError, OverflowError):
        return read_telemetry_row_loop(path)


def write_alarms_reference(path, alarms):
    """The alarms CSV as one sort of (unit, flight, alarm_id) tuples over every
    alarm's per-unit flight sets."""
    # Each unit's flights are sorted first, so the final sort merges sorted runs.
    rows = sorted(
        (u, t, a.alarm_id) for a in alarms for u, ts in firings(a).items() for t in sorted(ts)
    )
    write_csv(path, ["unit_id", "flight", "alarm_id"], ([u, str(t), a] for u, t, a in rows))


def write_telemetry_reference(path, panels):
    """The telemetry CSV as one ``csv.writer`` row per flight, units sorted by
    id; a row that holds a CR is written with every cell quoted."""
    panels = sorted(panels, key=lambda p: p.unit_id)
    if not panels:
        raise ValueError("no panels to write")
    columns = panels[0].columns
    if any(p.columns != columns for p in panels):
        raise ValueError("panels disagree on columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)

        def write(row):
            (quote_all if any("\r" in cell for cell in row) else minimal).writerow(row)

        write(["unit_id", "flight", "phase", *columns])
        for p in panels:
            phases = p.phases or (None,) * p.n_flights
            for flight, phase, values in zip(p.flights.tolist(), phases, p.values.tolist()):
                write([p.unit_id, str(flight), phase or "", *map(csv_float, values)])

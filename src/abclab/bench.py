"""Benchmark harness: timed issuance/verification runs with RSS readings.

Reproduces the evaluation grid (schemes x attribute counts x repeated runs)
and aggregates each cell into min/max/mean plus the share of runs at or
above the mean.  Memory is the OS resident set size of this process in MB,
rounded to two decimal places: read just before and just after each phase,
plus the getrusage peak when the phase raised it.  The scheme names, the
attribute bound and the pair the ratio rows compare come from the scheme
registry.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import random
import statistics
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields

from . import scheme, wire

log = logging.getLogger(__name__)

PHASES = ("issue", "verify")
TIME_METRIC = "time_ms"
MEMORY_METRIC = "memory_mb"
# Ratio rows divide the heavyweight baseline's mean time by the lightweight one's.
RATIO_PAIR = (scheme.MODEXP1024.name, scheme.ECC160.name)
RATIO_SCHEME_LABEL = "/".join(RATIO_PAIR)

# Consecutive failures after which a grid cell is abandoned.
_CELL_FAILURE_LIMIT = 3


class UnsupportedPlatform(RuntimeError):
    """The OS exposes no resident-set-size reading."""


class EmptyCell(ValueError):
    """summarize() was handed no records."""


class IoFailure(OSError):
    """A report file could not be written."""


class MalformedRecords(ValueError):
    """A records file is not the document save_records writes."""


@dataclass(frozen=True)
class BenchConfig:
    schemes: tuple[str, ...] = scheme.SCHEME_NAMES
    attr_counts: tuple[int, ...] = (1, 5, 10)
    runs: int = 100
    mode: str = "in-process"
    seed: int | None = None
    out: str | None = None
    issuer_addr: tuple[str, int] | None = None
    verifier_addr: tuple[str, int] | None = None

    def __post_init__(self):
        for name in ("schemes", "attr_counts"):  # a JSON file gives lists
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        unknown = set(self.schemes) - set(scheme.SCHEME_NAMES)
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a non-empty subset of {scheme.SCHEME_NAMES}")
        top = scheme.MAX_ATTRIBUTES
        if not self.attr_counts or not all(_is_int(c) and 1 <= c <= top for c in self.attr_counts):
            raise ValueError(f"attr_counts must be a non-empty subset of 1..{top}")
        if not (_is_int(self.runs) and self.runs >= 1):
            raise ValueError("runs must be an integer >= 1")
        if not (self.seed is None or _is_int(self.seed)):
            raise ValueError("seed must be an integer or null")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError("out must be a path string or null")
        if self.mode not in ("in-process", "over-wire"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "over-wire" and not (self.issuer_addr and self.verifier_addr):
            raise ValueError("over-wire mode needs issuer_addr and verifier_addr")


@dataclass
class BenchRecord:
    scheme: str
    phase: str
    attr_count: int
    run_index: int
    elapsed_ms: float
    rss_mb_samples: list[float]
    cred_sha256: str
    valid: bool | None = None


@dataclass
class StatsSummary:
    scheme: str
    phase: str
    attr_count: int
    metric: str
    min: float
    max: float
    mean: float
    pct_ge_mean: float


def peak_rss_mb() -> float | None:
    """The getrusage peak RSS of this process in MB, rounded to two decimals
    (Linux reports it in kB, macOS in bytes); None where there is no getrusage."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return round(peak * scale / 2**20, 2)


def rss_mb() -> float:
    """Resident set size in MB, rounded to two decimals.

    The current RSS from /proc/self/statm (resident pages times page size).
    Where that file cannot be read, the getrusage peak RSS of the process.
    Raises UnsupportedPlatform when neither source gives a reading.
    """
    try:
        with open("/proc/self/statm", "rb") as stream:
            pages = int(stream.read().split()[1])
        return round(pages * os.sysconf("SC_PAGE_SIZE") / 2**20, 2)
    except (OSError, ValueError, IndexError):
        pass
    peak = peak_rss_mb()
    if peak is None:
        raise UnsupportedPlatform("no RSS reading available: no /proc/self/statm, no getrusage")
    return peak


def time_phase(action):
    """Run action under the monotonic clock; returns (result, elapsed_ms)."""
    start = time.perf_counter()
    result = action()
    return result, (time.perf_counter() - start) * 1e3


def memory_phase(action):
    """Run action as one phase; returns (its result, the phase's RSS samples):
    the RSS just before and just after it and, if the getrusage peak rose
    meanwhile, the new peak, which the process reached inside the phase."""
    peak = peak_rss_mb()
    samples = [rss_mb()]
    result = action()
    samples.append(rss_mb())
    new_peak = peak_rss_mb()
    if peak is not None and new_peak > peak:
        samples.append(new_peak)
    return result, samples


def _fingerprint(wire_doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(wire_doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_benchmark(config: BenchConfig, errors: list | None = None) -> list[BenchRecord]:
    """Execute the full grid and return two records (issue, verify) per
    successful run.  A run that fails on the wire is logged and, if errors
    is a list, its WireError is appended to it; a cell is dropped after
    _CELL_FAILURE_LIMIT failures in a row.

    Within each attribute count the schemes take turns run by run, so the
    cells that a ratio row compares are measured in the same stretch of
    time and host drift cannot favour one scheme.  In-process mode
    regenerates the issuer key for every run, so only the system parameters
    and the attribute values stay fixed across runs; keygen builds its
    comb tables, so the phase times exclude them.  Over-wire mode talks
    to long-lived services, whose keys were fixed at service start; elapsed
    times are then client-side round trips.
    """
    rng = random.Random(config.seed) if config.seed is not None else random.SystemRandom()
    records: list[BenchRecord] = []
    for attr_count in config.attr_counts:
        attrs = scheme.DEFAULT_ATTRIBUTES[:attr_count]
        failures = dict.fromkeys(config.schemes, 0)
        for run_index in range(config.runs):
            for scheme_name in config.schemes:
                if failures[scheme_name] >= _CELL_FAILURE_LIMIT:
                    continue
                try:
                    run = _one_run(config, scheme_name, attrs, run_index, rng)
                except wire.WireError as exc:
                    failures[scheme_name] += 1
                    if errors is not None:
                        errors.append(exc)
                    log.warning(
                        "run failed (%s, %d attrs, run %d), %d of %d in a row "
                        "before the cell is dropped: %s", scheme_name, attr_count,
                        run_index, failures[scheme_name], _CELL_FAILURE_LIMIT, exc)
                    continue
                failures[scheme_name] = 0
                records.extend(run)
    return records


def _one_run(config, scheme_name, attrs, run_index, rng) -> tuple[BenchRecord, BenchRecord]:
    """The issue and the verify record of one run."""
    if config.mode == "in-process":
        key = scheme.keygen(scheme_name, rng)
        public = scheme.public_part(scheme_name, key)
        (cred, issue_ms), issue_mb = memory_phase(
            lambda: time_phase(lambda: scheme.issue(scheme_name, key, attrs, rng)))
        (valid, verify_ms), verify_mb = memory_phase(
            lambda: time_phase(lambda: scheme.verify(scheme_name, public, cred)))
        doc = wire.credential_to_wire(scheme_name, cred)
    else:
        (doc, issue_ms), issue_mb = memory_phase(
            lambda: wire.client_issue(config.issuer_addr, scheme_name, attrs))
        (valid, verify_ms), verify_mb = memory_phase(
            lambda: wire.client_verify(config.verifier_addr, scheme_name, doc))
    digest = _fingerprint(doc)
    return (BenchRecord(scheme_name, "issue", len(attrs), run_index, issue_ms, issue_mb, digest),
            BenchRecord(scheme_name, "verify", len(attrs), run_index,
                        verify_ms, verify_mb, digest, valid))


def summarize(records: list[BenchRecord]) -> list[StatsSummary]:
    """Per-cell stats: time over elapsed_ms, memory over per-run max RSS,
    whose mean is rounded to two decimals like the readings."""
    if not records:
        raise EmptyCell("no records to summarize")
    cells: dict[tuple, list[float]] = {}
    for metric, value_of in ((TIME_METRIC, lambda r: r.elapsed_ms),
                             (MEMORY_METRIC, lambda r: max(r.rss_mb_samples))):
        for rec in records:
            cells.setdefault((rec.scheme, rec.phase, rec.attr_count, metric), []).append(
                value_of(rec))

    summaries = []
    for (scheme_name, phase, attr_count, metric), values in cells.items():
        mean = statistics.fmean(values)
        pct = 100.0 * sum(1 for v in values if v >= mean) / len(values)
        summaries.append(StatsSummary(
            scheme_name, phase, attr_count, metric, min(values), max(values),
            round(mean, 2) if metric == MEMORY_METRIC else mean, pct,
        ))
    return summaries


def mean_ratio_rows(summaries: list[StatsSummary]) -> list[dict]:
    """RATIO_PAIR mean-time ratios per (phase, attr_count) cell."""
    heavy, light = RATIO_PAIR
    means: dict[tuple, float] = {}
    for s in summaries:
        if s.metric == TIME_METRIC:
            means[(s.scheme, s.phase, s.attr_count)] = s.mean
    rows = []
    for (scheme_name, phase, attr_count), slow_mean in sorted(means.items()):
        if scheme_name != heavy:
            continue
        fast_mean = means.get((light, phase, attr_count))
        if fast_mean:
            rows.append({
                "phase": phase,
                "attr_count": attr_count,
                "metric": TIME_METRIC,
                "ratio": slow_mean / fast_mean,
            })
    return rows


CSV_COLUMNS = ("scheme", "phase", "attr_count", "metric", "min", "max", "mean", "pct_ge_mean")


def _render_csv(summaries, ratios, stream):
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for s in summaries:
        writer.writerow([s.scheme, s.phase, s.attr_count, s.metric,
                         s.min, s.max, s.mean, s.pct_ge_mean])
    for row in ratios:
        writer.writerow([RATIO_SCHEME_LABEL, row["phase"], row["attr_count"],
                         f"{row['metric']}_mean_ratio", "", "", row["ratio"], ""])


def _render_markdown(summaries, ratios, stream):
    titles = {
        ("issue", TIME_METRIC): "Issuance time (ms)",
        ("verify", TIME_METRIC): "Verification time (ms)",
        ("issue", MEMORY_METRIC): "Issuance memory (MB, per-run max RSS)",
        ("verify", MEMORY_METRIC): "Verification memory (MB, per-run max RSS)",
    }
    stream.write("# Credential scheme benchmark\n")
    for (phase, metric), title in titles.items():
        rows = [s for s in summaries if s.phase == phase and s.metric == metric]
        if not rows:
            continue
        stream.write(f"\n## {title}\n\n")
        stream.write("| scheme | attrs | min | max | mean | % runs >= mean |\n")
        stream.write("| --- | --- | --- | --- | --- | --- |\n")
        for s in sorted(rows, key=lambda s: (s.scheme, s.attr_count)):
            stream.write(
                f"| {s.scheme} | {s.attr_count} | {s.min:.2f} | {s.max:.2f} "
                f"| {s.mean:.2f} | {s.pct_ge_mean:.2f} |\n"
            )
    if ratios:
        stream.write("\n## Mean-time ratios ({} / {})\n\n".format(*RATIO_PAIR))
        stream.write("| phase | attrs | ratio |\n| --- | --- | --- |\n")
        for row in ratios:
            stream.write(f"| {row['phase']} | {row['attr_count']} | {row['ratio']:.2f} |\n")


def _render_json(summaries, ratios, stream):
    json.dump({"summaries": [asdict(s) for s in summaries], "ratios": ratios},
              stream, indent=2)
    stream.write("\n")


_RENDERERS = {"csv": _render_csv, "markdown": _render_markdown, "json": _render_json}

REPORT_FORMATS = tuple(_RENDERERS)


def render_report(summaries, fmt: str, stream) -> None:
    """Write the fmt report of summaries, with their ratio rows, to stream."""
    _RENDERERS[fmt](summaries, mean_ratio_rows(summaries), stream)


def emit_report(summaries, fmt: str, path) -> None:
    if fmt not in _RENDERERS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    if not summaries:
        raise EmptyCell("nothing to report")
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            render_report(summaries, fmt, stream)
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def save_records(path, config: BenchConfig, records: list[BenchRecord]) -> None:
    doc = {"config": asdict(config), "records": [asdict(r) for r in records]}
    try:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(doc, stream)
            stream.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write records to {path}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The value a records file may hold in each BenchRecord field.
_RECORD_VALUE_CHECKS = {
    "scheme": lambda v: isinstance(v, str),
    "phase": lambda v: isinstance(v, str),
    "attr_count": _is_int,
    "run_index": _is_int,
    "elapsed_ms": _is_real,
    "rss_mb_samples": lambda v: isinstance(v, list) and bool(v) and all(map(_is_real, v)),
    "cred_sha256": lambda v: isinstance(v, str),
    "valid": lambda v: v is None or isinstance(v, bool),
}


def load_records(path) -> list[BenchRecord]:
    """The records of a save_records file.  MalformedRecords unless it is
    JSON, an object with a "records" list, and each record an object with
    every BenchRecord field that has no default, no other field, and a value
    of the field's type: a non-empty list of reals for rss_mb_samples, and
    null or a bool for valid."""
    with open(path, encoding="utf-8") as stream:
        try:
            doc = json.load(stream)
        except (ValueError, RecursionError) as exc:  # nesting beyond the parser's depth
            raise MalformedRecords(f"{path}: not JSON: {exc}") from exc
    entries = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise MalformedRecords(f'{path}: expected an object with a "records" list')
    known = {f.name for f in fields(BenchRecord)}
    required = {f.name for f in fields(BenchRecord) if f.default is MISSING}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedRecords(f"{path}: record {index} is not an object")
        if not required <= entry.keys() <= known:
            raise MalformedRecords(
                f"{path}: record {index} lacks fields {sorted(required - entry.keys())}"
                f" or has unknown fields {sorted(entry.keys() - known)}")
        bad = sorted(name for name, value in entry.items()
                     if not _RECORD_VALUE_CHECKS[name](value))
        if bad:
            raise MalformedRecords(f"{path}: record {index} has ill-typed values in {bad}")
    return [BenchRecord(**entry) for entry in entries]

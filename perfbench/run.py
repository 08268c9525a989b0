#!/usr/bin/env python3
"""Closed-loop benchmark of abclab's two credential schemes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inproc-1attr --seed 1 --seconds 20 --trace 0

Workloads: inproc-1attr, inproc-10attr, wire-1attr (see perfbench/README.md
for why each exists and which layer metric should move which end-to-end
metric).  One client keeps one request in flight, alternating ecc160 and
modexp1024, issuing a credential and then verifying it.  Every output is
checked.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass with --trace 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = {  # name -> (attribute count, over loopback TCP)
    "inproc-1attr": (1, False),
    "inproc-10attr": (10, False),
    "wire-1attr": (1, True),
}
SCHEMES = ("ecc160", "modexp1024")
PHASES = ("issue", "verify")
SETUP_REPEATS = 7        # setup_s is the median of this many cold set-ups
TAMPER_EVERY = 10        # every 10th issue of a scheme also verifies a tampered copy
MIN_SAMPLES = 100        # per scheme and phase, so that at least 10 lie beyond p90
DIGEST_CREDENTIALS = 16  # the work digest covers the first 16 credentials issued
HARD_STOP_S = 120        # a pass never measures longer, whatever its sample count
READY_TIMEOUT_S = 30     # a service must accept within this after it is started
TRACE_SLICE_S = 0.5      # a traced run alternates untraced and traced slices this long

# Per-layer metrics: (span or sample name, unit); the metric is "<name>.<unit>".
LAYER_METRICS = (
    [("field.mod_pow_1024", "ms"), ("field.mod_pow_256", "ms"), ("field.fe_inv", "ms"),
     ("curve.point_add", "us"), ("curve.point_double", "us"),
     ("curve.scalar_mul_253", "ms"),
     ("scheme.ecc_commit", "ms"), ("scheme.modexp_representative", "ms"),
     ("scheme.ecc_keygen", "ms"), ("scheme.rsa_keygen", "ms"),
     ("scheme.derive_generator", "ms")]
    + [(f"scheme.{kind}.{name}", "ms")
       for kind in ("issue", "verify", "issue_self", "verify_self") for name in SCHEMES]
    + [(f"wire.{codec}.{name}", "ms")
       for codec in ("credential_to_wire", "credential_from_wire") for name in SCHEMES]
    + [("wire.frame_write", "us"), ("wire.frame_read", "us"), ("wire.connect", "ms")]
    + [(f"wire.overhead.{name}.{phase}", "ms") for name in SCHEMES for phase in PHASES]
)
TRACE_OVERHEAD = "trace.overhead_pct"


class SetupFailed(RuntimeError):
    """A service did not come up, or a warm-up exchange gave a wrong answer."""


def import_abclab() -> float:
    """Import the package under test from the checkout; returns the seconds taken."""
    global scheme, wire
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from abclab import scheme, wire
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Clients: the same closed loop drives the schemes in-process or over TCP
# ---------------------------------------------------------------------------


class InProcess:
    """Calls scheme.issue/verify directly; ecc160 nonces come from rng."""

    def __init__(self, keys: dict, rng):
        self.keys = keys
        self.publics = {name: scheme.public_part(name, key) for name, key in keys.items()}
        self.rng = rng

    def issue(self, name, attrs):
        return scheme.issue(name, self.keys[name], attrs, self.rng)

    def verify(self, name, cred) -> bool:
        return scheme.verify(name, self.publics[name], cred)

    def attributes(self, name, cred) -> tuple:
        return cred.attributes

    def tampered(self, name, cred):
        first, *rest = cred.attributes
        return dataclasses.replace(cred, attributes=(first + 1, *rest))

    def encode(self, name, cred) -> dict:
        return wire.credential_to_wire(name, cred)


class OverWire:
    """wire.client_issue/client_verify against the two services."""

    def __init__(self, endpoints: dict):
        self.endpoints = endpoints

    def issue(self, name, attrs):
        doc, _round_trip_ms = wire.client_issue(self.endpoints["issue"], name, attrs)
        return doc

    def verify(self, name, doc) -> bool:
        valid, _round_trip_ms = wire.client_verify(self.endpoints["verify"], name, doc)
        return valid

    def attributes(self, name, doc) -> tuple | None:
        wire_name, cred = wire.credential_from_wire(doc)
        return cred.attributes if wire_name == name else None

    def tampered(self, name, doc):
        first, *rest = doc["attributes"]
        return {**doc, "attributes": [str(int(first) + 1), *rest]}

    def encode(self, name, doc) -> dict:
        return doc


# ---------------------------------------------------------------------------
# Set-up: keys, warm generators and, over the wire, the two services
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Service:
    proc: subprocess.Popen
    endpoint: tuple[str, int]
    log: Path


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_services(keys: dict, run_dir: Path) -> dict[str, Service]:
    """abclab serve-issuer and serve-verifier, loaded from key files."""
    flags = {"issue": [], "verify": []}
    for name, key in keys.items():
        key_path = run_dir / f"{name}-key.json"
        pub_path = run_dir / f"{name}-pub.json"
        key_path.write_text(json.dumps(wire.key_to_wire(name, key)))
        pub_path.write_text(
            json.dumps(wire.public_to_wire(name, scheme.public_part(name, key))))
        flags["issue"] += ["--key", str(key_path)]
        flags["verify"] += ["--pub", str(pub_path)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    services = {}
    for phase, command in (("issue", "serve-issuer"), ("verify", "serve-verifier")):
        port = free_port()
        log = run_dir / f"{command}.log"
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "abclab.cli", command,
                 "--bind", f"127.0.0.1:{port}", *flags[phase]],
                env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr)
        services[phase] = Service(proc, ("127.0.0.1", port), log)
    return services


def stop_services(services: dict[str, Service]) -> float:
    """Stop and reap every service; returns the largest peak RSS in MB."""
    peak_kb = 0
    for service in services.values():
        proc = service.proc
        if proc.returncode is not None:
            continue
        proc.terminate()
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kb = max(peak_kb, usage.ru_maxrss)  # kB on Linux
    return peak_kb / 1024


def _first_call(service: Service | None, call):
    """call(), retried until the service it reaches accepts connections."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        try:
            return call()
        except wire.ConnectionFailed:
            if service.proc.poll() is not None or time.monotonic() > deadline:
                raise SetupFailed(
                    f"service did not come up: {service.log.read_text(errors='replace')}"
                ) from None
            time.sleep(0.005)


def setup(workload: str, rng, tracer, run_dir: Path):
    """Everything before the first request: both keygens, the commitment
    generators for the workload's attributes, over the wire the services,
    and one checked issue+verify per scheme.  Returns (keys, services)."""
    n_attrs, over_wire = WORKLOADS[workload]
    attrs = scheme.DEFAULT_ATTRIBUTES[:n_attrs]
    with tracer.span("scheme.ecc_keygen"):
        ecc_key = scheme.ecc_keygen(rng)
    with tracer.span("scheme.rsa_keygen"):
        rsa_key = scheme.rsa_keygen(rng)
    keys = {"ecc160": ecc_key, "modexp1024": rsa_key}
    for i in range(n_attrs):
        with tracer.span("scheme.derive_generator"):
            scheme.derive_generator(i)
    services = {}
    if over_wire:
        services = start_services(keys, run_dir)
        client = OverWire({phase: s.endpoint for phase, s in services.items()})
    else:
        client = InProcess(keys, rng)
    try:
        for name in SCHEMES:
            handle = _first_call(services.get("issue"), lambda: client.issue(name, attrs))
            valid = _first_call(services.get("verify"), lambda: client.verify(name, handle))
            if valid is not True or client.attributes(name, handle) != attrs:
                raise SetupFailed(f"warm-up {name} credential did not verify")
    except BaseException:
        stop_services(services)
        raise
    return keys, services


def setup_rep(workload: str, seed: int, rep: int) -> dict:
    """One cold set-up in a fresh interpreter, as the child process of a run."""
    import_s = import_abclab()
    from tracing import Tracer

    tracer = Tracer()
    run_dir = make_run_dir()
    try:
        start = time.perf_counter()
        _keys, services = setup(workload, random.Random(f"{seed}:setup:{rep}"),
                                tracer, run_dir)
        setup_s = import_s + time.perf_counter() - start
        stop_services(services)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"setup_s": setup_s, "layers": tracer.durations_ms()}


def make_run_dir() -> Path:
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Tally:
    latencies: dict = dataclasses.field(
        default_factory=lambda: {(n, p): [] for n in SCHEMES for p in PHASES})
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    wall_s: float = 0.0
    digest_docs: list = dataclasses.field(default_factory=list)
    issued: dict = dataclasses.field(default_factory=lambda: dict.fromkeys(SCHEMES, 0))

    def fewest(self) -> int:
        return min(map(len, self.latencies.values()))

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: {what} failed", file=sys.stderr)
            traceback.print_exc()


def closed_loop(client, attrs: tuple, tally: Tally, seconds: float, min_samples: int) -> None:
    """Issue then verify, alternating schemes with one request in flight, into
    tally, until `seconds` have passed and each of its cells holds min_samples."""
    base = getattr(client, "base", client)  # the untraced client
    clock = time.perf_counter
    start = clock()
    while True:
        elapsed = clock() - start
        if (elapsed >= seconds and tally.fewest() >= min_samples) or elapsed >= HARD_STOP_S:
            break
        for name in SCHEMES:
            tally.attempted += 1
            try:
                t0 = clock()
                handle = client.issue(name, attrs)
                t1 = clock()
            except Exception:
                tally.fail(f"{name} issue")
                continue
            tally.issued[name] += 1
            tally.attempted += 1
            try:
                t2 = clock()
                valid = client.verify(name, handle)
                t3 = clock()
            except Exception:
                tally.fail(f"{name} verify")
                continue
            if valid is True and base.attributes(name, handle) == attrs:
                tally.latencies[(name, "issue")].append((t1 - t0) * 1e3)
                tally.latencies[(name, "verify")].append((t3 - t2) * 1e3)
                tally.pairs += 1
                if len(tally.digest_docs) < DIGEST_CREDENTIALS:
                    tally.digest_docs.append(base.encode(name, handle))
            else:
                tally.failed += 1
                print(f"perfbench: genuine {name} credential rejected", file=sys.stderr)
            if tally.issued[name] % TAMPER_EVERY == 0:
                tally.attempted += 1
                try:
                    rejected = base.verify(name, base.tampered(name, handle)) is False
                except Exception:
                    tally.fail(f"{name} tampered verify")
                    continue
                if not rejected:
                    tally.failed += 1
                    print(f"perfbench: tampered {name} credential accepted", file=sys.stderr)
    tally.wall_s += clock() - start


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None when
    the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(tally: Tally, setup_samples: list, rss_mb: float) -> dict:
    """The gated end-to-end metrics.  The p90 latencies are printed but not
    gated: on a shared 2-vCPU host they moved by up to 60% between runs."""
    metrics = {f"{name}.{phase}_ms.p50": (statistics.median(values), "ms")
               for (name, phase), values in tally.latencies.items()}
    metrics["cred_per_s"] = (tally.pairs / tally.wall_s, "1/s")
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["rss_mb_peak"] = (rss_mb, "MB")
    return metrics


def per_layer(tracer, child_layers: list, untraced: Tally) -> tuple[dict, int]:
    """Median of every per-layer span or sample, the scheme self times, and
    the tracing overhead: the mean over scheme and phase of the traced
    request time's median against the untraced latency's median."""
    values = tracer.durations_ms()
    for layers in child_layers:
        for name, durations in layers.items():
            values.setdefault(name, []).extend(durations)
    self_ms, broken = tracer.scheme_self_ms()
    values.update(self_ms)
    values.update(tracer.samples)
    metrics = {}
    for name, unit in LAYER_METRICS:
        samples = values.get(name)
        if not samples:
            print(f"perfbench: no spans recorded for {name}", file=sys.stderr)
            samples = [0.0]
        scale = 1e3 if unit == "us" else 1.0
        metrics[f"{name}.{unit}"] = (statistics.median(samples) * scale, unit)
    ratios = [statistics.median(values[f"request.{phase}.{name}"])
              / statistics.median(untraced.latencies[(name, phase)])
              for name in SCHEMES for phase in PHASES]
    metrics[TRACE_OVERHEAD] = ((statistics.fmean(ratios) - 1) * 100, "%")
    return metrics, broken


def run(args) -> int:
    import_s = import_abclab()
    from tracing import TracedClient, Tracer

    load_start = os.getloadavg()[0]
    n_attrs, over_wire = WORKLOADS[args.workload]
    attrs = scheme.DEFAULT_ATTRIBUTES[:n_attrs]
    tracer = Tracer()
    run_dir = make_run_dir()
    services = {}
    try:
        start = time.perf_counter()
        keys, services = setup(args.workload, random.Random(f"{args.seed}:setup:0"),
                               tracer, run_dir)
        setup_samples = [import_s + time.perf_counter() - start]
        child_layers = []
        for rep in range(1, SETUP_REPEATS):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--setup-rep", str(rep)],
                cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=120)
            if child.returncode != 0:
                raise SetupFailed(f"set-up repetition {rep} failed:\n{child.stderr}")
            result = json.loads(child.stdout.splitlines()[-1])
            setup_samples.append(result["setup_s"])
            child_layers.append(result["layers"])

        if over_wire:
            client = OverWire({phase: s.endpoint for phase, s in services.items()})
        else:
            client = InProcess(keys, random.Random(f"{args.seed}:nonces"))
        untraced = Tally()
        tallies = [untraced]
        if args.trace:
            traced = Tally()
            tallies.append(traced)
            traced_client = TracedClient(
                tracer, client, InProcess(keys, random.Random(f"{args.seed}:replay")),
                client.endpoints if over_wire else None)
            # Untraced and traced slices alternate, so that both see the same
            # host conditions and their difference is the tracing overhead.
            start = time.perf_counter()
            try:
                while time.perf_counter() - start < HARD_STOP_S and not (
                        time.perf_counter() - start >= args.seconds
                        and min(untraced.fewest(), traced.fewest()) >= MIN_SAMPLES):
                    closed_loop(client, attrs, untraced, TRACE_SLICE_S, 0)
                    closed_loop(traced_client, attrs, traced, TRACE_SLICE_S, 0)
            finally:
                traced_client.close()
        else:
            closed_loop(client, attrs, untraced, args.seconds, MIN_SAMPLES)
        rss_mb = stop_services(services) if over_wire \
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        stop_services(services)
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps({
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "commit": git_commit(), "seed": args.seed}))
    if over_wire:
        print("digest n/a: the issuer service draws its own ecc160 nonces")
    else:
        print(f"digest sha256={digest(untraced.digest_docs)} "
              f"over the first {len(untraced.digest_docs)} credentials")
    print("samples " + " ".join(f"{n}.{p}={len(v)}" for (n, p), v in untraced.latencies.items()))
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for (name, phase), values in untraced.latencies.items():
        print(f"info {name}.{phase}_ms.p90 {p90(values):.6g} ms")
    for phase in PHASES:
        ratio = (statistics.median(untraced.latencies[("modexp1024", phase)])
                 / statistics.median(untraced.latencies[("ecc160", phase)]))
        print(f"info modexp1024/ecc160 {phase} p50 ratio {ratio:.3f}")

    correct = failed == 0
    if args.trace:
        metrics, broken = per_layer(tracer, child_layers, untraced)
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        print(f"kernel spans exceeding their scheme span: {broken}")
        correct = correct and broken == 0
    else:
        metrics = end_to_end(untraced, setup_samples, rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-rep", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abclab" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no abclab package; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_rep is not None:
        print(json.dumps(setup_rep(args.workload, args.seed, args.setup_rep)))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

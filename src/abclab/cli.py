"""Command-line entry point: key generation, local and remote issue/verify,
service hosting, benchmarking, and report rendering.

Exit codes: 0 success, 1 usage error, 2 failed verification, 3 I/O or
network failure, or no memory reading on this platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import random
import socket
import sys
from contextlib import nullcontext

from . import bench, scheme, wire


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad flags; the contract here is exit 1.
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _rng(seed):
    return random.Random(seed) if seed is not None else None


def _resolve_endpoint(env_name, default_port, given):
    """The given address unless it is None, else the env var, else the
    default port on 127.0.0.1; wire.parse_endpoint checks whichever it is."""
    if given is None:
        given = os.environ.get(env_name) or f"127.0.0.1:{default_port}"
    return wire.parse_endpoint(given)


def _parse_attrs(args) -> tuple[int, ...]:
    if args.attrs is not None:
        values = args.attrs
    elif 1 <= args.attr_count <= scheme.MAX_ATTRIBUTES:
        values = scheme.DEFAULT_ATTRIBUTES[: args.attr_count]
    else:
        raise UsageError(f"--attr-count must be in 1..{scheme.MAX_ATTRIBUTES}, "
                         f"got {args.attr_count}")
    return scheme.check_attributes(values)


def _decimal(text, signed=False) -> int:
    """A decimal in the wire's one form, after a leading '-' if signed."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not wire._DECIMAL.fullmatch(digits):
        raise argparse.ArgumentTypeError(f"must be a decimal integer, got {text!r}")
    return int(text)


def _seed(text) -> int:
    return _decimal(text, signed=True)


def _int_list(text) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(map(wire._DECIMAL.fullmatch, parts)):
        raise argparse.ArgumentTypeError(f"must be comma-separated decimal integers, got {text!r}")
    return tuple(map(int, parts))  # argparse reports int()'s ValueError past its digit limit


def _read_json(path):
    with open(path, encoding="utf-8") as stream:
        try:
            return json.load(stream)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise UsageError(f"{path}: {exc}") from None


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(doc, stream, indent=2)
        stream.write("\n")


def _load_key(path):
    return wire.key_from_wire(_read_json(path))


def _load_public(path):
    """Accept either a public-key file or a full key file, which holds the
    public-key fields too."""
    return wire.public_from_wire(_read_json(path))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    key = scheme.keygen(args.scheme, _rng(args.seed))
    _write_json(args.out, wire.key_to_wire(args.scheme, key))
    print(f"wrote {args.scheme} issuer key to {args.out}")
    if args.pub_out:
        public = scheme.public_part(args.scheme, key)
        _write_json(args.pub_out, wire.public_to_wire(args.scheme, public))
        print(f"wrote public part to {args.pub_out}")
    return 0


def cmd_issue(args) -> int:
    attrs = _parse_attrs(args)
    if args.remote or not args.key:
        endpoint = _resolve_endpoint(wire.ISSUER_ADDR_ENV, wire.DEFAULT_ISSUER_PORT,
                                     args.remote)
        doc, round_trip_ms = wire.client_issue(endpoint, args.scheme, attrs)
        print(f"issued remotely in {round_trip_ms:.2f} ms round trip")
    else:
        name, key = _load_key(args.key)
        if name != args.scheme:
            raise UsageError(f"key file is for {name}, not {args.scheme}")
        # Untimed, with its own rng: a fresh process builds its tables here.
        scheme.issue(args.scheme, key, attrs)
        cred, issue_ms = bench.time_phase(
            lambda: scheme.issue(args.scheme, key, attrs, _rng(args.seed))
        )
        doc = wire.credential_to_wire(args.scheme, cred)
        print(f"issued locally in {issue_ms:.2f} ms")
    _write_json(args.out, doc)
    print(f"wrote credential ({len(attrs)} attributes) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    doc = _read_json(args.cred)
    scheme_name, cred = wire.credential_from_wire(doc)  # before any connection
    if args.scheme not in (None, scheme_name):
        raise UsageError(f"scheme mismatch: --scheme={args.scheme} credential={scheme_name}")
    if args.remote or not args.pub:
        endpoint = _resolve_endpoint(wire.VERIFIER_ADDR_ENV, wire.DEFAULT_VERIFIER_PORT,
                                     args.remote)
        valid, round_trip_ms = wire.client_verify(endpoint, scheme_name, doc)
        print(f"remote verification took {round_trip_ms:.2f} ms round trip")
    else:
        pub_name, public = _load_public(args.pub)
        if pub_name != scheme_name:
            raise UsageError(
                f"scheme mismatch: credential={scheme_name} public-key={pub_name}"
            )
        valid = scheme.verify(scheme_name, public, cred)  # both decoders checked the points
    print("valid" if valid else "invalid")
    return 0 if valid else 2


def _serve(args, default_port, env_name, load, run) -> int:
    """Load the files, one per scheme, bind, then say where: a failed bind
    prints nothing, and port 0 reports the port the OS picked."""
    endpoint = _resolve_endpoint(env_name, default_port, args.bind)
    material = {}
    for name, item in map(load, args.paths):
        if name in material:
            raise UsageError(f"more than one key file for {name}")
        material[name] = item
    with socket.create_server(endpoint) as listener:
        host, port = listener.getsockname()[:2]
        print(f"serving {sorted(material)} on {host}:{port}", flush=True)
        try:
            run(listener, material)
        except KeyboardInterrupt:
            print("stopped")
    return 0


def cmd_serve_issuer(args) -> int:
    return _serve(args, wire.DEFAULT_ISSUER_PORT, wire.ISSUER_ADDR_ENV,
                  _load_key, wire.issuer_serve)


def cmd_serve_verifier(args) -> int:
    return _serve(args, wire.DEFAULT_VERIFIER_PORT, wire.VERIFIER_ADDR_ENV,
                  _load_public, wire.verifier_serve)


def cmd_bench(args) -> int:
    """The config file's settings, then the given flags over them; an address
    is checked whenever it is given, and taken from the env var or the
    default when over-wire mode needs one."""
    settings = _read_json(args.config) if args.config else {}
    if not isinstance(settings, dict):
        raise UsageError(f"{args.config}: the benchmark configuration must be a JSON object")
    fields = {field.name for field in dataclasses.fields(bench.BenchConfig)}
    settings.update((name, value) for name, value in vars(args).items() if name in fields)
    for field, env_name, default_port in (
            ("issuer_addr", wire.ISSUER_ADDR_ENV, wire.DEFAULT_ISSUER_PORT),
            ("verifier_addr", wire.VERIFIER_ADDR_ENV, wire.DEFAULT_VERIFIER_PORT)):
        if settings.get(field) is not None or settings.get("mode") == "over-wire":
            settings[field] = _resolve_endpoint(env_name, default_port, settings.get(field))
    try:
        config = bench.BenchConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad benchmark configuration: {exc}")

    # Opened before the grid runs, so a path that cannot be written fails
    # first; appending leaves an existing file as it was until the records
    # replace it.
    with open(config.out, "a", encoding="utf-8") if config.out else nullcontext() as out:
        total = 2 * len(config.schemes) * len(config.attr_counts) * config.runs
        print(f"running {config.runs} runs x {config.schemes} x "
              f"{config.attr_counts} attrs ({config.mode}): {total} records")
        errors = []
        records = bench.run_benchmark(config, errors)
        if not records:  # only over-wire runs can fail, and every one did
            raise wire.ConnectionFailed(
                f"no over-wire run succeeded; the last error: {errors[-1]}")
        bench.render_report(bench.summarize(records), "markdown", sys.stdout)
        if out:
            out.truncate(0)
            bench.save_records(out, config, records)
            print(f"wrote {len(records)} records to {config.out}")
    return 0


def cmd_report(args) -> int:
    records = bench.load_records(args.records)
    summaries = bench.summarize(records)
    bench.emit_report(summaries, args.format, args.out)
    print(f"wrote {args.format} report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="abclab",
                     description="Attribute-based credential performance lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate an issuer key file")
    p.add_argument("--scheme", choices=scheme.SCHEME_NAMES, required=True)
    p.add_argument("--out", required=True, help="key file to write (JSON)")
    p.add_argument("--pub-out", help="also write the public part")
    p.add_argument("--seed", type=_seed, help="deterministic key generation")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("issue", help="issue a credential locally or remotely")
    p.add_argument("--scheme", choices=scheme.SCHEME_NAMES, required=True)
    p.add_argument("--attrs", type=_int_list, help="comma-separated decimal attribute values")
    p.add_argument("--attr-count", type=_decimal, default=10,
                   help="use first N fixture attributes when --attrs is omitted")
    p.add_argument("--key", help="issuer key file for local issuance")
    p.add_argument("--remote", help="issuer endpoint host:port")
    p.add_argument("--out", required=True, help="credential file to write")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("verify", help="verify a credential file")
    p.add_argument("--scheme", choices=scheme.SCHEME_NAMES)
    p.add_argument("--cred", required=True, help="credential file")
    p.add_argument("--pub", help="issuer public key file for local verification")
    p.add_argument("--remote", help="verifier endpoint host:port")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve-issuer", help="run the issuance service")
    p.add_argument("--bind", help="host:port to listen on")
    p.add_argument("--key", dest="paths", action="append", required=True,
                   help="issuer key file (repeatable, one per scheme)")
    p.set_defaults(func=cmd_serve_issuer)

    p = sub.add_parser("serve-verifier", help="run the verification service")
    p.add_argument("--bind", help="host:port to listen on")
    p.add_argument("--pub", dest="paths", action="append", required=True,
                   help="issuer public key file (repeatable)")
    p.set_defaults(func=cmd_serve_verifier)

    # Each flag's dest is its BenchConfig field, and a flag not given is absent.
    p = sub.add_parser("bench", help="run the benchmark grid",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--schemes", type=lambda text: text.split(","),
                   help="comma-separated subset of " + ",".join(scheme.SCHEME_NAMES))
    p.add_argument("--attr-counts", type=_int_list, help="comma-separated counts, e.g. 1,5,10")
    p.add_argument("--runs", type=_decimal)
    p.add_argument("--mode", choices=("in-process", "over-wire"))
    p.add_argument("--seed", type=_seed)
    p.add_argument("--config", default=None, help="JSON object of BenchConfig fields")
    p.add_argument("--issuer", dest="issuer_addr", help="issuer endpoint for over-wire mode")
    p.add_argument("--verifier", dest="verifier_addr",
                   help="verifier endpoint for over-wire mode")
    p.add_argument("--out", help="write raw records (JSON) here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render a report from saved records")
    p.add_argument("--records", required=True, help="records file from bench --out")
    p.add_argument("--format", choices=bench.REPORT_FORMATS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (wire.ConnectionFailed, wire.RemoteError, bench.UnsupportedPlatform, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (wire.WireError, scheme.UnknownScheme, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

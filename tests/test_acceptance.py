"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full benchmark grid
(criteria 7 and 8) executes once in a module fixture and takes a minute or
two; everything else is fast.
"""

import contextlib
import io
import random
import socket
import struct
import threading
import time

import pytest

from abclab import bench, scheme, wire
from abclab.curve import (
    BASE,
    BASE_X,
    BASE_Y,
    D,
    NEUTRAL,
    P,
    Q,
    point_add,
    point_double,
    point_equal,
    scalar_mul,
    scalar_mul_counted,
    to_affine,
)

import oracles
from test_scheme import mutate_ecc, mutate_modexp


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def full_grid():
    """The complete benchmark grid: 2 schemes x (1, 5, 10) attrs x 100 runs."""
    config = bench.BenchConfig(seed=0xA5C)
    start = time.perf_counter()
    records = bench.run_benchmark(config)
    elapsed = time.perf_counter() - start
    summaries = bench.summarize(records)
    return config, records, summaries, elapsed


def test_criterion_01_curve_parameters():
    with criterion(1, "published curve parameters validate; base point has order q"):
        start = time.perf_counter()
        lhs = (-BASE_X * BASE_X + BASE_Y * BASE_Y) % P
        rhs = (1 + D * BASE_X * BASE_X % P * BASE_Y % P * BASE_Y) % P
        assert lhs == rhs, "base point fails the twisted curve equation"
        assert point_equal(scalar_mul(Q, BASE), NEUTRAL)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_formula_cross_checks():
    with criterion(2, "unified add equals double on 100 random points; "
                      "doubling matches the affine oracle"):
        start = time.perf_counter()
        rng = random.Random(0xC2)
        for _ in range(100):
            pt = scalar_mul(rng.randrange(1, Q), BASE)
            assert point_equal(point_add(pt, pt), point_double(pt))
        got = to_affine(point_double(BASE))
        assert tuple(got) == oracles.affine_double((BASE_X, BASE_Y))
        assert time.perf_counter() - start < 1.0


def test_criterion_03_scalar_multiplication_oracle():
    with criterion(3, "scalar_mul equals repeated addition for k in 1..257; "
                      "homomorphism holds on 100 random scalar pairs"):
        start = time.perf_counter()
        acc = NEUTRAL
        for k in range(1, 258):
            acc = point_add(acc, BASE)
            assert point_equal(scalar_mul(k, BASE), acc), f"mismatch at k={k}"
        rng = random.Random(0xC3)
        for _ in range(100):
            k1, k2 = rng.randrange(Q), rng.randrange(Q)
            assert point_equal(
                scalar_mul((k1 + k2) % Q, BASE),
                point_add(scalar_mul(k1, BASE), scalar_mul(k2, BASE)),
            )
        assert time.perf_counter() - start < 10.0


def test_criterion_04_complexity_instrumentation():
    with criterion(4, "doubles == bitlen-1 exactly; adds/doubles averages "
                      "to ~1/2 over 1000 random 160-bit scalars"):
        start = time.perf_counter()
        rng = random.Random(0xC4)
        total_doubles = total_adds = 0
        for _ in range(1000):
            k = rng.randrange(1 << 159, 1 << 160)
            _, doubles, adds = scalar_mul_counted(k, BASE)
            assert doubles == k.bit_length() - 1
            total_doubles += doubles
            total_adds += adds
        ratio = total_adds / total_doubles
        assert 0.45 <= ratio <= 0.55, f"mean add/double ratio {ratio}"
        assert time.perf_counter() - start < 30.0


def test_criterion_05_power_of_two_scalar_speed():
    with criterion(5, "scalar_mul(2^40, B) completes in under 100 ms"):
        scalar_mul(2**40, BASE)  # warm-up
        start = time.perf_counter()
        result = scalar_mul(2**40, BASE)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        assert elapsed_ms < 100.0, f"took {elapsed_ms:.2f} ms"
        _, doubles, adds = scalar_mul_counted(2**40, BASE)
        assert (doubles, adds) == (40, 0)
        assert point_equal(result, scalar_mul(2**40, BASE))


def test_criterion_06_scheme_completeness_and_soundness():
    with criterion(6, "both schemes round-trip on 1/5/10 fixture attributes; "
                      "200 single-bit mutations per scheme all rejected"):
        start = time.perf_counter()
        rng = random.Random(0xC6)
        ecc_key = scheme.ecc_keygen(rng)
        rsa_key = scheme.rsa_keygen(rng)
        for count in (1, 5, 10):
            attrs = scheme.DEFAULT_ATTRIBUTES[:count]
            assert scheme.ecc_verify(ecc_key.public, scheme.ecc_issue(ecc_key, attrs, rng))
            assert scheme.rsa_verify(rsa_key.public, scheme.rsa_issue(rsa_key, attrs))

        ecc_cred = scheme.ecc_issue(ecc_key, scheme.DEFAULT_ATTRIBUTES[:5], rng)
        rsa_cred = scheme.rsa_issue(rsa_key, scheme.DEFAULT_ATTRIBUTES[:5])
        for _ in range(200):
            assert scheme.verify("ecc160", ecc_key.public, mutate_ecc(ecc_cred, rng)) is False
            assert scheme.verify("modexp1024", rsa_key.public,
                                 mutate_modexp(rsa_cred, rng)) is False
        assert time.perf_counter() - start < 120.0


def test_criterion_07_full_grid_shape(full_grid):
    with criterion(7, "full grid completes: 1200 records, 12 time + 12 memory "
                      "summaries, min <= mean <= max, pct in (0, 100]"):
        config, records, summaries, elapsed = full_grid
        assert elapsed < 15 * 60, f"grid took {elapsed:.0f} s"
        expected = 2 * len(config.schemes) * len(config.attr_counts) * config.runs
        assert expected == 1200
        assert len(records) == 1200
        time_summaries = [s for s in summaries if s.metric == "time_ms"]
        memory_summaries = [s for s in summaries if s.metric == "memory_mb"]
        assert len(time_summaries) == 12
        assert len(memory_summaries) == 12
        for s in summaries:
            assert s.min <= s.mean <= s.max, s
            assert 0 < s.pct_ge_mean <= 100, s
        assert all(r.valid for r in records if r.phase == "verify")


def test_criterion_08_directional_ratio(full_grid):
    with criterion(8, "modexp1024 mean time exceeds ecc160 in every grid cell "
                      "for both issuance and verification"):
        _, _, summaries, _ = full_grid
        rows = bench.mean_ratio_rows(summaries)
        assert len(rows) == 6  # 2 phases x 3 attribute counts
        print()
        for row in rows:
            print(f"  mean-time ratio modexp1024/ecc160 "
                  f"[{row['phase']}, {row['attr_count']} attrs]: {row['ratio']:.2f}")
            assert row["ratio"] > 1.0, row
        # The rendered report carries the same ratio rows.
        buf = io.StringIO()
        bench._render_csv(summaries, rows, buf)
        assert buf.getvalue().count("modexp1024/ecc160") == 6


def test_criterion_09_wire_fuzzing():
    with criterion(9, "10^4 random byte strings into frame_read yield only "
                      "typed errors and never oversize allocations"):
        start = time.perf_counter()
        rng = random.Random(0xC9)
        outcomes = {"error": 0, "envelope": 0}
        for i in range(10_000):
            if i % 3 == 0:
                # Adversarial declared length over a short body.
                blob = struct.pack("!I", rng.randrange(0, 1 << 32)) + rng.randbytes(8)
            else:
                blob = rng.randbytes(rng.randrange(0, 80))
            try:
                wire.frame_read(io.BytesIO(blob))
                outcomes["envelope"] += 1
            except wire.WireError:
                outcomes["error"] += 1
        assert sum(outcomes.values()) == 10_000
        # Oversize declarations must be refused before the body is touched.
        with pytest.raises(wire.FrameTooLarge):
            wire.frame_read(io.BytesIO(struct.pack("!I", 0xFFFFFFFF)))
        assert time.perf_counter() - start < 60.0


def test_criterion_10_end_to_end_over_tcp():
    with criterion(10, "TCP issue-then-verify valid for 1/5/10 attributes; "
                       "tampered wire credential verifies false"):
        start = time.perf_counter()
        rng = random.Random(0xCA)
        keys = {"ecc160": scheme.ecc_keygen(rng), "modexp1024": scheme.rsa_keygen(rng)}
        publics = {name: scheme.public_part(name, key) for name, key in keys.items()}
        issuer_sock = socket.create_server(("127.0.0.1", 0))
        verifier_sock = socket.create_server(("127.0.0.1", 0))
        issuer_ep = ("127.0.0.1", issuer_sock.getsockname()[1])
        verifier_ep = ("127.0.0.1", verifier_sock.getsockname()[1])
        stop = threading.Event()
        threads = [
            threading.Thread(target=wire.issuer_serve, args=(issuer_sock, keys),
                             kwargs={"stop_event": stop}, daemon=True),
            threading.Thread(target=wire.verifier_serve, args=(verifier_sock, publics),
                             kwargs={"stop_event": stop}, daemon=True),
        ]
        for t in threads:
            t.start()
        try:
            for name in scheme.SCHEME_NAMES:
                for count in (1, 5, 10):
                    attrs = scheme.DEFAULT_ATTRIBUTES[:count]
                    doc, _ = wire.client_issue(issuer_ep, name, attrs)
                    valid, _ = wire.client_verify(verifier_ep, name, doc)
                    assert valid, (name, count)
            doc, _ = wire.client_issue(issuer_ep, "ecc160", scheme.DEFAULT_ATTRIBUTES[:3])
            doc["attributes"][1] = str(int(doc["attributes"][1]) ^ 1)
            valid, _ = wire.client_verify(verifier_ep, "ecc160", doc)
            assert not valid
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=3)
        assert time.perf_counter() - start < 30.0

#!/usr/bin/env python3
"""Shows that every correctness check of the benchmark can fail.

Each test feeds one check a deliberately wrong input and confirms that the
check rejects it, next to a right input that it accepts. The buffer
overflow case asks the library's legality check through perfbench_e2e,
which this test builds first.

    python3 perfbench/test_checks.py
"""
import json
import os
import tempfile
import unittest

import checks
import gen
import harness
import run

ENVELOPE = {"max_pes": 256, "max_onchip_bytes": 512 * 1024,
            "max_noc_bandwidth": 64, "dram_bandwidth": 16}
ARCH = {"num_array_dims": 2, "array_dims": [16, 16, 1],
        "parallel_dims": [2, 1, 4], "l1_bytes": 256, "l2_bytes": 128 * 1024,
        "noc_bandwidth": 32, "dram_bandwidth": 16}
# conv 64->64, 3x3, 28x28 output: dims N K C Y' X' R S.
DIMS = [1, 64, 64, 28, 28, 3, 3]
LAYER_FIELDS = [0, 1, 64, 64, 28, 28, 3, 3, 1]


def with_(d, **kw):
    out = json.loads(json.dumps(d))
    out.update(kw)
    return out


class Checks(unittest.TestCase):
    def test_report_below_compute_floor(self):
        floor = -(-(64 * 64 * 28 * 28 * 9) // 256)
        checks.compute_floor(DIMS, float(floor), 256, "at floor")
        with self.assertRaises(checks.CheckError):
            checks.compute_floor(DIMS, float(floor - 1), 256, "below floor")

    def test_oversized_design(self):
        checks.envelope(ARCH, ENVELOPE)
        for bad in (with_(ARCH, array_dims=[32, 16, 1]),             # 512 PEs
                    with_(ARCH, l2_bytes=512 * 1024),                # on-chip
                    with_(ARCH, noc_bandwidth=128),                  # NoC
                    with_(ARCH, parallel_dims=[1, 1, 4])):           # invalid
            with self.assertRaises(checks.CheckError):
                checks.envelope(bad, ENVELOPE)

    def test_tile_that_overflows_a_buffer(self):
        run.build(["perfbench_e2e"])
        e2e = os.path.join(run.BUILD_DIR, "perfbench_e2e")
        ones = {"order": list(range(7)), "tile": [1] * 7}
        fits = {"dram": ones, "pe": ones, "pe_order": list(range(7))}
        # Per-PE tile of 64x28x28 outputs cannot fit a 256-byte L1.
        big = {"order": list(range(7)), "tile": [1, 64, 64, 28, 28, 3, 3]}
        pe = {"order": list(range(7)), "tile": [1, 4, 4, 28, 28, 3, 3]}
        overflow = {"dram": big, "pe": pe, "pe_order": list(range(7))}
        cases = [f"map {gen.arch_tokens(ARCH)} {' '.join(map(str, LAYER_FIELDS))} "
                 f"{gen.mapping_tokens(m)}" for m in (fits, overflow)]
        with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as tmp:
            out, _, _ = harness.run([e2e, "verify", "1"], tmp, "verify",
                                    stdin_text="\n".join(cases) + "\n")
        ok, bad = [json.loads(line) for line in out.splitlines()]
        checks.legal_mapping(ok, "all-ones tiles")
        with self.assertRaises(checks.CheckError):
            checks.legal_mapping(bad, "overflowing tile")

    def test_network_total_off_by_one_layer(self):
        rows = [(1, 1200.5, 3.25), (2, 800.0, 1.75), (3, 96.125, 0.5)]
        lat = sum(c * l for c, l, _ in rows)
        energy = sum(c * e for c, _, e in rows)
        total = {"latency_cycles": lat, "energy_nj": energy, "edp": lat * energy}
        checks.network_totals(rows, total, "all layers")
        with self.assertRaises(checks.CheckError):
            checks.network_totals(rows[:-1], total, "one layer missing")
        with self.assertRaises(checks.CheckError):
            checks.network_totals(rows[:-1] + [(4, 96.125, 0.5)], total,
                                  "one layer counted once more")
        with self.assertRaises(checks.CheckError):
            checks.network_totals(rows, with_(total, edp=total["edp"] * 1.5),
                                  "edp not latency x energy")

    def test_flipped_response_byte(self):
        reqs = ['{"id":0,"method":"ping"}', '{"id":1,"method":"ping"}']
        resp = ['{"id":0,"ok":true,"result":{"pong":true}}',
                '{"id":1,"ok":true,"result":{"pong":true}}']
        checks.responses(reqs, resp, "session")
        checks.byte_identical(resp, list(resp), "replay")
        flipped = list(resp)
        flipped[1] = flipped[1][:10] + chr(ord(flipped[1][10]) ^ 1) + flipped[1][11:]
        with self.assertRaises(checks.CheckError):
            checks.byte_identical(resp, flipped, "replay")
        with self.assertRaises(checks.CheckError):
            checks.responses(reqs, resp[::-1], "out of order")
        with self.assertRaises(checks.CheckError):
            checks.responses(reqs, [resp[0], resp[1].replace("true", "false", 1)],
                             "not ok")

    def test_result_differs_or_worse(self):
        checks.identical({"edp": 1.0}, {"edp": 1.0}, "same")
        with self.assertRaises(checks.CheckError):
            checks.identical({"edp": 1.0}, {"edp": 1.0 + 2 ** -52}, "warm")
        checks.no_worse(1.0, 1.0, "tie")
        with self.assertRaises(checks.CheckError):
            checks.no_worse(1.5, 1.0, "vs baseline")
        report = {"legal": True, "latency_cycles": 10.0, "energy_nj": 2.0,
                  "edp": 20.0}
        checks.same_report(report, dict(report), "re-scored")
        with self.assertRaises(checks.CheckError):
            checks.same_report(report, with_(report, energy_nj=2.5), "re-scored")


if __name__ == "__main__":
    unittest.main()

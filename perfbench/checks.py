"""Correctness checks on the program's outputs.

Each check uses a property the method must have, or a total reached by an
independent path; none compares against a stored copy of earlier output.
Every check raises CheckError on a wrong input; test_checks.py feeds each
one a deliberately wrong input to show that it can fail.
"""
import json
import math


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def envelope(arch, env):
    """The design fits the envelope, recomputed from the ArchConfig fields."""
    nd = arch["num_array_dims"]
    require(1 <= nd <= 3, f"bad array rank {nd}")
    dims = arch["array_dims"][:nd]
    par = arch["parallel_dims"][:nd]
    require(all(d >= 1 for d in dims), f"non-positive array dims {dims}")
    require(len(set(par)) == nd, f"duplicate parallel dims {par}")
    require(min(arch["l1_bytes"], arch["l2_bytes"], arch["noc_bandwidth"],
                arch["dram_bandwidth"]) > 0, "non-positive buffer or bandwidth")
    pes = math.prod(dims)
    onchip = arch["l2_bytes"] + arch["l1_bytes"] * pes
    require(pes <= env["max_pes"], f"{pes} PEs > {env['max_pes']}")
    require(onchip <= env["max_onchip_bytes"],
            f"{onchip} on-chip bytes > {env['max_onchip_bytes']}")
    require(arch["noc_bandwidth"] <= env["max_noc_bandwidth"],
            f"noc {arch['noc_bandwidth']} > {env['max_noc_bandwidth']}")


def num_pes(arch):
    return math.prod(arch["array_dims"][:arch["num_array_dims"]])


def compute_floor(dims, latency, pes, what):
    """A layer cannot finish before ceil(MACs / PEs) cycles."""
    macs = math.prod(dims)
    floor = -(-macs // pes)
    require(latency is not None and latency >= floor,
            f"{what}: latency {latency} below compute floor {floor}")


def network_totals(rows, total, what):
    """Totals equal the count-weighted sums of the per-layer reports (summed
    in report order, as the cost model does), and EDP = latency x energy.
    `rows` is a list of (count, latency_cycles, energy_nj)."""
    lat = 0.0
    energy = 0.0
    for count, l, e in rows:
        require(l is not None and e is not None, f"{what}: illegal layer")
        lat += l * count
        energy += e * count
    require(total["latency_cycles"] == lat,
            f"{what}: latency {total['latency_cycles']} != layer sum {lat}")
    require(total["energy_nj"] == energy,
            f"{what}: energy {total['energy_nj']} != layer sum {energy}")
    require(total["edp"] == total["latency_cycles"] * total["energy_nj"],
            f"{what}: edp != latency x energy")


def same_report(got, want, what):
    for key in ("legal", "latency_cycles", "energy_nj", "edp"):
        require(got.get(key) == want.get(key),
                f"{what}: {key} {got.get(key)} != {want.get(key)}")


def legal_mapping(verdict, what):
    """`verdict` is perfbench_e2e's mapping::check answer for the mapping."""
    require(verdict["legal"], f"{what}: illegal mapping ({verdict['reason']})")


def no_worse(edp, ref, what):
    require(edp is not None and ref is not None and edp <= ref,
            f"{what}: EDP {edp} worse than reference {ref}")


def identical(a, b, what):
    require(a == b, f"{what}: results differ")


def responses(request_lines, response_lines, what):
    """Every response is ok and answers its request, in request order."""
    require(len(request_lines) == len(response_lines),
            f"{what}: {len(response_lines)} responses to "
            f"{len(request_lines)} requests")
    parsed = []
    for i, (req, resp) in enumerate(zip(request_lines, response_lines)):
        try:
            r = json.loads(resp)
        except ValueError:
            raise CheckError(f"{what}: response {i} is not JSON")
        require(r.get("ok") is True, f"{what}: response {i} not ok: {resp[:200]}")
        require(r.get("id") == json.loads(req)["id"],
                f"{what}: response {i} answers id {r.get('id')}")
        parsed.append(r["result"])
    return parsed


def byte_identical(a, b, what):
    """Two response streams are the same bytes, line for line."""
    require(len(a) == len(b), f"{what}: {len(a)} != {len(b)} responses")
    for i, (x, y) in enumerate(zip(a, b)):
        require(x == y, f"{what}: response {i} differs")

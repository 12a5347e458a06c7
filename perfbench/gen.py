"""Seeded input generation. Every input the program sees is made here.

Accelerators are drawn inside a resource envelope; a session is the mix of
serve requests over them. The same seed always gives the same inputs.
"""
import json
import math
import random

DIM_NAMES = ["N", "K", "C", "Y'", "X'", "R", "S"]
# ArchConfig's defaults for the axes a design does not use (C, K, X').
DEFAULT_PARALLEL = [2, 1, 4]
MIN_PES = 64
MIN_L2_BYTES = 16 * 1024


def random_arch(rng, env):
    """A valid design that fits `env` (the envelope dict from `zoo`)."""
    while True:
        nd = rng.choice([2, 2, 2, 3])
        if nd == 2:
            dims = [rng.randrange(4, 33, 2) for _ in range(2)]
        else:
            dims = [rng.randrange(4, 9, 2) for _ in range(3)]
        pes = math.prod(dims)
        if not MIN_PES <= pes <= env["max_pes"]:
            continue
        l1 = rng.randrange(64, 1025, 16)
        l2_max = env["max_onchip_bytes"] - l1 * pes
        if l2_max < MIN_L2_BYTES:
            continue
        return {
            "num_array_dims": nd,
            "array_dims": dims + [1] * (3 - nd),
            "parallel_dims": rng.sample(range(1, 7), nd) + DEFAULT_PARALLEL[nd:],
            "l1_bytes": l1,
            "l2_bytes": rng.randrange(MIN_L2_BYTES, l2_max + 1, 1024),
            "noc_bandwidth": rng.randrange(8, env["max_noc_bandwidth"] + 1, 8),
            "dram_bandwidth": env["dram_bandwidth"],
        }


def arch_request(arch, name):
    nd = arch["num_array_dims"]
    return {
        "name": name,
        "array_dims": arch["array_dims"][:nd],
        "parallel_dims": [DIM_NAMES[p] for p in arch["parallel_dims"][:nd]],
        "l1_bytes": arch["l1_bytes"],
        "l2_bytes": arch["l2_bytes"],
        "noc_bandwidth": arch["noc_bandwidth"],
        "dram_bandwidth": arch["dram_bandwidth"],
    }


def parallel_extent(arch, d):
    nd = arch["num_array_dims"]
    return math.prod(arch["array_dims"][a] for a in range(nd)
                     if arch["parallel_dims"][a] == d)


def random_mapping(rng, arch, dims):
    """Random orders and tiles inside the layer's bounds. Some overflow a
    buffer; the cost model must report those as illegal."""
    def order():
        o = list(range(7))
        rng.shuffle(o)
        return o

    dram_tile = [min(n, 2 ** rng.randrange(0, n.bit_length() + 1)) for n in dims]
    pe_tile = [rng.randint(1, max(1, -(-t // parallel_extent(arch, d))))
               for d, t in enumerate(dram_tile)]
    return {"dram": {"order": order(), "tile": dram_tile},
            "pe": {"order": order(), "tile": pe_tile},
            "pe_order": order()}


def mapping_request(m):
    def level(lv):
        return {"order": [DIM_NAMES[d] for d in lv["order"]], "tile": lv["tile"]}
    return {"dram": level(m["dram"]), "pe": level(m["pe"]),
            "pe_order": [DIM_NAMES[d] for d in m["pe_order"]]}


def make_session(seed, zoo, nets, n_archs=96, n_search_pairs=3, n_evalmap=20):
    """The cold phase of a serve session, as a list of request dicts.

    - evaluate_network of every arch on the first two nets, and of every
      fourth arch (2, 6, 10, ...) on the others. Warm latency follows the
      response size, so request classes form separate modes; this mix keeps
      the session's median inside one class (the first net's answers)
      instead of on the gap between two, where it would jump;
    - search_mapping on every unique layer of the first n_search_pairs pairs
      (arch k with net k mod len(nets));
    - evaluate_mapping with a random mapping on a random (arch, layer).
    The list is shuffled; each request carries its position as its id and a
    private "_meta" entry that is stripped before sending.
    """
    rng = random.Random(seed)
    archs = [random_arch(rng, zoo["envelope"]) for _ in range(n_archs)]
    reqs = []

    def add(method, a, net, **extra):
        req = {"method": method, "arch": arch_request(archs[a], f"a{a}")}
        req.update(extra)
        meta = {"arch": archs[a], "net": net}
        meta.update({k: v for k, v in extra.items() if k == "layer"})
        req["_meta"] = meta
        reqs.append(req)

    for a in range(n_archs):
        for j, net in enumerate(nets):
            if j < 2 or a % 4 == 2:
                add("evaluate_network", a, net, network=net)
    for k in range(n_search_pairs):
        net = nets[k % len(nets)]
        for u in zoo["networks"][net]:
            add("search_mapping", k, net,
                layer={"network": net, "index": u["index"]})
    for _ in range(n_evalmap):
        a = rng.randrange(n_archs)
        net = rng.choice(nets)
        u = rng.choice(zoo["networks"][net])
        m = random_mapping(rng, archs[a], u["layer"]["dims"])
        add("evaluate_mapping", a, net,
            layer={"network": net, "index": u["index"]},
            mapping=mapping_request(m))
        reqs[-1]["_meta"]["mapping"] = m
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def request_line(req):
    body = {"id": req["id"]}
    body.update({k: v for k, v in req.items() if k not in ("id", "_meta")})
    return json.dumps(body, separators=(",", ":"))


# ------------------------------------------------ perfbench_e2e token forms

def arch_tokens(arch):
    return " ".join(str(v) for v in
                    [arch["num_array_dims"], *arch["array_dims"],
                     *arch["parallel_dims"], arch["l1_bytes"], arch["l2_bytes"],
                     arch["noc_bandwidth"], arch["dram_bandwidth"]])


def layer_tokens(layer):
    return " ".join(str(v) for v in layer["fields"])


def mapping_tokens(m):
    parts = [*m["dram"]["order"], *m["dram"]["tile"], *m["pe"]["order"],
             *m["pe"]["tile"], *m["pe_order"]]
    return " ".join(str(v) for v in parts)


def mapping_from_response(mj):
    """Response mapping JSON (dimension names) back to index form."""
    def level(lv):
        return {"order": [DIM_NAMES.index(d) for d in lv["order"]],
                "tile": lv["tile"]}
    return {"dram": level(mj["dram"]), "pe": level(mj["pe"]),
            "pe_order": [DIM_NAMES.index(d) for d in mj["pe_order"]]}

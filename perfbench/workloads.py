"""The end-to-end workloads. Each returns (metrics, attempted, failed).

Metrics every workload reports (see README.md for what each one means on
each workload):
  setup_s         cold set-up, from process start until the program answers
  cold_p50_ms     median latency of one cold operation
  cold_ops_per_s  cold operations completed per second (median over rounds)
  warm_p50_ms     median latency of one warm operation
  warm_ops_per_s  warm operations completed per second (median over rounds)
  edp_ratio       geomean EDP of the results against a reference
  peak_rss_mb     peak resident memory of the program processes
"""
import json
import os
import time

import checks
import gen
from harness import (NPROC, Child, LineClient, geomean, median, run,
                     wait_for_ping, free_port)
from pace import REF_PROBE_S, Pace

# Searches run over a fixed pool of search seeds; --seed rotates where a
# run starts in it. Every run completes at least one pass over the pool,
# and edp_ratio is the geomean over exactly that pass, so it reads the same
# on every run and moves only when the program's results move.
SEARCH_SEEDS = range(1, 9)
# Session rounds whose answers feed edp_ratio; every run completes them.
SESSION_QUALITY_ROUNDS = 8
SEARCH_MAP_BUDGET = (10, 6)    # naas_cli search's inner mapping budget
COSEARCH_MAP_BUDGET = (8, 5)   # naas_cli cosearch's inner mapping budget
COSEARCH_FLOOR = 76.3          # ResNet-50 top-1, the paper's Fig. 10 start
SERVE_THREADS = 2
WARM_MIN_REQUESTS = 1000

SEARCHES = {
    "search-cnn": {"net": "squeezenet", "envelope": "nvdla256",
                   "threads": NPROC, "warm_repeats": 2},
    "search-cnn-1t": {"net": "squeezenet", "envelope": "nvdla256",
                      "threads": 1, "warm_repeats": 2},
    # A warm co-search lasts ~50 ms, so each round repeats it more often.
    "cosearch-ofa": {"net": "resnet50", "envelope": "eyeriss",
                     "threads": NPROC, "warm_repeats": 8,
                     "floor": COSEARCH_FLOOR},
}
SESSIONS = {
    "serve-session": {"nets": ["squeezenet", "mobilenetv2", "bert_base_encoder"],
                      "envelope": "nvdla256", "fleet": False},
    "fleet-session": {"nets": ["squeezenet", "mobilenetv2", "bert_base_encoder"],
                      "envelope": "nvdla256", "fleet": True},
}


class Ctx:
    def __init__(self, bindir, workdir, seed, seconds, t0, start_probe,
                 build_s):
        self.e2e_bin = os.path.join(bindir, "perfbench_e2e")
        self.serve_bin = os.path.join(bindir, "naas", "naas_serve")
        self.router_bin = os.path.join(bindir, "naas", "naas_router")
        self.layers_bin = os.path.join(bindir, "perfbench_layers")
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.t0 = t0
        self.start_probe = start_probe
        self.build_s = build_s
        self.setup_s = None
        self.n = 0

    def name(self, base):
        self.n += 1
        return f"{base}-{self.n}"

    def e2e(self, args, stdin_text=None):
        """(stdout, wall seconds, peak RSS KB) of one perfbench_e2e call."""
        return run([self.e2e_bin, *args], self.workdir, self.name(args[0]),
                   stdin_text=stdin_text)

    def verify(self, cases):
        out, _, _ = self.e2e(["verify", str(NPROC)], "\n".join(cases) + "\n")
        results = [json.loads(line) for line in out.splitlines()]
        checks.require(len(results) == len(cases), "verify answered short")
        for r in results:
            checks.require("error" not in r, f"verify: {r.get('error')}")
        return results

    def setup_done(self):
        """Set-up ends when the program first answers; compiling is not
        part of it. Scaled by the host speed as the process started, which
        predicts it better than a probe after it does."""
        wall = time.perf_counter() - self.t0 - self.build_s
        self.setup_s = wall * REF_PROBE_S / self.start_probe


def zoo(ctx, envelope, nets):
    return json.loads(ctx.e2e(["zoo", envelope, *nets])[0])


def netspec(spec, result):
    if "ofa" in result:
        return "ofa " + " ".join(str(v) for v in result["ofa"])
    return "zoo " + spec["net"]


# ------------------------------------------------------------- searches

def search_pass(ctx, kind, spec, seed, threads, store, readonly):
    if kind == "cosearch":
        args = ["cosearch", spec["envelope"], str(spec["floor"])]
    else:
        args = ["search", spec["net"], spec["envelope"]]
    args += [str(seed), str(threads), store, "1" if readonly else "0"]
    out, wall, rss = ctx.e2e(args)
    return json.loads(out), wall, rss


def search_workload(ctx, name):
    spec = SEARCHES[name]
    kind = "cosearch" if "floor" in spec else "search"
    ctx.e2e(["ready", spec["envelope"]])
    z = zoo(ctx, spec["envelope"], [spec["net"]])
    ctx.setup_done()

    rounds, rss = [], []
    cold_walls, warm_walls, warm_rates = {}, {}, {}  # by pool seed
    start = time.perf_counter()
    while (len(rounds) < len(SEARCH_SEEDS)
           or time.perf_counter() - start < ctx.seconds):
        seed = SEARCH_SEEDS[(ctx.seed + len(rounds)) % len(SEARCH_SEEDS)]
        store = os.path.join(ctx.workdir, f"round{len(rounds)}.store")
        with Pace() as pace:
            cold, wall, kb = search_pass(ctx, kind, spec, seed,
                                         spec["threads"], store, False)
        cold_walls.setdefault(seed, []).append(wall * pace.factor)
        round_rss = [kb]
        warms, walls = [], []
        with Pace() as pace:
            for _ in range(spec["warm_repeats"]):
                warm, wall, kb = search_pass(ctx, kind, spec, seed,
                                             spec["threads"], store, True)
                walls.append(wall)
                round_rss.append(kb)
                warms.append(warm)
        walls = [w * pace.factor for w in walls]
        warm_walls.setdefault(seed, []).extend(walls)
        warm_rates.setdefault(seed, []).append(len(walls) / sum(walls))
        rounds.append((seed, cold, warms))
        rss.append(max(round_rss))

    # Unmeasured from here: re-derive and check every result.
    other = 1 if spec["threads"] != 1 else NPROC
    seed0, cold0, _ = rounds[0]
    again, _, _ = search_pass(ctx, kind, spec, seed0, other, "-", False)
    checks.identical(strip_time(again), strip_time(cold0),
                     f"{name}: {other}-thread result")
    ratios = verify_searches(ctx, kind, spec, z, rounds)
    attempted = sum(len(w) for w in [*cold_walls.values(),
                                     *warm_walls.values()])
    return {
        "setup_s": (ctx.setup_s, "s"),
        "cold_p50_ms": (1e3 * per_seed(cold_walls), "ms"),
        "cold_ops_per_s": (per_seed(cold_walls, lambda w: 1 / w), "1/s"),
        "warm_p50_ms": (1e3 * per_seed(warm_walls), "ms"),
        "warm_ops_per_s": (per_seed(warm_rates), "1/s"),
        "edp_ratio": (geomean(ratios), "ratio"),
        "peak_rss_mb": (median(rss) / 1024, "MB"),
    }, attempted, 0


def per_seed(by_seed, f=lambda x: x):
    """Median over the pool's seeds of each seed's median. Pool seeds differ
    in cost by up to 20%, so a plain median would move with which seeds a
    run happens to repeat; this way every seed weighs the same."""
    return median([median([f(x) for x in xs]) for xs in by_seed.values()])


def strip_time(result):
    return {k: v for k, v in result.items() if k != "seconds"}


def verify_searches(ctx, kind, spec, z, rounds):
    """Checks every round's result; returns each pool seed's EDP over the
    envelope baseline's."""
    pop, iters = COSEARCH_MAP_BUDGET if kind == "cosearch" else SEARCH_MAP_BUDGET
    env, base = z["envelope"], z["baseline"]
    by_seed = {}
    for seed, cold, warms in rounds:
        for w in warms:
            checks.identical(strip_time(w), strip_time(cold), f"seed {seed}: warm")
        first = by_seed.setdefault(seed, cold)
        checks.identical(strip_time(cold), strip_time(first),
                         f"seed {seed}: repeated cold search")
    if kind == "cosearch":
        cases = [f"subnet {pop} {iters} {spec['floor']} {gen.arch_tokens(base)}"]
    else:
        cases = [f"net {pop} {iters} {gen.arch_tokens(base)} zoo {spec['net']}"]
    for cold in by_seed.values():
        cases.append(f"net {pop} {iters} {gen.arch_tokens(cold['arch'])} "
                     f"{netspec(spec, cold)}")
        if kind == "cosearch":
            cases.append("acc " + " ".join(str(v) for v in cold["ofa"]))
    results = ctx.verify(cases)
    baseline_edp = results[0]["edp"] if kind == "cosearch" \
        else results[0]["network"]["edp"]
    per_seed = 2 if kind == "cosearch" else 1
    ratios = []
    for i, (seed, cold) in enumerate(by_seed.items()):
        what = f"seed {seed}"
        fresh = results[1 + per_seed * i]
        checks.envelope(cold["arch"], env)
        net = fresh["network"]
        if kind == "cosearch":
            top1 = results[2 + per_seed * i]["top1"]
            checks.require(top1 == cold["accuracy"] and top1 >= spec["floor"],
                           f"{what}: top-1 {top1} (reported {cold['accuracy']})")
            checks.require(net["edp"] == cold["edp"],
                           f"{what}: fresh EDP {net['edp']} != {cold['edp']}")
        else:
            checks.identical(net, cold["network"], f"{what}: fresh evaluation")
        check_network(net, cold["arch"], what)
        for row, verdict in zip(net["layers"], fresh["mappings"]):
            checks.legal_mapping(verdict, f"{what}: {row['layer']['name']}")
            checks.same_report(verdict["rescored"], row["report"],
                               f"{what}: {row['layer']['name']} re-scored")
        checks.no_worse(net["edp"], baseline_edp, f"{what}: vs baseline")
        ratios.append(net["edp"] / baseline_edp)
    return ratios


def check_network(net, arch, what):
    pes = checks.num_pes(arch)
    rows = [(r["count"], r["report"]["latency_cycles"], r["report"]["energy_nj"])
            for r in net["layers"]]
    checks.network_totals(rows, net, what)
    for r in net["layers"]:
        checks.compute_floor(r["layer"]["dims"], r["report"]["latency_cycles"],
                             pes, f"{what}: {r['layer']['name']}")


# ------------------------------------------------------------- sessions

class Service:
    """naas_serve, or naas_router over two naas_serve workers, with the
    same total of evaluation threads."""

    def __init__(self, ctx, fleet, tag):
        self.procs = []
        store = lambda k: os.path.join(ctx.workdir, f"{k}.store")
        if not fleet:
            self.port = free_port()
            self.procs.append(self._serve(ctx, self.port, SERVE_THREADS,
                                          store("serve"), f"serve-{tag}"))
            ports = [self.port]
        else:
            workers = [free_port() for _ in range(2)]
            for k, p in enumerate(workers):
                self.procs.append(self._serve(ctx, p, SERVE_THREADS // 2,
                                              store(f"worker{k}"),
                                              f"worker{k}-{tag}"))
            self.port = free_port()
            self.procs.insert(0, Child(
                [ctx.router_bin, "--workers",
                 ",".join(f"127.0.0.1:{p}" for p in workers),
                 "--listen", f"127.0.0.1:{self.port}"],
                ctx.workdir, f"router-{tag}"))
            ports = workers + [self.port]
        for p in ports:
            wait_for_ping(p)

    @staticmethod
    def _serve(ctx, port, threads, store, name):
        return Child([ctx.serve_bin, "--listen", f"127.0.0.1:{port}",
                      "--threads", str(threads), "--cache-path", store],
                     ctx.workdir, name)

    def drain(self):
        """Stops the router first, then the workers; returns the summed
        peak RSS in KB."""
        for p in self.procs:
            p.stop()
        return sum(p.rss_kb for p in self.procs)


def replay(client, lines):
    lat, resp = [], []
    for line in lines:
        t = time.perf_counter()
        resp.append(client.request(line))
        lat.append(time.perf_counter() - t)
    return lat, resp


def session_workload(ctx, name):
    """Rounds of: cold boot on an empty store, the cold session, drain,
    reboot from the store, warm replays of the same session, drain. Each
    round draws its own session from the seed."""
    spec = SESSIONS[name]
    z = zoo(ctx, spec["envelope"], spec["nets"])
    rounds = []
    cold_lat, cold_rates, warm_lat, warm_rates, rss = [], [], [], [], []
    start = None
    while (len(rounds) < SESSION_QUALITY_ROUNDS
           or time.perf_counter() - start < ctx.seconds):
        r = len(rounds)
        reqs = gen.make_session(ctx.seed * 1000 + r + 1, z, spec["nets"])
        lines = [gen.request_line(q) for q in reqs]
        for f in os.listdir(ctx.workdir):
            if f.endswith(".store"):
                os.remove(os.path.join(ctx.workdir, f))
        service = Service(ctx, spec["fleet"], f"cold{r}")
        if start is None:
            ctx.setup_done()
            start = time.perf_counter()
        client = LineClient(service.port)
        with Pace() as pace:
            t = time.perf_counter()
            lat, cold_resp = replay(client, lines)
            wall = time.perf_counter() - t
        cold_rates.append(len(lat) / (wall * pace.factor))
        cold_lat += [x * pace.factor for x in lat]
        client.close()
        round_rss = service.drain()

        service = Service(ctx, spec["fleet"], f"warm{r}")
        client = LineClient(service.port)
        warm_wall, lats = 0.0, []
        with Pace() as pace:
            for k in range(-(-WARM_MIN_REQUESTS // len(lines))):
                t = time.perf_counter()
                lat, resp = replay(client, lines)
                warm_wall += time.perf_counter() - t
                lats += lat
                checks.byte_identical(resp, cold_resp,
                                      f"round {r} warm replay {k}")
        warm_rates.append(len(lats) / (warm_wall * pace.factor))
        warm_lat += [x * pace.factor for x in lats]
        client.close()
        rss.append(max(round_rss, service.drain()))
        rounds.append((reqs, lines, cold_resp))

    # Unmeasured from here.
    ratios = []
    for reqs, lines, cold_resp in rounds[:SESSION_QUALITY_ROUNDS]:
        ratios += verify_session(ctx, z, reqs, lines, cold_resp)
    if spec["fleet"]:
        _, lines, cold_resp = rounds[0]
        out, _, _ = run([ctx.serve_bin, "--threads", str(SERVE_THREADS)],
                        ctx.workdir, ctx.name("reference"),
                        stdin_text="\n".join(lines) + "\n")
        checks.byte_identical(cold_resp, out.splitlines(),
                              "fleet vs single service")
    return {
        "setup_s": (ctx.setup_s, "s"),
        "cold_p50_ms": (1e3 * median(cold_lat), "ms"),
        "cold_ops_per_s": (median(cold_rates), "1/s"),
        "warm_p50_ms": (1e3 * median(warm_lat), "ms"),
        "warm_ops_per_s": (median(warm_rates), "1/s"),
        "edp_ratio": (geomean(ratios), "ratio"),
        "peak_rss_mb": (median(rss) / 1024, "MB"),
    }, len(cold_lat) + len(warm_lat), 0


def unique_layer(z, net, index):
    for u in z["networks"][net]:
        if u["index"] == index:
            return u
    raise checks.CheckError(f"{net} has no unique layer at {index}")


def verify_session(ctx, z, reqs, lines, resp_lines):
    """Checks every cold answer; returns each evaluate_network EDP over the
    same network's EDP under canonical mappings."""
    results = checks.responses(lines, resp_lines, "cold session")
    cases = []
    for req, res in zip(reqs, results):
        meta = req["_meta"]
        arch = gen.arch_tokens(meta["arch"])
        if req["method"] == "evaluate_network":
            cases.append(f"canon {arch} zoo {meta['net']}")
            continue
        layer = unique_layer(z, meta["net"], meta["layer"]["index"])["layer"]
        m = meta["mapping"] if req["method"] == "evaluate_mapping" \
            else gen.mapping_from_response(res["mapping"])
        cases.append(f"map {arch} {gen.layer_tokens(layer)} {gen.mapping_tokens(m)}")
    verdicts = ctx.verify(cases)

    searched = {}
    for req, res in zip(reqs, results):
        if req["method"] == "search_mapping":
            meta = req["_meta"]
            searched[(req["arch"]["name"], meta["net"],
                      meta["layer"]["index"])] = res["report"]
    ratios = []
    for req, res, v in zip(reqs, results, verdicts):
        meta = req["_meta"]
        what = f"request {req['id']} ({req['method']})"
        pes = checks.num_pes(meta["arch"])
        if req["method"] == "evaluate_mapping":
            checks.same_report(res, v["report"], what)
        elif req["method"] == "search_mapping":
            checks.legal_mapping(v, what)
            checks.same_report(res["report"], v["report"], what)
            layer = unique_layer(z, meta["net"], meta["layer"]["index"])
            checks.compute_floor(layer["layer"]["dims"],
                                 res["report"]["latency_cycles"], pes, what)
            for edp in v["canonical_edp"]:
                if edp is not None:
                    checks.no_worse(res["best_edp"], edp, what + " vs canonical")
        else:
            unique = z["networks"][meta["net"]]
            checks.require(len(res["layers"]) == len(unique),
                           f"{what}: {len(res['layers'])} layers")
            rows = [(r["count"], r["latency_cycles"], r["energy_nj"])
                    for r in res["layers"]]
            checks.network_totals(rows, res, what)
            for r, u in zip(res["layers"], unique):
                checks.compute_floor(u["layer"]["dims"], r["latency_cycles"],
                                     pes, what)
            keys = [(req["arch"]["name"], meta["net"], u["index"]) for u in unique]
            if all(k in searched for k in keys):
                rows = [(u["count"], searched[k]["latency_cycles"],
                         searched[k]["energy_nj"]) for u, k in zip(unique, keys)]
                checks.network_totals(rows, res, what + " vs search_mapping")
            ratios.append(res["edp"] / v["edp"])
    return ratios

"""The traced run: per-layer metrics from perfbench_layers.

The layer program gets the same inputs the workload's end-to-end run makes
from the seed: its envelope, networks, mapping budget, thread counts and
its (first) serve session.
"""
import json
import os

import checks
import gen
from harness import NPROC, run
from workloads import (COSEARCH_MAP_BUDGET, SEARCH_MAP_BUDGET, SEARCH_SEEDS,
                       SEARCHES, SERVE_THREADS, SESSIONS, zoo)

# Every per-layer metric, in BENCHMARK.json's order.
PER_LAYER = [
    "core.task_graph.generation_1t_s", "core.task_graph.generation_nt_s",
    "search.mapping_search.ms", "search.mapping_search.evaluations",
    "search.cma_es.inner_step_us", "search.encoding.map_decode_ns",
    "search.cma_es.outer_step_us", "search.encoding.hw_decode_ns",
    "search.accelerator_search.mapping_searches",
    "search.accelerator_search.cost_evaluations",
    "search.accelerator_search.warm_assemble_ms", "search.eval_cache.find_ns",
    "search.result_store.load_ms", "search.result_store.mb",
    "search.result_store.save_ms", "search.result_store.append_ms",
    "mapping.legality.check_ns", "cost.layer_context_us",
    "cost.evaluate_batch_ns", "cost.evaluate_ns",
    "nas.evolve_subnet_s", "nas.evolve_subnet.mapping_searches",
    "nn.ofa_space.to_network_us", "nn.accuracy_model.predict_ns",
    "serve.json.parse_us", "serve.json.dump_us",
    "serve.service.warm_request_us", "serve.service.cold_request_ms",
    "net.client.ping_rtt_us",
    "fleet.hash_ring.owner_ns", "fleet.router.warm_request_us",
]


def trace_workload(ctx, name):
    if name in SEARCHES:
        spec = SEARCHES[name]
        nets = [spec["net"]]
        floor = spec.get("floor", 0)
        budget = COSEARCH_MAP_BUDGET if floor else SEARCH_MAP_BUDGET
    else:
        spec = SESSIONS[name]
        nets = spec["nets"]
        floor, budget = 0, SEARCH_MAP_BUDGET
    z = zoo(ctx, spec["envelope"], nets)
    ctx.setup_done()
    session = os.path.join(ctx.workdir, "session.jsonl")
    with open(session, "w") as f:
        for req in gen.make_session(ctx.seed * 1000 + 1, z, nets):
            f.write(gen.request_line(req) + "\n")
    # Layers that take a thread count run on 1 and on every core.
    search_seed = SEARCH_SEEDS[ctx.seed % len(SEARCH_SEEDS)]
    args = [ctx.layers_bin, spec["envelope"], str(search_seed), str(NPROC),
            str(SERVE_THREADS), str(budget[0]), str(budget[1]), str(floor),
            str(ctx.seconds), ctx.workdir, session]
    for net in nets:
        args += ["zoo", net]
    out, _, _ = run(args, ctx.workdir, "layers")
    result = json.loads(out)
    checks.require(result["correct"], f"traced run: {result['error']}")
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    missing = [k for k in PER_LAYER if k not in metrics]
    checks.require(not missing, f"traced run lacks {missing}")
    return {k: metrics[k] for k in PER_LAYER}, result["attempted"], 0

"""Workload plans: the experiments one workload process runs, made from the workload seed.

Every workload is a fixed list of ``dpfed`` experiment configs.  A workload
process runs its plan once, experiments back to back, so caches fill across
the experiments of one plan (as in a sweep) but never across processes.  All
experiment seeds and per-client budgets come from the workload seed alone.
"""

from __future__ import annotations

import math
import random

MECHANISMS = ("gaussian", "laplace", "staircase")
CLIENTS = 10

# Why each workload exists; BENCHMARK.json carries the same one-line reasons.
WHY = {
    "dense-fedavg": "acceptance-grid shape, batch ~100, d = 210: per-example gradients, clipping and noise do most of the work",
    "sparse-hetero": "batch ~10, shuffle, 10 fresh budgets per experiment: fixed per-round costs and calibration outweigh the small kernel",
    "modeconnect": "mode-connectivity merging: curve training through model.gradient takes ~90% of the time; no other workload reaches it",
}
WORKLOADS = tuple(WHY)


def _entry(exp_id: str, config: dict, budget: float) -> dict:
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    return {
        "id": exp_id,
        "config": text,
        "rounds": config["rounds"],
        "selected": math.ceil(config.get("selection_fraction", 1.0) * config["clients"]),
        "budget": budget,
    }


def _base(mechanism: str, rounds: int, seed: int) -> dict:
    return {"mechanism": mechanism, "rounds": rounds, "clients": CLIENTS, "seed": seed}


def dense_fedavg(rng: random.Random, rounds: int | None) -> list[dict]:
    rounds = rounds or 150
    seed = rng.randrange(2**31)
    plan = []
    for mech in MECHANISMS:
        cfg = _base(mech, rounds, seed) | {"epsilon": 8.0, "sample_rate": 0.5}
        plan.append(_entry(f"{mech}-s{seed}", cfg, 8.0))
    return plan


def sparse_hetero(rng: random.Random, rounds: int | None) -> list[dict]:
    rounds = rounds or 150
    plan = []
    for rep in range(2):
        for mech in MECHANISMS:
            seed = rng.randrange(2**31)
            # Distinct budgets, so no calibration is a cache hit.  Budgets
            # from [8, 32] keep final accuracy near 0.98; from [2, 16] it
            # ranged 0.63-0.78 across workload seeds.
            eps = [milli / 1000 for milli in rng.sample(range(8000, 32001), CLIENTS)]
            cfg = _base(mech, rounds, seed) | {
                "epsilon": max(eps),
                "sample_rate": 0.05,
                "shuffle": "true",
                "heterogeneous_epsilons": ",".join(f"{e:.3f}" for e in eps),
            }
            plan.append(_entry(f"{mech}-r{rep}-s{seed}", cfg, max(eps)))
    return plan


def modeconnect(rng: random.Random, rounds: int | None) -> list[dict]:
    # 20 rounds keep one experiment near 2 s; a round costs ~85 ms here.
    rounds = rounds or 20
    plan = []
    for _ in range(2):
        seed = rng.randrange(2**31)
        cfg = _base("staircase", rounds, seed) | {
            "epsilon": 8.0,
            "sample_rate": 0.05,
            "aggregator": "modeconnect",
        }
        plan.append(_entry(f"staircase-mc-s{seed}", cfg, 8.0))
    return plan


_PLANS = {"dense-fedavg": dense_fedavg, "sparse-hetero": sparse_hetero, "modeconnect": modeconnect}


def plan(workload: str, seed: int, rounds: int | None = None) -> list[dict]:
    """The workload's experiment list for ``seed``; ``rounds`` shortens every
    experiment (self-tests only)."""
    return _PLANS[workload](random.Random(f"{workload}:{seed}"), rounds)

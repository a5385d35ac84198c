"""What each workload asks the program to do, drawn from the seed.

Nothing here imports the program: the draws are plain data, so they can
be checked (and the reference regenerated) without running it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

BENCHMARKS = (
    "wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "art", "equake",
    "facerec", "ammp", "lucas", "fma3d", "sixtrack", "apsi", "pwalk", "pchase",
)
SCHEMES = (
    "smarq", "smarq16", "itanium", "none", "efficeon", "plainorder",
    "smarq-cert",
)

# figures-cold: the fixed paper suite; the seed has no effect on it
FIGURES_ARGS = ("figures", "--scale", "0.1", "--jobs", "1", "--no-cache")

# run-steady: one `repro run` process per (benchmark, scheme) pair
RUN_SCALE = "10"

# serve-mixed: 6 schemes (smarq16 is smarq with fewer registers) x 16
# benchmarks x 19 small scales, the smallest for the warm-up and the
# other 18 for first-touch specs: enough that a run at full speed does
# not use them all up
SERVE_SCHEMES = tuple(s for s in SCHEMES if s != "smarq16")
SERVE_SCALES = tuple(round(0.02 + 0.01 * i, 2) for i in range(19))
SERVE_BATCH = 8
SERVE_FRESH_PER_BATCH = 2
# The untimed warm-up sends every (benchmark, scheme) pair once, at the
# smallest scale: a pair's first job translates its traces cold. Timed
# first-touch specs use the other scales, so the timed loop meets only
# warm translation and kernel caches; started cold, its rate depended on
# how many pairs it met in its first seconds.
SERVE_WARMUP_SCALE = SERVE_SCALES[0]
# Repeats are drawn from the most recent specs only. The daemon's memo
# keeps the 512 results used last (`ServeConfig.memo_limit`); drawn from
# every earlier spec, a repeat missed it more often the further a run
# got, so a faster run read fewer hits from memory (64% against 73%).
SERVE_REPEAT_WINDOW = 128
SERVE_WARMUP_SPECS = len(BENCHMARKS) * len(SERVE_SCHEMES)
SERVE_WARMUP_BATCHES = -(-SERVE_WARMUP_SPECS // SERVE_BATCH)

Pair = Tuple[str, str]
Spec = Tuple[str, str, float]


def run_rounds(seed: int) -> Iterator[List[Pair]]:
    """Rounds of run-steady, endlessly. A round runs every benchmark once
    with a scheme; the seed draws the scheme order and the first round.
    Round ``r`` pairs benchmark ``i`` with scheme ``(i + r) mod 7``, so
    every round uses each scheme two or three times and any 7 rounds in
    a row run all 112 pairs once: a few rounds already mix cheap and
    costly pairs about the same way whatever the seed."""
    rng = random.Random(seed)
    schemes = list(SCHEMES)
    rng.shuffle(schemes)
    first = rng.randrange(len(schemes))
    for r in itertools.count(first):
        yield [
            (bench, schemes[(i + r) % len(schemes)])
            for i, bench in enumerate(BENCHMARKS)
        ]


def serve_universe() -> List[Spec]:
    return [
        (bench, scheme, scale)
        for bench in BENCHMARKS
        for scheme in SERVE_SCHEMES
        for scale in SERVE_SCALES
    ]


def _round_robin(groups: Dict[object, List], rng: random.Random) -> List:
    """One item from each non-empty group per round, the groups in a new
    seeded order each round, until all are empty. Consumes ``groups``."""
    order: List = []
    keys = list(groups)
    while any(groups.values()):
        rng.shuffle(keys)
        order.extend(groups[k].pop() for k in keys if groups[k])
    return order


def _first_touch_order(rng: random.Random) -> List[Spec]:
    """The universe in the order first-touch specs are sent: round-robin
    over the benchmarks, and each benchmark's specs round-robin over the
    scales with the scheme drawn. Any prefix then holds every benchmark
    and every scale about equally often, so the cost of a run's misses
    moves little between seeds."""
    per_bench = {}
    for bench in BENCHMARKS:
        by_scale = {
            scale: [(bench, scheme, scale) for scheme in SERVE_SCHEMES]
            for scale in SERVE_SCALES if scale != SERVE_WARMUP_SCALE
        }
        for specs in by_scale.values():
            rng.shuffle(specs)
        per_bench[bench] = _round_robin(by_scale, rng)[::-1]
    return _round_robin(per_bench, rng)


def serve_batches(seed: int) -> Iterator[List[Spec]]:
    """serve-mixed batches: the first :data:`SERVE_WARMUP_BATCHES` (the
    warm-up) hold every (benchmark, scheme) pair once at
    :data:`SERVE_WARMUP_SCALE`, shuffled; each later one has
    :data:`SERVE_FRESH_PER_BATCH` first-touch specs and repeats of the
    last :data:`SERVE_REPEAT_WINDOW` specs for the rest, shuffled. Ends
    when the first-touch specs run out."""
    rng = random.Random(seed)
    seen: List[Spec] = [
        (bench, scheme, SERVE_WARMUP_SCALE)
        for bench in BENCHMARKS
        for scheme in SERVE_SCHEMES
    ]
    rng.shuffle(seen)
    for start in range(0, len(seen), SERVE_BATCH):
        yield seen[start:start + SERVE_BATCH]
    fresh = _first_touch_order(rng)
    fresh.reverse()
    while len(fresh) >= SERVE_FRESH_PER_BATCH:
        new = [fresh.pop() for _ in range(SERVE_FRESH_PER_BATCH)]
        repeats = [
            rng.choice(seen[-SERVE_REPEAT_WINDOW:])
            for _ in range(SERVE_BATCH - SERVE_FRESH_PER_BATCH)
        ]
        seen.extend(new)
        batch = repeats + new
        rng.shuffle(batch)
        yield batch


def spec_key(spec: Spec) -> str:
    bench, scheme, scale = spec
    return f"{bench}/{scheme}/{scale}"


def pair_key(pair: Pair) -> str:
    return "/".join(pair)

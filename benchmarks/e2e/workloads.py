"""Seeded inputs for the end-to-end benchmark's four workloads.

Every function here is a pure function of the seed (and of an index for
inputs a time-bounded run draws lazily): the same seed gives the same
keys, plaintexts and request payloads.  The program under test receives
only these generated inputs.  What a workload *is* -- its shape, sizes
and mix -- does not depend on the seed, so runs with different seeds do
the same amount of work and differ only in data.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Closed-loop clients for the serving workloads and pool workers for the
#: campaign: the 2-core reference host's ``nproc``, so load comes from one
#: process with at most ``nproc`` threads or connections.
CLIENTS = 2

NAMES = ("campaign", "design_sweep", "serve_mix", "serve_repeat")

#: The four masking variants of the paper's Tab. 1, in sweep order.
#: ``policy=selective``/``annotate-only`` are deliberately absent:
#: ``AssessRequest`` admits them but ``apply_policy`` raises on them.
MASKING_VARIANTS = (
    {"masking": "none", "policy": None},
    {"masking": "selective", "policy": None},
    {"masking": "none", "policy": "all-loads-stores"},
    {"masking": "none", "policy": "all"},
)


def expected_pass(variant: dict) -> bool:
    """Figs. 8-9 and Tab. 1: the key differential is flat (PASS) under
    selective masking and whole-program dual rail, and leaks (FAIL)
    unmasked and with only the loads and stores secured."""
    return variant["masking"] == "selective" or variant["policy"] == "all"


@dataclass(frozen=True)
class Sizes:
    """Everything about a workload that the seed does not choose."""

    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 1
    # campaign
    campaign_rounds: int = 16
    campaign_pairs: int = 8
    campaign_chunk: int = 8
    campaign_noise: float = 10.0
    # design_sweep
    sweep_rounds: tuple = (1, 2, 4, 16)
    # serve_mix: (mode, rounds, masking, n_traces).  No 16-round shape:
    # its schedule record alone would double set-up, and its 0.9 s
    # requests would make a mix cycle longer than the whole window.
    mix_shapes: tuple = (
        ("pair", 1, "none", 2), ("population", 1, "selective", 8),
        ("pair", 4, "selective", 2), ("pair", 2, "none", 2),
        ("population", 2, "selective", 8), ("pair", 1, "selective", 2),
        ("pair", 4, "none", 2), ("pair", 2, "selective", 2),
    )
    # serve_repeat
    repeat_payloads: int = 16


#: Set-up repeats are what the time budget allows: a full evaluation
#: (~92 runs, see README) must fit in an hour even when neighbouring
#: machines slow the host 1.8x, and ``serve_mix``'s set-up records six
#: schedules (~5 s).
FULL = {
    "campaign": Sizes(setup_repeats=2),
    "design_sweep": Sizes(setup_repeats=3),
    "serve_mix": Sizes(setup_repeats=1),
    "serve_repeat": Sizes(setup_repeats=2),
}

#: ``--smoke``: the same code paths at a size that runs in seconds.
SMOKE = Sizes(campaign_rounds=1, campaign_pairs=2,
              campaign_chunk=2, sweep_rounds=(1, 2),
              mix_shapes=(("pair", 1, "none", 2),
                          ("population", 1, "selective", 4),
                          ("pair", 1, "selective", 2)),
              repeat_payloads=4)


def sizes(workload: str, smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL[workload]


def _rng(seed: int, *path) -> random.Random:
    """An independent stream per (seed, purpose, index) -- string seeds
    hash deterministically across processes and Python versions."""
    return random.Random(":".join(str(part) for part in (seed, *path)))


def _word(rng: random.Random) -> int:
    return rng.getrandbits(64)


# -- campaign ---------------------------------------------------------------

def campaign_key(seed: int) -> tuple[int, int]:
    """``(key, fixed_plaintext)`` shared by every campaign of a run."""
    rng = _rng(seed, "campaign")
    return _word(rng), _word(rng)


def campaign_plaintexts(seed: int, index: int, pairs: int) -> list[int]:
    """The random-group plaintexts of campaign number ``index``."""
    rng = _rng(seed, "campaign", index)
    return [_word(rng) for _ in range(pairs)]


# -- design_sweep -----------------------------------------------------------

def sweep_variant(seed: int, index: int, rounds_list: tuple) -> dict:
    """Variant ``index`` of the sweep as an ``AssessRequest`` payload.

    Variants come in rows: row ``r`` re-checks one masking variant
    (``MASKING_VARIANTS[r % 4]``) at every round count, so each row --
    the unit ``latency_*`` is measured over -- does comparable work.
    """
    row, column = divmod(index, len(rounds_list))
    rng = _rng(seed, "sweep", index)
    variant = MASKING_VARIANTS[row % len(MASKING_VARIANTS)]
    return {"mode": "pair", "rounds": rounds_list[column],
            "masking": variant["masking"], "policy": variant["policy"],
            "key": _word(rng), "key_b": _word(rng), "plaintext": _word(rng)}


def sweep_warmup(seed: int) -> dict:
    """A rounds=1 variant the set-up runs to load the engine lazily."""
    rng = _rng(seed, "sweep-warmup")
    return {"mode": "pair", "rounds": 1, "masking": "none", "policy": None,
            "key": _word(rng), "key_b": _word(rng), "plaintext": _word(rng)}


def sweep_reference_picks(seed: int, rounds_list: tuple) -> list[int]:
    """Indices of the two variants re-run on the reference engine: one in
    each of the first two rows (every run measures both), at the
    cheapest round counts, so the check stays a second or two."""
    cheap = [column for column, rounds in enumerate(rounds_list)
             if rounds <= 2]
    rng = _rng(seed, "sweep-reference")
    first = rng.choice(cheap)
    second = len(rounds_list) + rng.choice(cheap)
    return [first, second]


# -- serving ----------------------------------------------------------------

def _shape_payload(rng: random.Random, shape: tuple) -> dict:
    mode, rounds, masking, n_traces = shape
    payload = {"mode": mode, "rounds": rounds, "masking": masking,
               "key": _word(rng), "plaintext": _word(rng),
               "seed": rng.getrandbits(31)}
    if mode == "pair":
        payload["key_b"] = _word(rng)
    else:
        payload["n_traces"] = n_traces
    return payload


def mix_payload(seed: int, step: int, client: int, shapes: tuple) -> dict:
    """Client ``client``'s request at lockstep ``step`` of ``serve_mix``:
    unique keys and seeds, so every request misses the verdict cache.
    Steps come in same-shape pairs, so a traced run can time each traced
    request against an untraced sibling of the same shape."""
    shape = shapes[(step // 2) % len(shapes)]
    return _shape_payload(_rng(seed, "mix", step, client), shape)


def mix_warmups(seed: int, shapes: tuple) -> list[dict]:
    """One request per program variant (rounds x masking), so schedule
    recording happens in set-up rather than inside measured latencies."""
    variants = sorted({(rounds, masking)
                       for _mode, rounds, masking, _n in shapes})
    rng = _rng(seed, "mix-warmup")
    return [_shape_payload(rng, ("pair", rounds, masking, 2))
            for rounds, masking in variants]


def repeat_payloads(seed: int, count: int) -> list[dict]:
    """The distinct rounds=1 pair payloads ``serve_repeat`` fills the
    verdict cache with during set-up."""
    rng = _rng(seed, "repeat")
    return [_shape_payload(rng, ("pair", 1,
                                 ("none", "selective")[index % 2], 2))
            for index in range(count)]


def repeat_draws(seed: int, client: int) -> random.Random:
    """Client ``client``'s uniform draw stream over the filled payloads."""
    return _rng(seed, "repeat-draws", client)


def pick(seed: int, purpose: str, candidates: list):
    """A seeded choice among ``candidates`` (which output to re-check)."""
    return _rng(seed, "pick", purpose).choice(candidates)

#!/usr/bin/env python
"""Bytes the daemon retains per request it has served.

Two loops on an in-process :class:`~repro.service.core.LeakageService`,
each under :mod:`tracemalloc`, print the memory still allocated
afterwards divided by the number of requests.  Every request stays in
the service's request history (``history_limit`` is raised above the
count), so each figure is what one retained request costs:

* **cache hits** — one request fills the verdict cache, then ``HITS``
  (300) identical requests are served one after another: the record and
  its request, its lifecycle timeline, and the envelope it keeps beside
  the store's shared result document;
* **cold requests** — ``COLD_ROUNDS`` (4) unique requests of each of the
  ``serve_mix`` benchmark's eight shapes, after one warm-up request per
  shape (compile, schedule, lazy imports and metric series are paid
  there): the verdict store's document and everything a retained record
  keeps, its request-scoped span tree included.

Usage: ``PYTHONPATH=src python tools/retention_probe.py``.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

from repro.service.core import LeakageService, ServiceConfig

PAYLOAD = {"mode": "pair", "rounds": 2, "client": "probe"}
HITS = 300

#: ``serve_mix``'s shapes: (mode, rounds, masking, n_traces).
MIX_SHAPES = (
    ("pair", 1, "none", 2), ("population", 1, "selective", 8),
    ("pair", 4, "selective", 2), ("pair", 2, "none", 2),
    ("population", 2, "selective", 8), ("pair", 1, "selective", 2),
    ("pair", 4, "none", 2), ("pair", 2, "selective", 2),
)
COLD_ROUNDS = 4


def _serve(service: LeakageService, payload: dict) -> dict:
    record = service.submit(payload)
    if not record.wait(600.0) or record.state != "done":
        raise RuntimeError(f"probe request ended {record.state}")
    return record.result


def _retained_per_request(payloads: list, warmups: list,
                          hits: int) -> float:
    """Bytes still allocated after serving ``payloads``, per payload;
    exactly ``hits`` of them must be verdict-cache hits."""
    service = LeakageService(ServiceConfig(
        workers=1, history_limit=len(payloads) + len(warmups) + 16))
    try:
        for payload in warmups:
            _serve(service, payload)
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for payload in payloads:
            _serve(service, payload)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        served = service.verdict_cache_stats()["hits"]
        if served != hits:
            raise RuntimeError(f"{served} cache hits, expected {hits}")
        return (after - before) / len(payloads)
    finally:
        service.drain(grace_s=30.0)


def _shape_payload(shape: tuple, key: int) -> dict:
    mode, rounds, masking, n_traces = shape
    payload = {"mode": mode, "rounds": rounds, "masking": masking,
               "key": key, "seed": key, "client": "probe"}
    if mode == "population":
        payload["n_traces"] = n_traces
    return payload


def main() -> int:
    warmups = [_shape_payload(shape, key)
               for key, shape in enumerate(MIX_SHAPES, 1)]
    cold = [_shape_payload(shape, 1000 + 16 * step + index)
            for step in range(COLD_ROUNDS)
            for index, shape in enumerate(MIX_SHAPES)]
    print(json.dumps({
        "hits": HITS,
        "retained_bytes_per_hit": round(_retained_per_request(
            [PAYLOAD] * HITS, [PAYLOAD], hits=HITS)),
        "cold_requests": len(cold),
        "retained_bytes_per_cold_request": round(_retained_per_request(
            cold, warmups, hits=0)),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

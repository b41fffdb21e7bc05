#!/usr/bin/env python
"""Bytes the daemon retains per verdict-cache hit it has served.

Fills the verdict cache with one request on an in-process
:class:`~repro.service.core.LeakageService`, then serves ``HITS`` (300)
identical requests one after another under :mod:`tracemalloc` and prints
the memory still allocated afterwards, divided by the number of hits.
Every hit stays in the service's request history (``history_limit`` is
raised above ``HITS``), so the figure is what one retained cache-hit
record costs: the record and its request, its lifecycle timeline, and
the envelope it keeps beside the store's shared result document.

Usage: ``PYTHONPATH=src python tools/retention_probe.py``.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

from repro.service.core import LeakageService, ServiceConfig

PAYLOAD = {"mode": "pair", "rounds": 2, "client": "probe"}
HITS = 300


def _serve(service: LeakageService) -> dict:
    record = service.submit(PAYLOAD)
    if not record.wait(600.0) or record.state != "done":
        raise RuntimeError(f"probe request ended {record.state}")
    return record.result


def retained_bytes_per_hit(hits: int) -> float:
    service = LeakageService(ServiceConfig(workers=1,
                                           history_limit=hits + 16))
    try:
        _serve(service)  # the fill
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(hits):
            if "verdict_cache" not in _serve(service):
                raise RuntimeError("a repeat request missed the cache")
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return (after - before) / hits
    finally:
        service.drain(grace_s=30.0)


def main() -> int:
    print(json.dumps({"hits": HITS,
                      "retained_bytes_per_hit":
                          round(retained_bytes_per_hit(HITS))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

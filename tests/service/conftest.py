"""Shared fixtures for the service suite.

All requests here use ``rounds=2`` DES variants: small enough that one
trace simulates in well under 100 ms (warm compile cache), large enough
that a request is real work the scheduler can observe in flight.
"""

import pytest

from repro.harness.engine import default_cache
from repro.harness.resilience import FAULT_PLAN_ENV
from repro.service.core import LeakageService, ServiceConfig


def pair_payload(**overrides) -> dict:
    """A fast, fully-deterministic pair-mode request payload."""
    payload = {"mode": "pair", "rounds": 2, "client": "test"}
    payload.update(overrides)
    return payload


def population_payload(n_traces=4, **overrides) -> dict:
    payload = {"mode": "population", "rounds": 2, "n_traces": n_traces,
               "seed": 2003, "client": "test"}
    payload.update(overrides)
    return payload


@pytest.fixture(autouse=True)
def no_fault_plan(monkeypatch):
    """Service tests must not inherit a fault plan from the environment
    (a crash fault executing in an in-thread job would kill pytest)."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


@pytest.fixture(autouse=True)
def no_stored_verdicts():
    """Services built without their own store share the process-wide
    one; start each test without the verdicts earlier tests stored."""
    default_cache().discard("verdict-")


@pytest.fixture
def make_service():
    """Factory for in-process services, drained at teardown."""
    created = []

    def factory(**config_kwargs) -> LeakageService:
        service = LeakageService(ServiceConfig(**config_kwargs))
        created.append(service)
        return service

    yield factory
    for service in created:
        service.drain(grace_s=30.0)

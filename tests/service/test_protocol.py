"""Request validation, wire form, lifecycle records, error taxonomy."""

import pytest

from repro.service.errors import (ERROR_TYPES, AdmissionRejected,
                                  DeadlineExceeded, InvalidRequest,
                                  ProgramQuarantined, ServiceError,
                                  ShuttingDown, error_from_dict)
from repro.service.protocol import (DONE, SHUTDOWN, TERMINAL_STATES,
                                    AssessRequest, RequestRecord)


# -- AssessRequest -----------------------------------------------------------


def test_request_roundtrips_through_wire_form():
    request = AssessRequest.from_dict({
        "mode": "pair", "rounds": 2, "key": "0x133457799BBCDFF1",
        "noise_sigma": 0.5, "client": "alice", "priority": "high",
        "deadline_s": 30})
    clone = AssessRequest.from_dict(request.to_dict())
    assert clone == request
    assert clone.key == 0x133457799BBCDFF1
    assert clone.deadline_s == 30.0


def test_request_program_key_is_stable_and_variant_specific():
    a = AssessRequest.from_dict({"rounds": 2})
    assert a.program_key() == AssessRequest.from_dict(
        {"rounds": 2}).program_key()
    assert a.program_key() != AssessRequest.from_dict(
        {"rounds": 3}).program_key()
    assert a.program_key() != AssessRequest.from_dict(
        {"rounds": 2, "masking": "none"}).program_key()
    # Scheduling fields are not part of the program identity.
    assert a.program_key() == AssessRequest.from_dict(
        {"rounds": 2, "client": "bob", "priority": "low"}).program_key()


@pytest.mark.parametrize("payload, match", [
    ({"mode": "differential"}, "mode"),
    ({"cipher": "aes"}, "cipher"),
    ({"masking": "all"}, "masking"),
    ({"policy": "no-such-policy"}, "policy"),
    ({"rounds": 0}, "rounds"),
    ({"rounds": 17}, "rounds"),
    ({"n_traces": 0}, "n_traces"),
    ({"n_traces": 1 << 20}, "n_traces"),
    ({"mode": "population", "n_traces": 1}, "population"),
    ({"noise_sigma": -0.1}, "noise_sigma"),
    ({"engine": "warp"}, "engine"),
    ({"key": "not hex"}, "key"),
    ({"key": 1 << 64}, "64-bit"),
    ({"key": True}, "64-bit"),
    ({"priority": "urgent"}, "priority"),
    ({"deadline_s": 0}, "deadline_s"),
    ({"deadline_s": -1}, "deadline_s"),
    ({"client": ""}, "client"),
    ({"max_cycles": 0}, "max_cycles"),
    ({"frobnicate": 1}, "unknown request fields"),
    ("just a string", "JSON object"),
    ({"policy": "selective"}, "masking="),
    ({"policy": "annotate-only"}, "masking="),
])
def test_request_validation_rejects_bad_payloads(payload, match):
    with pytest.raises(InvalidRequest, match=match):
        AssessRequest.from_dict(payload)


def test_invalid_request_is_a_400_and_not_retryable():
    error = InvalidRequest("nope")
    assert error.http_status == 400
    assert not error.retryable


# -- RequestRecord lifecycle -------------------------------------------------


def test_record_finish_is_idempotent_first_writer_wins():
    record = RequestRecord(request=AssessRequest.from_dict({"rounds": 2}))
    assert not record.terminal
    record.finish(DONE, result={"ok": True})
    record.finish(SHUTDOWN, error=ShuttingDown("late drain"))  # no-op
    assert record.state == DONE
    assert record.result == {"ok": True}
    assert record.error is None
    assert record.terminal
    assert record.latency_s is not None and record.latency_s >= 0


def test_record_rejects_non_terminal_finish_states():
    record = RequestRecord(request=AssessRequest.from_dict({"rounds": 2}))
    with pytest.raises(AssertionError):
        record.finish("running")
    assert "running" not in TERMINAL_STATES


def test_record_wire_form_carries_error_taxonomy():
    record = RequestRecord(request=AssessRequest.from_dict({"rounds": 2}))
    record.finish("timed_out",
                  error=DeadlineExceeded("too slow", retry_after_s=2.5))
    document = record.to_dict()
    assert document["state"] == "timed_out" and document["terminal"]
    assert document["error"]["code"] == "deadline_exceeded"
    assert document["error"]["retry_after_s"] == 2.5
    assert document["request"]["rounds"] == 2
    assert "request" not in record.to_dict(include_request=False)


def test_record_ids_are_unique():
    requests = [RequestRecord(request=AssessRequest.from_dict({}))
                for _ in range(5)]
    assert len({record.id for record in requests}) == 5


# -- error taxonomy ----------------------------------------------------------


@pytest.mark.parametrize("cls", sorted(ERROR_TYPES.values(),
                                       key=lambda cls: cls.code))
def test_every_error_roundtrips_through_its_wire_form(cls):
    error = cls("something happened", retry_after_s=3.0)
    clone = error_from_dict(error.to_dict())
    assert type(clone) is cls
    assert clone.message == "something happened"
    assert clone.retry_after_s == 3.0
    assert clone.http_status == cls.http_status


def test_unknown_error_code_degrades_to_base_class():
    clone = error_from_dict({"error": {"code": "flux_capacitor",
                                       "message": "new failure mode"}})
    assert type(clone) is ServiceError
    assert clone.message == "new failure mode"


def test_retryable_statuses_match_semantics():
    assert AdmissionRejected("full").retryable
    assert ProgramQuarantined("bad").retryable
    assert ShuttingDown("bye").retryable
    assert not DeadlineExceeded("late").retryable

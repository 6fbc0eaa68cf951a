"""Tests for the on-module instruction dispatcher (paper Fig. 11(a))."""

import pytest

from repro.compiler.dpa_encoding import encode_attention_loop
from repro.compiler.lowering import lower_operator_to_instructions
from repro.compiler.ir import Operation, OpType
from repro.core.dispatcher import OnModuleDispatcher
from repro.memory.va2pa import VA2PATable
from repro.pim.isa import PIMOpcode


def make_dispatcher() -> OnModuleDispatcher:
    table = VA2PATable(chunk_bytes=1024 * 1024)
    dispatcher = OnModuleDispatcher(va2pa=table)
    operation = Operation(
        name="qkt_kv0", op_type=OpType.MATMUL, attrs={"role": "qkt", "kv_head": 0}
    )
    body = lower_operator_to_instructions(operation, channel_mask=0xFFFF, op_size=4)
    dispatcher.load_kernel("qkt", encode_attention_loop(body))
    return dispatcher


class TestDispatcher:
    def test_assign_and_dispatch(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, initial_tokens=64)
        stream = dispatcher.dispatch("qkt", 1)
        assert stream
        assert all(not instruction.opcode.is_control for instruction in stream)

    def test_expanded_length_tracks_token_length(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, initial_tokens=64)
        short = dispatcher.expanded_length("qkt", 1)
        dispatcher.advance_token(1, 640)
        assert dispatcher.expanded_length("qkt", 1) > short

    def test_token_progression_requires_no_host_messages(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, initial_tokens=64)
        messages = dispatcher.host_messages
        for _ in range(50):
            dispatcher.advance_token(1)
            dispatcher.dispatch("qkt", 1)
        assert dispatcher.host_messages == messages

    def test_assignment_and_completion_are_host_messages(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, 10)
        dispatcher.complete_request(1)
        assert dispatcher.host_messages == 2

    def test_va2pa_translation_applied_to_mac_rows(self):
        dispatcher = make_dispatcher()
        dispatcher.va2pa.extend(1, [7])
        dispatcher.assign_request(1, initial_tokens=16)
        stream = dispatcher.dispatch("qkt", 1)
        mac_rows = {inst.row for inst in stream if inst.opcode is PIMOpcode.MAC}
        assert 7 in mac_rows

    def test_duplicate_assignment_rejected(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, 10)
        with pytest.raises(ValueError):
            dispatcher.assign_request(1, 10)

    def test_unknown_kernel_or_request_rejected(self):
        dispatcher = make_dispatcher()
        dispatcher.assign_request(1, 10)
        with pytest.raises(KeyError):
            dispatcher.dispatch("sv", 1)
        with pytest.raises(KeyError):
            dispatcher.dispatch("qkt", 99)

    def test_buffer_footprint_stays_small(self):
        """The paper: all dispatcher buffers fit well under the 512KB GPR."""
        dispatcher = make_dispatcher()
        for request in range(32):
            dispatcher.assign_request(request, 1000)
        assert dispatcher.buffer_bytes < 200 * 1024

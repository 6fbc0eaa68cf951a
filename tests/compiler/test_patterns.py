"""Tests for decoder pattern detection."""

from repro.compiler.ir import OpType, build_decoder_graph
from repro.compiler.patterns import detect_attention_patterns, detect_fc_operations


class TestPatternDetection:
    def test_one_pattern_per_kv_head(self, llm_7b_gqa):
        graph = build_decoder_graph(llm_7b_gqa, 2048)
        patterns = detect_attention_patterns(graph)
        assert len(patterns) == llm_7b_gqa.num_kv_heads
        assert [pattern.kv_head for pattern in patterns] == list(range(llm_7b_gqa.num_kv_heads))

    def test_pattern_links_qkt_softmax_sv(self, llm_7b):
        graph = build_decoder_graph(llm_7b, 2048)
        pattern = detect_attention_patterns(graph)[0]
        assert pattern.qkt.role == "qkt"
        assert pattern.sv.role == "sv"
        assert pattern.softmax.op_type is OpType.SOFTMAX
        assert pattern.dynamic

    def test_group_size_propagated(self, llm_7b_gqa):
        graph = build_decoder_graph(llm_7b_gqa, 2048)
        pattern = detect_attention_patterns(graph)[0]
        assert pattern.group_size == llm_7b_gqa.gqa_group_size

    def test_fc_operations_detected(self, llm_7b):
        graph = build_decoder_graph(llm_7b, 2048)
        fc_ops = detect_fc_operations(graph)
        assert {op.name for op in fc_ops} == {"qkv_proj", "out_proj", "ffn_gate", "ffn_up", "ffn_down"}


"""Command-scheduling microscope: inspect PIM command streams cycle by cycle.

This example works at the lowest level of the stack: it compiles a decoder
layer, lowers a small GEMV to an explicit PIM command stream, schedules it
with the static baseline, ping-pong buffering and PIMphony's DCS, and prints
the per-command issue times plus the latency breakdown -- the machinery
behind the paper's Fig. 7, Fig. 8 and Fig. 18.  It also demonstrates the
DPA dispatcher translating virtual KV-cache addresses at run time, then
closes the loop by running the same model end-to-end through the
declarative experiment API (`repro.api`), so the command-level effects are
visible as serving throughput.

Run with:  python examples/command_scheduling_microscope.py
"""

from repro.analysis.breakdown import breakdown_fractions
from repro.analysis.reporting import format_table
from repro.api.build import build, run
from repro.api.spec import ExperimentSpec, ModelSpec, SystemSpec, TraceSpec
from repro.baselines.pingpong import PingPongScheduler
from repro.compiler.dpa_encoding import encode_attention_loop
from repro.compiler.lowering import lower_gemv_to_commands, lower_operator_to_instructions
from repro.compiler.passes import compile_decoder
from repro.compiler.patterns import detect_attention_patterns
from repro.core.dcs import DCSScheduler
from repro.core.dispatcher import OnModuleDispatcher
from repro.memory.va2pa import VA2PATable
from repro.models.llm import get_model
from repro.pim.config import PIMChannelConfig, cent_module_config
from repro.pim.kernels import caps_for_policy
from repro.pim.scheduling import StaticScheduler
from repro.pim.timing import aimx_timing


def schedule_small_gemv() -> None:
    channel = PIMChannelConfig()
    timing = aimx_timing()
    commands = lower_gemv_to_commands(128, 64, channel, caps_for_policy(channel, "dcs"))
    print(f"Lowered a 128x64 GEMV to {len(commands)} channel commands")

    rows = []
    for scheduler in (
        StaticScheduler(timing, channel),
        PingPongScheduler(timing, channel),
        DCSScheduler(timing, channel),
    ):
        result = scheduler.schedule(commands)
        fractions = breakdown_fractions(result.breakdown)
        rows.append(
            [
                scheduler.name,
                result.makespan,
                result.breakdown.mac_utilization,
                fractions["dt_gbuf"] + fractions["dt_outreg"],
                fractions["pipeline_penalty"],
            ]
        )
    print(
        format_table(
            ["scheduler", "cycles", "MAC util", "I/O share", "stall share"],
            rows,
            title="Schedulers on the same command stream",
        )
    )


def compile_and_dispatch() -> None:
    model = get_model("LLM-7B-128K")
    module = cent_module_config()
    program = compile_decoder(model, context_length=64 * 1024, module=module)
    print(
        f"\nCompiled one decoder layer: {program.total_instructions} module-level "
        f"instructions, instruction buffer {program.instruction_bytes} bytes "
        f"(DPA enabled: {program.dpa_enabled})"
    )

    pattern = detect_attention_patterns(program.graph)[0]
    body = lower_operator_to_instructions(pattern.qkt, channel_mask=0xFFFF, op_size=8)
    dispatcher = OnModuleDispatcher(va2pa=VA2PATable(chunk_bytes=1024 * 1024))
    dispatcher.load_kernel("qkt", encode_attention_loop(body))
    dispatcher.va2pa.extend(request_id=1, chunks=[42])
    dispatcher.assign_request(1, initial_tokens=4096)

    before = dispatcher.expanded_length("qkt", 1)
    for _ in range(2048):
        dispatcher.advance_token(1)
    after = dispatcher.expanded_length("qkt", 1)
    print(
        "Dispatcher expands the DPA loop to "
        f"{before} instructions at 4K tokens and {after} at 6K tokens, "
        f"without any host interaction ({dispatcher.host_messages} host messages so far)"
    )


def end_to_end_context() -> None:
    """The same scheduling choices, seen from the serving level.

    DCS and friends are per-command optimisations; the experiment API shows
    their aggregate effect as decode throughput on the same model.
    """
    spec = ExperimentSpec(
        name="microscope-end-to-end",
        model=ModelSpec(name="LLM-7B-128K"),
        system=SystemSpec(kind="pim-only", pimphony="baseline"),
        trace=TraceSpec(source="synthetic", num_requests=8, prompt_tokens=4096,
                        output_tokens=16),
        step_stride=8,
    )
    # Parity: run(spec) reproduces the directly-built engine run exactly.
    built = build(spec)
    assert run(spec).engine_result.total_seconds == built.engine.run(built.trace).total_seconds

    baseline = run(spec)
    full = run(spec.with_overrides({"system.pimphony": "full"}))
    print(
        "\nEnd-to-end, the scheduling/partitioning/DPA choices above move "
        "decode throughput on this model from "
        f"{baseline.throughput_tokens_per_s:.0f} to "
        f"{full.throughput_tokens_per_s:.0f} tokens/s "
        f"({full.throughput_tokens_per_s / baseline.throughput_tokens_per_s:.2f}x)"
    )


def main() -> None:
    schedule_small_gemv()
    compile_and_dispatch()
    end_to_end_context()


if __name__ == "__main__":
    main()

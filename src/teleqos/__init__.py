"""QoS analysis for constant-bitrate media streams sharing a droptail
bottleneck with TCP: closed-form delay/jitter bounds, a deterministic
packet-level simulator to validate them, deadband-sampled traffic
generation, and a compliance/validation harness."""

from .model import (
    AvMuxSpec,
    CbrAggregate,
    ComplianceReport,
    CycleSolution,
    HapticFlowSpec,
    InvalidParams,
    MediaQos,
    NetworkParams,
    QosSpec,
    ValidityFlags,
    av_delay_bounds,
    cbr_jitter_max,
    delay_bounds,
    haptic_jitter_max,
    m_tcp_max,
    q_init,
    qos_check,
    queue_at_slot,
    slots_per_cycle,
    solve_cycle,
    solve_q_min,
    validity_check,
    w_min,
)
from .scenario import (
    FlowSpec,
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioSemanticError,
    SignalSpec,
    baseline_text,
    load_scenario,
    parse_scenario,
    render_scenario,
)
from .simulator import (
    CycleStats,
    DropTailQueue,
    FlowMetrics,
    Trace,
    TcpReceiver,
    TcpSource,
    build_simulator,
    extract_cycles,
    run,
)
from .validation import (
    ValidationRow,
    compliance_from_simulation,
    emit_compliance,
    emit_validation,
    haptic_spec_of,
    run_validation,
)

__version__ = "0.1.0"

# the sampling layer needs numpy, so its names load it on first use
_SAMPLING_NAMES = frozenset({
    "MuxStream",
    "RateSeries",
    "deadband_filter",
    "instantaneous_rate",
    "synth_haptic_trace",
    "vh_mux",
})


def __getattr__(name: str):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

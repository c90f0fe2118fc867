"""Word/cycle-accurate models of the paper's shared-buffer organizations.

* :class:`PipelinedSwitch` — the paper's contribution (pipelined memory).
* :class:`~repro.core.wide.WideMemorySwitch` — the wide-memory baseline of
  paper figure 3 ([KaSC91]).
* :class:`~repro.core.split_buffer.SplitPipelinedBuffer` — the two-memory
  half-quantum organization of §3.5.
"""

from repro.core.arbiter import Priority, WaveArbiter, WriteRequest
from repro.core.bank import BankConflictError, MemoryBank
from repro.core.batchpath import (
    DEFAULT_BATCH_CYCLES,
    BatchPipelinedSwitch,
)
from repro.core.buffer_manager import BufferFullError, BufferManager
from repro.core.bus import Bus, BusContentionError
from repro.core.control import ControlPipeline, ControlWord, WaveOp
from repro.core.errors import ConfigError
from repro.core.fastpath import (
    FastPathUnsupportedError,
    FastPipelinedSwitch,
    make_pipelined_switch,
)
from repro.core.latches import InputLatchRow, LatchOverrunError, OutputRegisterRow
from repro.core.sources import (
    BatchRenewalSource,
    PacketSink,
    PacketSource,
    RenewalPacketSource,
    SaturatingSource,
    SlotAdapterSource,
    TracePacketSource,
    deterministic_payload,
)
from repro.core.split_buffer import SplitBufferConfig, SplitPipelinedBuffer
from repro.core.switch import (
    DeadlineMissedError,
    PipelinedSwitch,
    PipelinedSwitchConfig,
)
from repro.core.tracing import WaveTracer
from repro.core.wide import WideMemorySwitch, WideSwitchConfig

__all__ = [
    "PipelinedSwitch",
    "PipelinedSwitchConfig",
    "ConfigError",
    "DeadlineMissedError",
    "FastPipelinedSwitch",
    "FastPathUnsupportedError",
    "BatchPipelinedSwitch",
    "BatchRenewalSource",
    "DEFAULT_BATCH_CYCLES",
    "make_pipelined_switch",
    "WaveTracer",
    "WideMemorySwitch",
    "WideSwitchConfig",
    "SplitPipelinedBuffer",
    "SplitBufferConfig",
    "Priority",
    "WaveArbiter",
    "WriteRequest",
    "MemoryBank",
    "BankConflictError",
    "BufferManager",
    "BufferFullError",
    "Bus",
    "BusContentionError",
    "ControlPipeline",
    "ControlWord",
    "WaveOp",
    "InputLatchRow",
    "OutputRegisterRow",
    "LatchOverrunError",
    "PacketSource",
    "PacketSink",
    "RenewalPacketSource",
    "SaturatingSource",
    "SlotAdapterSource",
    "TracePacketSource",
    "deterministic_payload",
]

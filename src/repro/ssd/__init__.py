"""NAND-flash SSD simulator substrate.

This package implements the storage device the paper evaluates on: an
MQSim-class simulator with the channel/package/die/plane/block/page
hierarchy, NVDDR3-style timing, per-channel flash controllers, an FTL with
logical-to-physical mapping, garbage collection and wear leveling, a DRAM
model, and a ping-pong data buffer.

Public entry point: :class:`repro.ssd.device.SSDDevice`.
"""

from .geometry import FlashGeometry, LogicalAddress, PhysicalAddress
from .nand import NandTiming, Die, FlashOperation
from .channel import Channel
from .controller import FlashController, FlashCommand, CommandKind
from .ftl import FlashTranslationLayer
from .dram import DramModel
from .buffer import PingPongBuffer, BufferOverflow
from .host import HostInterface
from .scheduler import ScheduledController, SchedulingPolicy
from .trace import CommandTrace, TraceEvent, TracingController
from .queues import NvmeFrontEnd, QueuePair, IoKind, Arbitration
from .device import SSDDevice, TileAccessResult

__all__ = [
    "FlashGeometry",
    "LogicalAddress",
    "PhysicalAddress",
    "NandTiming",
    "Die",
    "FlashOperation",
    "Channel",
    "FlashController",
    "FlashCommand",
    "CommandKind",
    "FlashTranslationLayer",
    "DramModel",
    "PingPongBuffer",
    "BufferOverflow",
    "HostInterface",
    "ScheduledController",
    "SchedulingPolicy",
    "CommandTrace",
    "TraceEvent",
    "TracingController",
    "NvmeFrontEnd",
    "QueuePair",
    "IoKind",
    "Arbitration",
    "SSDDevice",
    "TileAccessResult",
]

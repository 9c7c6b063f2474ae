"""NAND-flash SSD simulator substrate.

This package implements the storage device the paper evaluates on: an
MQSim-class simulator with the channel/package/die/plane/block/page
hierarchy, NVDDR3-style timing, per-channel flash controllers, an FTL with
logical-to-physical mapping, garbage collection and wear leveling, a DRAM
model, and a ping-pong data buffer.

Public entry point: :class:`repro.ssd.device.SSDDevice`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".geometry": ("FlashGeometry", "PhysicalAddress"),
    ".nand": ("NandTiming", "Die", "FlashOperation"),
    ".channel": ("Channel",),
    ".controller": ("FlashController", "FlashCommand", "CommandKind"),
    ".ftl": ("FlashTranslationLayer",),
    ".dram": ("DramModel",),
    ".buffer": ("PingPongBuffer", "BufferOverflow"),
    ".host": ("HostInterface",),
    ".scheduler": ("ScheduledController", "SchedulingPolicy"),
    ".device": ("SSDDevice", "TileAccessResult"),
})

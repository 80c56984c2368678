"""DRAM substrate: timing sets, address mapping, commands."""

from .address import AddressMapper, MOPMapper, OpenPageMapper, make_mapper
from .commands import BankAddress, Command, LineAddress
from .energy import EnergyBreakdown, energy_of, energy_overhead
from .timing import MoPACTimings, TimingSet, ddr5_base, ddr5_prac

__all__ = [
    "AddressMapper", "BankAddress", "Command",
    "EnergyBreakdown", "LineAddress", "MOPMapper", "MoPACTimings",
    "OpenPageMapper", "energy_of", "energy_overhead",
    "TimingSet", "ddr5_base", "ddr5_prac", "make_mapper",
]

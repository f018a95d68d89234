"""Physical fabrics built from Ring and Switch dimension blocks (Fig. 3)."""

from repro.network.physical.fabric import Fabric, GroupKey, Ring, Switch

__all__ = ["Fabric", "GroupKey", "Ring", "Switch"]

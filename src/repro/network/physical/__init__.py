"""Physical fabrics built from Ring and Switch dimension blocks (Fig. 3)."""

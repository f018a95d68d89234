"""Configuration layer: Table III input parameters and Table IV presets."""

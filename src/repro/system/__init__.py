"""System layer: scheduler, collective sets, the Sys facade, and stats."""

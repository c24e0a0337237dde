"""Simulation driver: configuration, runs, and sweeps (serial or
process-pool parallel with on-disk result caching)."""

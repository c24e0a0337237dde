"""Routing functions and the choice rule among their candidates."""

"""Topologies: trees, stars, robustness, and reconfiguration schedules.

Implements §3.2 (robust trees), §5 (bin-based evolving graphs with
t-Bounded Conformity, Algorithm 4) and §5.3 (graceful degradation to a
star after ``m`` failed tree reconfigurations).
"""

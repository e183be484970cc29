"""NoC architecture model and structural analyses.

Modules: the topology container (`topology`), channel dependency
graphs and the deadlock-freedom check (`routing`), and structural
validation with the shutdown-safety audit (`validate`).
"""

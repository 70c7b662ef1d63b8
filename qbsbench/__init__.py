"""End-to-end and per-layer benchmark of the QBS reproduction.

Two seeded workloads (``synth_corpus`` and ``scan_mix``) drive the
program only through its public entry points.  ``run.py`` is the
command; ``spec.json`` documents each workload's generator parameters,
the layer -> end-to-end metric mapping, and the workload that was
dropped for being unsteady.
"""

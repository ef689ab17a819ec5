"""The layered end-to-end benchmark (see ``README.md`` beside this file).

Self-contained: it imports the public ``repro.*`` API and its own modules,
nothing else from ``benchmarks/``.
"""

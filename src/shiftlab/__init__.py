"""Workbench for symbolic dynamics at finite horizon.

Factor-language analysis, Rauzy graphs and their evolution, exit-word
calculus, block-density estimation, and the colored-loop machinery whose
connectivity check bounds the number of distinctly colored loops.

Each name is imported from its module, e.g.
``from shiftlab.language import check_rbc``.
"""

__version__ = "0.1.0"

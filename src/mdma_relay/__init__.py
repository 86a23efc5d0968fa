"""Outage, slot-cost and resource-efficiency analysis of a two-source,
multi-relay, MRC-destination cooperative network under model-division
multiple access, cross-validated by a slot-level Monte Carlo simulator
with TDMA/FDMA/NOMA baselines.

The analysis lives in the submodules ``topology``, ``analytic``,
``markov``, ``simulator`` and ``experiments``; ``cli`` is the command line.
"""

__version__ = "0.1.0"

from .topology import ConfigError, default_paper_setup

__all__ = ["ConfigError", "__version__", "default_paper_setup"]

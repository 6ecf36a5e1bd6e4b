"""Minimum-cost repair planning and network-code verification for
multi-hop distributed storage systems."""

__version__ = "0.1.0"

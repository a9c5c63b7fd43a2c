"""Competitive auction market simulator and bidding library for
federated learning data acquisition."""

__version__ = "0.1.0"

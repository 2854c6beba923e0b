"""Differentially private federated learning with harmonized noise accounting.

Gaussian, Laplace and Staircase noise mechanisms share one Renyi-divergence
accountant that composes per-application privacy loss, converts it to
(epsilon, delta)-DP and calibrates minimal noise for a budget; a deterministic
federated simulator exercises them with FedAvg or mode-connectivity
aggregation.
"""

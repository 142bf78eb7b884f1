"""Simulation substrate: event kernel, peers, churn, workload, bootstrap.

Implements the paper's simulation methodology (Section 4): the dynamic P2P
environment with lifetimes, constant-population join/leave, the measured
query rate, and the Gnutella message vocabulary extended with ACE's cost
messages.
"""

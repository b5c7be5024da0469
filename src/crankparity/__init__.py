"""Crank-parity partition arithmetic.

Exact q-series, brute-force enumeration oracles, and circle-method
asymptotics for the number of partitions with even crank minus the number
with odd crank, together with its congruence ladder modulo powers of 5 and
the closed form over partitions into distinct parts.
"""

__version__ = "0.1.0"

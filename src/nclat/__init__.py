"""Noncrossing partition lattices of planar point configurations.

Exact rational geometry, the refinement order on partitions with pairwise
disjoint block hulls, order property checks, symmetric chain decompositions,
and cross-checked enumeration.
"""

from .geometry import standard_config
from .poset import build_nc_poset, rank_vector
from .scd import scd_S, verify_scd
from .enumeration import cross_check, u_table

__version__ = "0.1.0"

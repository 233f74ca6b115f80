"""Scalable string-similarity joins (the py_stringsimjoin analog)."""

from repro.simjoin.filters import (
    SET_MEASURES,
    TokenOrder,
    overlap_lower_bound,
    prefix_length,
    similarity,
    size_bounds,
)
from repro.simjoin.joins import (
    edit_distance_join,
    naive_set_sim_join,
    set_sim_join,
)

__all__ = [
    "SET_MEASURES",
    "TokenOrder",
    "edit_distance_join",
    "naive_set_sim_join",
    "overlap_lower_bound",
    "prefix_length",
    "set_sim_join",
    "similarity",
    "size_bounds",
]

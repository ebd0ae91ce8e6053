"""Exact Burnside and representation ring arithmetic for cyclic p-groups
and generalized quaternion groups, with certification of the arithmetic
criteria governing periodic self-maps."""

from __future__ import annotations

from .burnside import VirtualGSet, bmul, cardinality, from_marks, marks, orbit
from .certify import (
    Certificate,
    certify_self_map,
    enumerate_5_1,
    enumerate_quaternion,
)
from .geomfix import (
    phi_bott_valuation,
    psi_power_fixed,
    telescope_fixed_points,
)
from .groups import GroupDescriptor, GroupModel, build_group
from .jtheory import (
    default_ell,
    imj_order_oracle,
    imj_valuation,
    theta,
    verify_adams_bott,
    verify_bott_fixed_mod_X,
)
from .powerop import Pi1Element, sq1_gset, sq1_int
from .repring import (
    VirtualRep,
    adams,
    annihilator_and_quotient,
    character_table,
    linearize,
    standard_rep,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "GroupDescriptor",
    "GroupModel",
    "Pi1Element",
    "VirtualGSet",
    "VirtualRep",
    "adams",
    "annihilator_and_quotient",
    "bmul",
    "build_group",
    "cardinality",
    "certify_self_map",
    "character_table",
    "default_ell",
    "enumerate_5_1",
    "enumerate_quaternion",
    "from_marks",
    "imj_order_oracle",
    "imj_valuation",
    "linearize",
    "marks",
    "orbit",
    "phi_bott_valuation",
    "psi_power_fixed",
    "sq1_gset",
    "sq1_int",
    "standard_rep",
    "telescope_fixed_points",
    "theta",
    "verify_adams_bott",
    "verify_bott_fixed_mod_X",
    "__version__",
]

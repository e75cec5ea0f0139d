"""Elliptic conjugacy classes in classical Weyl groups, unipotent
classes in classical groups over any characteristic, and the explicit
Lusztig map between them, with exhaustive desk-scale verification that
the map reverses the natural partial orders on both sides.
"""

from .partitions import (
    Partition,
    add_psi,
    dominance_leq,
    family_members,
    format_partition,
    partitions,
    psi,
    transpose,
)
from .weylgroup import (
    CapExceeded,
    GroupContext,
    bruhat_leq_counts,
    bruhat_leq_generic,
    class_label,
    class_rep,
    class_size,
    context,
    length,
)
from .classposet import (
    EllipticClassLabel,
    HasseDiagram,
    class_leq_W,
    elliptic_classes,
    elliptic_label,
    hasse,
    hasse_to_dot,
    hasse_to_json,
)
from .unipotent import (
    UnipotentLabel,
    bad_label,
    enumerate_unipotent,
    format_unipotent,
    good_label,
    unipotent_leq,
)
from .lusztig import (
    map_table,
    phi,
    verify_theorem,
)

__all__ = [
    "Partition",
    "add_psi",
    "dominance_leq",
    "family_members",
    "format_partition",
    "partitions",
    "psi",
    "transpose",
    "CapExceeded",
    "GroupContext",
    "bruhat_leq_counts",
    "bruhat_leq_generic",
    "class_label",
    "class_rep",
    "class_size",
    "context",
    "length",
    "EllipticClassLabel",
    "HasseDiagram",
    "class_leq_W",
    "elliptic_classes",
    "elliptic_label",
    "hasse",
    "hasse_to_dot",
    "hasse_to_json",
    "UnipotentLabel",
    "bad_label",
    "enumerate_unipotent",
    "format_unipotent",
    "good_label",
    "unipotent_leq",
    "map_table",
    "phi",
    "verify_theorem",
]

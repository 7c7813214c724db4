"""Finite partition relations for highly connected and well-connected
subsets: data model, deciders, threshold search, and certificates."""

from .arrows import (
    DecisionOutcome,
    ResourceCapExceeded,
    ThresholdResult,
    decide,
    ramsey_number,
)
from .connectivity import (
    kappa_connected_mask,
    read_graph,
)
from .core import (
    Coloring,
    FormatError,
    HcCertificate,
    Palette,
    RelationQuery,
    WcCertificate,
    certificate_from_json,
    certificate_to_json,
    make_coloring,
    read_coloring,
    write_coloring,
)
from .generators import (
    constant_coloring,
    delta_coloring,
    hub_coloring,
    random_coloring,
)
from .ordinals import (
    CnfOrdinal,
    CsystemReport,
    check_csystem_axioms,
    coloring_from_csystem,
    ord_print,
    sample_universe,
)
from .verify import verify_certificate
from .wellconn import is_wc_set

__version__ = "0.1.0"


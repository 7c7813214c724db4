"""Finite partition relations for highly connected and well-connected
subsets: data model, deciders, threshold search, and certificates."""

from .arrows import (
    DecisionOutcome,
    ResourceCapExceeded,
    ThresholdResult,
    decide,
    enumerate_colorings_canonical,
    palette_tuples,
    ramsey_number,
)
from .connectivity import (
    Graph,
    is_connected,
    is_highly_connected,
    kappa_connected_bruteforce,
    kappa_connected_fast,
    make_graph,
    read_graph,
    write_graph,
)
from .core import (
    Coloring,
    FormatError,
    HcCertificate,
    Palette,
    RelationQuery,
    WcCertificate,
    canonical_color_form,
    certificate_from_json,
    certificate_to_json,
    make_coloring,
    read_coloring,
    restrict_coloring,
    write_coloring,
)
from .generators import (
    constant_coloring,
    delta_coloring,
    find_delta_subsystem,
    hub_coloring,
    random_coloring,
)
from .ordinals import (
    CnfOrdinal,
    CsystemReport,
    acc_member,
    check_csystem_axioms,
    club_interval,
    coloring_from_csystem,
    derived_color,
    i_min,
    ord_parse,
    ord_print,
    sample_universe,
)
from .wellconn import WcOrder, is_wc_set, longest_wc_set, tree_check, wc_order, wc_pair

__version__ = "0.1.0"


def __getattr__(name):
    # The verifier lives in the CLI module.  Importing it lazily keeps
    # `python -m connramsey.cli` from finding that module already loaded
    # by the package, which makes runpy warn on every run.
    if name == "verify_certificate":
        from .cli import verify_certificate

        return verify_certificate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

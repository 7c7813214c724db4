"""Finite partition relations for highly connected and well-connected
subsets: data model, deciders, threshold search, and certificates.

The coloring generators and the ordinal club-system sampler are loaded
on first use of one of their names, so importing the package (or
running any CLI command but `gen`) does not import them.
"""

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
    constant_coloring,
    make_coloring,
    read_coloring,
    write_coloring,
)
from .verify import verify_certificate
from .wellconn import is_wc_set

__version__ = "0.1.0"

# Public name -> the submodule it is loaded from on first use.
_LAZY = {
    "delta_coloring": "generators",
    "hub_coloring": "generators",
    "random_coloring": "generators",
    "CnfOrdinal": "ordinals",
    "coloring_from_csystem": "ordinals",
    "ord_print": "ordinals",
    "sample_universe": "ordinals",
}

# A star import takes every public global and the lazy names too, which
# loads their modules.
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value

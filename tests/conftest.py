"""Let a failing Hypothesis test print its example under `-W error`.

On a failure the hypothesis plugin imports `hypothesis.extra._patching`,
whose libcst import warns that `mypy_extensions.TypedDict` is deprecated;
`-W error` turns that into an INTERNALERROR.  Loaded here with only that
warning ignored, the module is cached; no other warning is filtered.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:  # without libcst the plugin suggests no patch
        pass

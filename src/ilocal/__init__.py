"""Local-equivalence invariants of involutive complexes over F2[U].

The package builds the basis complexes X_i, reduces signed combinations of
them to small doubled representatives, computes F2[U]-module homology by
monomial matrix reduction, runs the tower-placement algorithm for connected
homology, and decodes connected modules back to combinations.
"""

from types import ModuleType as _ModuleType

from .complexes import (
    Cell,
    GeometricComplex,
    SplitComplex,
    build_misordered,
    build_trivial,
    build_xi,
    canonical_splitting,
    complex_from_json,
    complex_to_json,
    decompose,
    dual,
    tensor,
)
from .connected import (
    LinearCombination,
    LocalClass,
    connect_sum,
    connected_homology,
    decode,
    hf_conn,
    place_towers,
    predict_mu_bar,
    predict_rokhlin_parity,
    representative,
    simplify,
)
from .doubling import (
    DoubleResult,
    VerifyReport,
    double,
    half,
    local_map_f,
    local_map_g,
    verify_local_pair,
)
from .errors import (
    ExpressionError,
    InvalidComplex,
    NotAChainMap,
    NotInXForm,
    NotSimplified,
    NotSplit,
    WidthExceeded,
)
from .expr import format_expression, parse_expression
from .homology import ChainMap, ReductionResult, compose, homology, induced_map, is_u_localized_iso
from .render import render, render_ascii, render_svg
from .suite import SuiteConfig, SuiteReport, run_suite
from .towers import (
    DOWN,
    INFINITE,
    UP,
    FUModule,
    Grading,
    Orientation,
    Tower,
    kunneth,
    reflect,
    shift,
    signed_rank,
)

# the public names are exactly those the imports above bind; the package's
# submodules, which those imports also bind, are not part of them
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

"""Exact slope-sequence invariants of (1,1)-knot tunnels.

A knot drawn as a 2-strand braid in a thickened torus has an upper and a
lower tunnel, and each tunnel is classified by a finite sequence of
rational slopes.  This package converts braid words to slope sequences and
back with exact arithmetic, and provides closed forms and recognizers for
the 2-bridge and torus knot families.

The lower-level pieces (word canonicalization, segments, winding numbers,
continued fractions, the reduction steps) live in ``tunnel_slopes.braid``,
``tunnel_slopes.exact_arith`` and ``tunnel_slopes.slope_engine``.
"""

from .braid import BraidWord, format_word, parse_word, reverse_word
from .errors import DomainError, ParseError
from .exact_arith import SimpleSlope
from .knot_families import (
    Rejection,
    TwoBridge,
    TwoBridgeReport,
    find_two_bridge,
    is_toroidal,
    lower_simple_word,
    semisimple_slopes_closed_form,
    staircase,
    toroidal_braid_word,
    torus_braid_word,
    torus_lower_slopes,
    torus_upper_slopes,
    two_bridge_tunnels,
    upper_semisimple_word,
)
from .slope_engine import (
    SlopeSequence,
    braid_from_slopes,
    dual_slopes,
    format_slopes,
    lower_slopes,
    parse_slopes,
    upper_slopes,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "DomainError",
    "ParseError",
    "Rejection",
    "SimpleSlope",
    "SlopeSequence",
    "TwoBridge",
    "TwoBridgeReport",
    "braid_from_slopes",
    "dual_slopes",
    "find_two_bridge",
    "format_slopes",
    "format_word",
    "is_toroidal",
    "lower_simple_word",
    "lower_slopes",
    "parse_slopes",
    "parse_word",
    "reverse_word",
    "semisimple_slopes_closed_form",
    "staircase",
    "toroidal_braid_word",
    "torus_braid_word",
    "torus_lower_slopes",
    "torus_upper_slopes",
    "two_bridge_tunnels",
    "upper_semisimple_word",
    "upper_slopes",
    "__version__",
]

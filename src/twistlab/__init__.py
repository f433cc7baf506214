"""Exact Kauffman polynomial computation for link diagrams.

The package computes the two-variable regular-isotopy polynomial
Lambda(a, z) of a link diagram over the integers, builds standard
alternating diagrams of rational links from Conway codes, and checks
mechanically that the three leading coefficients in the second-highest
z row count the diagram's twist sites by axis.
"""

from .diagram import (
    INFINITY,
    ZERO,
    LinkDiagram,
    build_standard,
    canonical_key,
    components,
    connected_sum,
    is_alternating,
    mirror,
    parse_pd,
    remove_curls,
    self_writhe,
    smooth,
    switch,
    to_pd,
    unlink,
)
from .kauffman import (
    LaurentPoly2,
    TopDegreeMismatchError,
    delta_unlink,
    lambda_code,
    lambda_poly,
    staggered,
    truncate,
)
from .notation import (
    ConwayCode,
    continued_fraction,
    enumerate_standard,
    minimal_code,
    parse_conway,
    predicted_u,
)
from .verify import (
    VerificationReport,
    amphicheiral_obstruction,
    check_diagram,
    chirality_class,
    sweep,
    verify_code,
    verify_connected_sum,
    verify_mirror,
)

__version__ = "0.1.0"

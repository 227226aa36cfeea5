"""morsify: divides of plane curve singularities and their companions.

Planar and scannable divides, attached plabic graphs with local moves,
quivers with mutation, positive braid words with Garside normal forms, and
link diagrams with Alexander/Jones invariants — plus bounded-search
equivalence deciders for each world.
"""

from ._common import Budget, DistinctByInvariant, Equivalent, Unknown, Verdict
from .agquiver import quiver_of_divide
from .braid import (
    PositiveBraidWord,
    beta_of_fence_word,
    beta_of_scannable,
    delta,
    delta_divisibility,
    format_braid_word,
    left_normal_form,
    parse_braid_word,
    positive_equal,
    positive_isotopic,
    solid_torus_isotopic,
)
from .divide import (
    PlanarDivide,
    ScannableDivide,
    apply_yb,
    cell_count,
    face_signs,
    format_planar_divide,
    format_scannable,
    klein_act,
    lissajous,
    overlay,
    parse_planar_divide,
    parse_scannable,
    regions,
    scannable,
    scannable_to_planar,
    wiring_diagram,
    yb_sites,
)
from .link import (
    LaurentPoly,
    LinkDiagram,
    alexander,
    closure,
    fingerprint,
    format_link_diagram,
    format_poly,
    jones,
    kauffman_bracket,
    parse_link_diagram,
    parse_poly,
)
from .plabic import (
    FenceWord,
    PlabicGraph,
    admissible_orientation,
    apply_move,
    attach_plabic,
    canonical_code,
    divide_of_attached,
    enumerate_moves,
    fence_of_divide,
    fence_of_word,
    fence_word_of_divide,
    format_plabic,
    link_of_oriented_plabic,
    move_equivalent,
    parse_plabic,
    quiver_of_plabic,
    transport_orientation,
    word_of_fence,
    yb_as_moves,
)
from .quiver import (
    Quiver,
    format_quiver,
    is_isomorphic,
    mutate,
    mutate_seq,
    mutation_equivalent,
    parse_quiver,
    quiver_from_arrows,
)

__version__ = "0.1.0"

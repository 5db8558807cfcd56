"""Diamond-colored modular and distributive lattices.

Construction, verification, and transformation of finite vertex- and
edge-colored posets: the ideal/filter lattice correspondence with posets of
irreducibles, rank and distance laws of modular lattices, full-length
sublattices, color-restricted components, and subordinates, all backed by
executable verification suites and a DCP text format with a CLI.
"""

from .birkhoff import (
    IdealLattice,
    IrreduciblePoset,
    IntervalBooleanResult,
    ancestor_interval_boolean,
    build_J,
    build_M,
    cover_color_profile,
    descendant_interval_boolean,
    extract_j,
    extract_m,
    is_birkhoff_representable,
    principal_ideal,
    verify_fundamental,
    verify_fundamental_poset,
    verify_interval_booleans,
    verify_transform_identities,
)
from .dcp import DcpDocument, emit, parse, render_dot
from .errors import (
    DclatError,
    EnumerationCapExceeded,
    HypothesisViolated,
    IncomparableEndpoints,
    InvalidDescendantSet,
    InvalidSpec,
    MissingColorMapping,
    NotALattice,
    NotASublattice,
    NotConnected,
    NotConnectedPair,
    NotDiamondColored,
    NotDistributive,
    NotModular,
    NotRanked,
    NotWeakSubposet,
    ParseError,
    SizeCapExceeded,
    UnknownVertex,
    ValidationError,
)
from .generators import (
    GeneratorSpec,
    antichain_poset,
    boolean_lattice,
    chain_poset,
    generate,
    random_poset,
)
from .isomorphism import find_isomorphism, isomorphic
from .lattice import (
    LatticeView,
    as_lattice,
    is_boolean,
    is_distributive,
    is_distributive_fast,
    is_modular,
    verify_distance_laws,
)
from .paths import (
    Path,
    RankFunction,
    Step,
    ascent_descent_counts,
    check_diamond_colored,
    check_topographically_balanced,
    compute_rank,
    distance,
    distance_modular,
    mountainize,
    rank_via_path,
    valleyize,
    verify_path_colors,
    verify_path_colors_all,
)
from .report import Report
from .structures import (
    EdgeColoredPoset,
    ProductView,
    VertexColoredPoset,
    cartesian_product,
    disjoint_sum,
    dual,
    recolor,
    reduce_relation,
)
from .substructure import (
    ComponentInfo,
    JComponentDecomposition,
    JSubordinate,
    SublatticeEmbedding,
    SubposetRecovery,
    WeakeningEmbedding,
    check_sublattice,
    color_subsets,
    enumerate_subordinates,
    j_components,
    sublattice_from_weak_subposet,
    subordinate_of,
    subordinates_by_definition,
    verify_component_structure,
    verify_full_length_agreement,
    verify_product_closure,
    verify_subordinate_correspondence,
    verify_weakening,
    weak_subposet,
    weak_subposet_from_sublattice,
)

__version__ = "0.1.0"
